// Minimal command-line argument parser for the swr tool.
//
// Supports: positional arguments, `--flag` booleans, `--key value` and
// `--key=value` options, `--` to end option parsing. Unknown options are
// an error (a typo'd option silently ignored is how benchmarks lie).
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace swr::cli {

/// Raised on malformed or unknown arguments; message is user-facing.
class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Declarative parser: declare the options a command accepts, then parse.
class ArgParser {
 public:
  /// Declares a boolean flag (present/absent).
  ArgParser& flag(const std::string& name);
  /// Declares a value option, optionally with a default.
  ArgParser& option(const std::string& name, std::optional<std::string> def = std::nullopt);

  /// Parses argv-style input (not including the program/command name).
  /// @throws ArgError on unknown options or a missing option value.
  void parse(const std::vector<std::string>& args);

  /// Positional arguments in order.
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// True iff the declared flag was present.
  [[nodiscard]] bool has(const std::string& name) const;

  /// Value of the declared option (or its default).
  /// @throws ArgError if the option has no value and no default.
  [[nodiscard]] std::string get(const std::string& name) const;

  /// Value if present (or default), otherwise nullopt.
  [[nodiscard]] std::optional<std::string> get_optional(const std::string& name) const;

  /// Typed helpers. @throws ArgError on malformed numbers.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;

  /// Integer option as a T in [lo, hi] (by default T's non-negative
  /// values). Zero, where an option cannot take it, is left to the
  /// command's own validation. @throws ArgError on a malformed number or
  /// one outside the range, naming the option and the range.
  template <std::integral T>
  [[nodiscard]] T get_int_as(const std::string& name, T lo = 0,
                             T hi = std::numeric_limits<T>::max()) const {
    const std::int64_t v = get_int(name);
    if (std::cmp_less(v, lo) || std::cmp_greater(v, hi)) {
      throw ArgError("option --" + name + " must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "], got " + std::to_string(v));
    }
    return static_cast<T>(v);
  }

 private:
  std::set<std::string> declared_flags_;
  std::map<std::string, std::optional<std::string>> declared_options_;  // name -> default
  std::set<std::string> seen_flags_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace swr::cli
