// Simulation scheduling policy for the two-phase clocked model.
//
// Dense is the textbook stepper: every PE of the array is evaluated and
// committed every clock. Event is the activity-driven scheduler (kpu-sim
// style): only elements whose registered state can change this cycle are
// touched. The two are bit-identical — an element left out holds an
// invalid input and an invalid output, so the edge would keep its state —
// and CI runs every hardware suite under both policies.
//
// Selection follows the SWR_SIMD/SWR_KERNEL convention: a process-wide
// default from the SWR_HW_SCHED environment variable (event when unset),
// overridable per construction site, with a single stderr warning for a
// malformed value (never a hard failure mid-scan).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace swr::hw {

/// How a simulated array picks the elements to cycle each clock.
enum class SchedMode : std::uint8_t {
  Dense,  ///< evaluate/commit every element every clock (parity oracle)
  Event,  ///< evaluate/commit only the live wavefront span
};

/// Lower-case name for stats/JSON/CLI echo.
const char* sched_mode_name(SchedMode mode) noexcept;

/// The CLI/env choices string.
const char* sched_mode_choices() noexcept;

/// Parses "dense"/"event"; "auto"/"" mean "no preference" (nullopt).
/// @throws std::invalid_argument on anything else, naming the choices.
std::optional<SchedMode> parse_sched_mode(std::string_view name);

/// SWR_HW_SCHED, if set and well-formed; warns on stderr once per process
/// for a malformed value and treats it as unset.
std::optional<SchedMode> sched_mode_env_override();

/// The process default: SWR_HW_SCHED when set, else Event (the fast path;
/// dense stays available as the parity oracle).
SchedMode default_sched_mode();

}  // namespace swr::hw
