// Shared query-profile cache for repeated scans of the same query.
//
// Building the per-scan profiles (scalar QueryProfile reorder table,
// Farrar StripedProfile lane tables, InterSeqProfile pshufb tables) costs
// O(|alphabet| * |query|) per scan — trivial against one full-database
// pass, but real serving traffic is skewed: the same query arrives again
// and again, and the scan service splits each query into many chunks,
// each of which would rebuild the same profiles. This cache makes every
// profile build happen once per (query, scoring, lane shape) and shares
// the immutable result across threads.
//
// Safety argument: QueryProfile, StripedProfile and InterSeqProfile are
// all write-once tables consumed through const references by the kernels
// (sw_linear_profiled, sw_striped*_try, sw_interseq_scan) — concurrent
// readers over one shared instance are data-race-free by construction.
// The cache hands out shared_ptr<const ProfileBundle>, so an entry
// evicted mid-scan stays alive until its last reader drops it.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "align/scoring.hpp"
#include "align/sw_interseq.hpp"
#include "align/sw_profile.hpp"
#include "align/sw_striped.hpp"
#include "obs/metrics.hpp"
#include "seq/sequence.hpp"

namespace swr::host {

/// Every profile one scan can need, built together so the cache key is
/// uniform: `lanes8` == 0 carries only the scalar profile (scalar tier);
/// 16/32/64 adds the striped profile and — when the inter-seq kernel is
/// compiled wide enough — the inter-seq profile.
struct ProfileBundle {
  ProfileBundle(const seq::Sequence& query, const align::Scoring& sc, unsigned lanes8);

  align::QueryProfile profile;
  std::optional<align::StripedProfile> striped;    ///< lanes8 > 0
  std::optional<align::InterSeqProfile> interseq;  ///< lanes8 > 0 and kernel available
};

/// Content hash of a scoring scheme (uniform params, or the full matrix
/// table + alphabet size when a matrix is set).
[[nodiscard]] std::uint64_t scoring_hash(const align::Scoring& sc);

/// Content hash of a query's residue codes (alphabet size folded in).
[[nodiscard]] std::uint64_t query_hash(const seq::Sequence& query);

/// Thread-safe LRU keyed by (query hash, scoring hash, lanes8), bounded
/// by entry count. Builds happen outside the lock; when two threads race
/// to build the same key the first insert wins and the loser's build is
/// dropped (both get a usable bundle either way).
class ProfileCache {
 public:
  /// Metric names are `<prefix>.{hits,misses,evictions}`; registry may be
  /// null. `max_entries` == 0 disables caching (acquire always builds).
  explicit ProfileCache(std::size_t max_entries, obs::Registry* registry = nullptr,
                        const std::string& prefix = "scan.cache.profile");

  /// Returns the cached bundle for (query, sc, lanes8), building and
  /// inserting it on miss.
  std::shared_ptr<const ProfileBundle> acquire(const seq::Sequence& query,
                                               const align::Scoring& sc, unsigned lanes8);

  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }

 private:
  struct Key {
    std::uint64_t query = 0;
    std::uint64_t scoring = 0;
    std::uint32_t lanes8 = 0;
    bool operator==(const Key& o) const noexcept {
      return query == o.query && scoring == o.scoring && lanes8 == o.lanes8;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = k.query ^ (k.scoring * 0x9e3779b97f4a7c15ull) ^ k.lanes8;
      h ^= h >> 33;
      return static_cast<std::size_t>(h);
    }
  };
  struct Node {
    Key key;
    std::shared_ptr<const ProfileBundle> bundle;
  };

  const std::size_t max_entries_;
  mutable std::mutex mu_;
  std::list<Node> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Node>::iterator, KeyHash> index_;

  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
};

}  // namespace swr::host
