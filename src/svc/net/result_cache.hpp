// Bounded LRU result cache for swr serve.
//
// Exploits traffic skew: real serving load repeats the same queries, and
// a repeated query against an unchanged database must produce the exact
// same ranked hits — the deterministic-merge invariant guarantees it. So
// the cache stores the response (hits + trailer, request_id zeroed) keyed
// by (query hash, options hash, store generation) as its encoded wire
// payloads, about two thirds of the memory the decoded structs took; a
// lookup decodes it and the server re-encodes it under the caller's
// request_id. Because
// encoding is field-deterministic, a warm hit is bit-identical on the
// wire to the cold scan that populated it — the cache correctness suite
// asserts this byte-for-byte.
//
// Invalidation is structural: the store generation (content-addressed
// stamp over the .swdb payload + header hashes) is part of the key, so a
// `swdb build` that changes content can never serve stale hits; stale
// entries age out of the LRU.
//
// Bounded by approximate bytes, never entry count: responses range from
// empty to thousands of CIGAR strings. Eviction pops least-recently-used
// entries until the configured bound holds.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/net/wire.hpp"

namespace swr::svc::net {

/// Cache key. query_hash covers the residue text; options_hash covers
/// every request field that can change the response bytes; generation is
/// the store's content stamp.
struct ResultKey {
  std::uint64_t query_hash = 0;
  std::uint64_t options_hash = 0;
  std::uint64_t generation = 0;

  bool operator==(const ResultKey& o) const noexcept {
    return query_hash == o.query_hash && options_hash == o.options_hash &&
           generation == o.generation;
  }
};

struct ResultKeyHash {
  std::size_t operator()(const ResultKey& k) const noexcept {
    // fnv-style mix of the three 64-bit words.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t w : {k.query_hash, k.options_hash, k.generation}) {
      h ^= w;
      h *= 0x100000001b3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// One cached response: everything needed to replay the Hit stream and
/// Done trailer. request_id fields are 0 here; the server stamps the
/// caller's id at encode time.
struct CachedResponse {
  std::vector<WireHit> hits;
  WireDone trailer;
};

/// Thread-safe bounded-bytes LRU. Only successful (Done) responses belong
/// here — errors, sheds and cancellations are never cached.
class ResultCache {
 public:
  /// `max_bytes` = 0 disables the cache (every lookup misses, inserts are
  /// dropped). Metric names are `<prefix>.{hits,misses,evictions}`
  /// counters plus a `<prefix>.bytes` gauge; registry may be null.
  ResultCache(std::size_t max_bytes, obs::Registry* registry, const std::string& prefix);

  /// Returns a copy of the cached response and promotes it to MRU.
  std::optional<CachedResponse> lookup(const ResultKey& key);

  /// Inserts (or replaces) and evicts LRU entries until the byte bound
  /// holds. A response bigger than the whole bound is not cached.
  void insert(const ResultKey& key, const CachedResponse& response);

  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t max_bytes() const { return max_bytes_; }

  /// Bytes an entry holds for `r` (its encoded payloads plus a 4-byte
  /// length each) — the size the byte bound counts, exact and stable
  /// across calls, so tests can reason about eviction exactly.
  static std::size_t response_bytes(const CachedResponse& r);

 private:
  struct Node {
    ResultKey key;
    std::vector<std::uint8_t> packed;
  };

  void evict_locked();

  const std::size_t max_bytes_;
  mutable std::mutex mu_;
  std::list<Node> lru_;  // front = most recent
  std::unordered_map<ResultKey, std::list<Node>::iterator, ResultKeyHash> index_;
  std::size_t bytes_ = 0;

  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
};

/// Hash of the request fields that determine response bytes (everything
/// except request_id and tenant — those never change the scan output).
[[nodiscard]] std::uint64_t request_options_hash(const WireRequest& req);

/// fnv1a over the residue text.
[[nodiscard]] std::uint64_t query_text_hash(const std::string& query);

}  // namespace swr::svc::net
