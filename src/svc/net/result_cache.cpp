#include "svc/net/result_cache.hpp"

#include <cstddef>

#include "db/format.hpp"

namespace swr::svc::net {

namespace {

void append_payload(std::vector<std::uint8_t>& out, const std::vector<std::uint8_t>& payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  for (int b = 0; b < 4; ++b) out.push_back(static_cast<std::uint8_t>(n >> (8 * b)));
  out.insert(out.end(), payload.begin(), payload.end());
}

// An entry holds each Hit payload and then the Done payload, encoded and
// behind a little-endian u32 length: about the response's wire size,
// where the decoded structs take up to twice that.
std::vector<std::uint8_t> pack(const CachedResponse& r) {
  std::vector<std::uint8_t> out;
  for (const WireHit& h : r.hits) append_payload(out, encode(h));
  append_payload(out, encode(r.trailer));
  out.shrink_to_fit();
  return out;
}

// Inverse of pack. The bytes never left this process, so a decode
// failure is a bug: value() throws rather than replaying garbage.
CachedResponse unpack(const std::vector<std::uint8_t>& packed) {
  CachedResponse r;
  std::vector<std::uint8_t> payload;
  for (std::size_t at = 0;;) {
    std::uint32_t n = 0;
    for (int b = 0; b < 4; ++b) n |= std::uint32_t{packed[at + b]} << (8 * b);
    at += 4;
    payload.assign(packed.begin() + static_cast<std::ptrdiff_t>(at),
                   packed.begin() + static_cast<std::ptrdiff_t>(at + n));
    at += n;
    if (at == packed.size()) {
      r.trailer = decode_done(payload).value();
      return r;
    }
    r.hits.push_back(decode_hit(payload).value());
  }
}

}  // namespace

ResultCache::ResultCache(std::size_t max_bytes, obs::Registry* registry,
                         const std::string& prefix)
    : max_bytes_(max_bytes) {
  if (registry) {
    hits_ = &registry->counter(prefix + ".hits");
    misses_ = &registry->counter(prefix + ".misses");
    evictions_ = &registry->counter(prefix + ".evictions");
    bytes_gauge_ = &registry->gauge(prefix + ".bytes");
  }
}

std::optional<CachedResponse> ResultCache::lookup(const ResultKey& key) {
  std::vector<std::uint8_t> packed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      if (misses_) misses_->add();
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    if (hits_) hits_->add();
    packed = it->second->packed;
  }
  return unpack(packed);
}

void ResultCache::insert(const ResultKey& key, const CachedResponse& response) {
  if (max_bytes_ == 0) return;
  std::vector<std::uint8_t> packed = pack(response);
  const std::size_t cost = packed.size();
  if (cost > max_bytes_) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->packed.size();
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Node{key, std::move(packed)});
  index_[key] = lru_.begin();
  bytes_ += cost;
  evict_locked();
  if (bytes_gauge_) bytes_gauge_->set(static_cast<std::int64_t>(bytes_));
}

void ResultCache::evict_locked() {
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    Node& victim = lru_.back();
    bytes_ -= victim.packed.size();
    index_.erase(victim.key);
    lru_.pop_back();
    if (evictions_) evictions_->add();
  }
}

std::size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::size_t ResultCache::response_bytes(const CachedResponse& r) { return pack(r).size(); }

std::uint64_t query_text_hash(const std::string& query) {
  return db::fnv1a(query.data(), query.size());
}

std::uint64_t request_options_hash(const WireRequest& req) {
  // Field-wise chained fnv1a over everything that can alter response
  // bytes. query_name, tenant and request_id are deliberately excluded:
  // none of them reach the scan, and folding them in would split cache
  // entries for identical work.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto fold = [&h](const void* p, std::size_t n) { h = db::fnv1a(p, n, h); };
  fold(&req.top_k, sizeof req.top_k);
  fold(&req.min_score, sizeof req.min_score);
  fold(&req.filter, sizeof req.filter);
  fold(&req.filter_threshold, sizeof req.filter_threshold);
  fold(&req.align, sizeof req.align);
  fold(&req.max_hits, sizeof req.max_hits);
  return h;
}

}  // namespace swr::svc::net
