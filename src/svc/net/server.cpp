#include "svc/net/server.hpp"

#include <bit>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/topology.hpp"

namespace swr::svc::net {
namespace {

// A half-received payload may never complete (wedged or malicious peer);
// bound it so a handler thread can always make progress. Distinct from
// idle_timeout, which bounds the quiet time *between* frames.
constexpr std::chrono::milliseconds kPayloadTimeout{30000};

// Future-poll slice while a scan runs: short enough to answer Ping and
// notice Cancel/disconnect promptly.
constexpr std::chrono::milliseconds kWaitSlice{10};

void inc(obs::Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) c->add(n);
}

double elapsed_s(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

// Metric handles resolved once at construction; all null without a
// registry so the hot paths stay single-pointer-test cheap.
struct ScanServer::Metrics {
  obs::Counter* connections = nullptr;
  obs::Gauge* connections_active = nullptr;
  obs::Counter* frames_in = nullptr;
  obs::Counter* frames_out = nullptr;
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;
  obs::Counter* requests = nullptr;
  obs::Counter* responses = nullptr;
  obs::Counter* shed = nullptr;
  obs::Counter* overloaded = nullptr;
  obs::Counter* invalid_requests = nullptr;
  obs::Counter* aborted = nullptr;
  obs::Counter* cancels = nullptr;
  obs::Counter* pings = nullptr;
  obs::Counter* err_bad_magic = nullptr;
  obs::Counter* err_bad_version = nullptr;
  obs::Counter* err_bad_checksum = nullptr;
  obs::Counter* err_oversized = nullptr;
  obs::Counter* err_bad_type = nullptr;
  obs::Counter* err_bad_request = nullptr;
  obs::Histogram* admission_us = nullptr;
  obs::Histogram* request_us = nullptr;
  // Only explicitly configured tenants get named families — unknown
  // tenant ids must not be able to mint unbounded metric cardinality.
  std::map<std::string, obs::Counter*> tenant_served;
  std::map<std::string, obs::Counter*> tenant_shed;

  Metrics(obs::Registry* reg, const std::map<std::string, TenantTable::Limits>& tenants) {
    if (reg == nullptr) return;
    connections = &reg->counter("svc.net.connections");
    connections_active = &reg->gauge("svc.net.connections_active");
    frames_in = &reg->counter("svc.net.frames_in");
    frames_out = &reg->counter("svc.net.frames_out");
    bytes_in = &reg->counter("svc.net.bytes_in");
    bytes_out = &reg->counter("svc.net.bytes_out");
    requests = &reg->counter("svc.net.requests");
    responses = &reg->counter("svc.net.responses");
    shed = &reg->counter("svc.net.shed");
    overloaded = &reg->counter("svc.net.overloaded");
    invalid_requests = &reg->counter("svc.net.invalid_requests");
    aborted = &reg->counter("svc.net.aborted");
    cancels = &reg->counter("svc.net.cancels");
    pings = &reg->counter("svc.net.pings");
    err_bad_magic = &reg->counter("svc.net.errors.bad_magic");
    err_bad_version = &reg->counter("svc.net.errors.bad_version");
    err_bad_checksum = &reg->counter("svc.net.errors.bad_checksum");
    err_oversized = &reg->counter("svc.net.errors.oversized");
    err_bad_type = &reg->counter("svc.net.errors.bad_type");
    err_bad_request = &reg->counter("svc.net.errors.bad_request");
    admission_us = &reg->histogram("svc.net.admission_us");
    request_us = &reg->histogram("svc.net.request_us");
    for (const auto& [name, limits] : tenants) {
      (void)limits;
      tenant_served[name] = &reg->counter("svc.net.tenant." + name + ".served");
      tenant_shed[name] = &reg->counter("svc.net.tenant." + name + ".shed");
    }
  }

  obs::Counter* served_for(const std::string& tenant) {
    auto it = tenant_served.find(tenant);
    return it == tenant_served.end() ? nullptr : it->second;
  }
  obs::Counter* shed_for(const std::string& tenant) {
    auto it = tenant_shed.find(tenant);
    return it == tenant_shed.end() ? nullptr : it->second;
  }
};

struct ScanServer::Conn {
  Socket sock;
  std::thread thread;
  std::atomic<bool> done{false};
};

CachedResponse to_wire(const svc::ScanResponse& resp, const db::Store& store) {
  CachedResponse out;
  const host::ScanResult& r = resp.result;
  out.trailer.status = static_cast<std::uint8_t>(resp.status);
  out.trailer.error = resp.error;
  out.trailer.hit_count = static_cast<std::uint32_t>(r.hits.size());
  out.trailer.records_scanned = r.records_scanned;
  out.trailer.cell_updates = r.cell_updates;
  out.trailer.swar8_fallbacks = r.swar8_fallbacks;
  out.trailer.filter_candidates = r.filter_candidates;
  out.trailer.filter_rescored = r.filter_rescored;
  out.trailer.filter_rejected = r.filter_rejected;
  out.trailer.filter_recall_guard = r.filter_recall_guard;
  out.hits.reserve(r.hits.size());
  for (std::size_t i = 0; i < r.hits.size(); ++i) {
    const host::Hit& hit = r.hits[i];
    WireHit wh;
    wh.rank = static_cast<std::uint32_t>(i + 1);
    wh.record = static_cast<std::uint32_t>(hit.record);
    wh.name = std::string(store.name(hit.record));
    wh.score = hit.result.score;
    wh.end_i = static_cast<std::uint32_t>(hit.result.end.i);
    wh.end_j = static_cast<std::uint32_t>(hit.result.end.j);
    if (i < r.alignments.size()) {
      const retrieve::Traceback& tb = r.alignments[i];
      wh.has_alignment = 1;
      wh.begin_i = static_cast<std::uint32_t>(tb.alignment.begin.i);
      wh.begin_j = static_cast<std::uint32_t>(tb.alignment.begin.j);
      wh.identity_bits = std::bit_cast<std::uint64_t>(tb.identity);
      wh.coverage_bits = std::bit_cast<std::uint64_t>(tb.query_coverage);
      wh.cigar = tb.alignment.cigar.to_string();
    }
    out.hits.push_back(std::move(wh));
  }
  return out;
}

std::vector<std::uint8_t> encode_response_bytes(const CachedResponse& response,
                                                std::uint64_t request_id) {
  std::vector<std::uint8_t> out;
  for (WireHit hit : response.hits) {
    hit.request_id = request_id;
    const std::vector<std::uint8_t> frame = make_frame(FrameType::Hit, encode(hit));
    out.insert(out.end(), frame.begin(), frame.end());
  }
  WireDone done = response.trailer;
  done.request_id = request_id;
  const std::vector<std::uint8_t> frame = make_frame(FrameType::Done, encode(done));
  out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

ScanServer::ScanServer(const db::Store& store, ServerConfig cfg)
    : store_(store),
      cfg_(std::move(cfg)),
      generation_(store.generation()),
      metrics_(std::make_unique<Metrics>(cfg_.metrics, cfg_.tenant_limits)),
      service_(store, cfg_.service),
      tenants_(cfg_.default_limits, cfg_.tenant_limits),
      result_cache_(cfg_.result_cache_bytes, cfg_.metrics, "svc.cache.result"),
      profile_cache_(cfg_.profile_cache_entries, cfg_.metrics, "svc.cache.profile") {}

ScanServer::~ScanServer() { stop(); }

bool ScanServer::start(std::string& error) {
  auto [sock, port] = listen_tcp(cfg_.host, cfg_.port, error);
  if (!sock.valid()) return false;
  listener_ = std::move(sock);
  port_ = port;
  accept_thread_ = std::thread([this] {
    core::set_current_thread_name("swr-accept");
    accept_loop();
  });
  return true;
}

void ScanServer::stop() {
  if (stop_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Wake everything: the accept loop polls stop_; blocked connection
  // reads are woken by shutdown() on their fds.
  listener_.shutdown_both();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->sock.shutdown_both();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& conn : conns_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  conns_.clear();
  listener_.close();
}

std::size_t ScanServer::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::size_t n = 0;
  for (const auto& conn : conns_) {
    if (!conn->done.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

void ScanServer::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    Socket sock = accept_one(listener_.fd(), &stop_);
    if (!sock.valid()) continue;  // stop flag, or transient accept failure
    set_send_timeout(sock.fd(), cfg_.write_timeout);

    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(sock);
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      // Reap finished connections so a long-lived server (or a storm of
      // short ones) doesn't accumulate dead threads.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] {
      core::set_current_thread_name("swr-conn");
      inc(metrics_->connections);
      if (metrics_->connections_active) metrics_->connections_active->add(1);
      try {
        handle_connection(*raw);
      } catch (const std::exception&) {
        // A handler must never take the process down; the connection just
        // closes (its in-flight query, if any, was already cancelled).
      }
      if (metrics_->connections_active) metrics_->connections_active->add(-1);
      // Terminate the peer with shutdown(), not close(): stop() may be
      // reading this socket's fd concurrently to wake a blocked handler,
      // so the fd must stay valid until the Conn is reaped (accept loop)
      // or cleared (stop()) — both after join, where the Socket destructor
      // closes it race-free. shutdown() also can't strand a reused fd
      // number belonging to a newer connection.
      raw->sock.shutdown_both();
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void ScanServer::handle_connection(Conn& conn) {
  const int fd = conn.sock.fd();
  for (;;) {
    std::uint8_t hdr[kFrameHeaderBytes];
    const IoStatus hs = read_exact(fd, hdr, sizeof hdr, &stop_, cfg_.idle_timeout);
    if (hs != IoStatus::Ok) return;  // EOF between frames, idle timeout, stop, or error

    FrameHeader header;
    const HeaderStatus ps = parse_frame_header(hdr, header);
    if (ps != HeaderStatus::Ok) {
      // Malformed-header ladder (wire.hpp contract): typed error, then
      // resync. BadMagic resumes at the next byte after the 16 consumed;
      // Oversized must NOT trust the declared length, so nothing more is
      // consumed; BadVersion/BadType skip the declared payload to stay
      // frame-aligned.
      switch (ps) {
        case HeaderStatus::BadMagic:
          inc(metrics_->err_bad_magic);
          if (!send_error(conn, 0, ErrorCode::BadMagic, 0, "frame magic mismatch")) return;
          continue;
        case HeaderStatus::Oversized:
          inc(metrics_->err_oversized);
          if (!send_error(conn, 0, ErrorCode::Oversized, 0,
                          "declared frame length exceeds limit"))
            return;
          continue;
        case HeaderStatus::BadVersion:
        case HeaderStatus::BadType: {
          if (ps == HeaderStatus::BadVersion) {
            inc(metrics_->err_bad_version);
          } else {
            inc(metrics_->err_bad_type);
          }
          if (header.length > 0 &&
              discard_exact(fd, header.length, &stop_, kPayloadTimeout) != IoStatus::Ok)
            return;
          const char* what = ps == HeaderStatus::BadVersion ? "unsupported protocol version"
                                                            : "unknown frame type";
          if (!send_error(conn, 0,
                          ps == HeaderStatus::BadVersion ? ErrorCode::BadVersion
                                                         : ErrorCode::BadType,
                          0, what))
            return;
          continue;
        }
        case HeaderStatus::Ok: break;
      }
    }

    std::vector<std::uint8_t> payload(header.length);
    if (header.length > 0) {
      if (read_exact(fd, payload.data(), header.length, &stop_, kPayloadTimeout) != IoStatus::Ok)
        return;  // truncated mid-frame: close, server stays healthy
    }
    inc(metrics_->frames_in);
    inc(metrics_->bytes_in, kFrameHeaderBytes + header.length);

    if (frame_checksum(payload.data(), payload.size()) != header.checksum) {
      inc(metrics_->err_bad_checksum);
      if (!send_error(conn, 0, ErrorCode::BadChecksum, 0, "payload checksum mismatch")) return;
      continue;
    }

    if (!handle_frame(conn, header.type, std::move(payload))) return;
  }
}

bool ScanServer::handle_frame(Conn& conn, FrameType type, std::vector<std::uint8_t> payload) {
  switch (type) {
    case FrameType::Request: {
      const std::optional<WireRequest> req = decode_request(payload);
      if (!req) {
        inc(metrics_->err_bad_request);
        return send_error(conn, 0, ErrorCode::BadRequest, 0, "malformed request payload");
      }
      return handle_request(conn, *req);
    }
    case FrameType::Ping:
      inc(metrics_->pings);
      return send_frame(conn, FrameType::Pong, payload);
    case FrameType::Cancel:
      // No request in flight on this connection — nothing to cancel.
      inc(metrics_->cancels);
      return true;
    case FrameType::Hit:
    case FrameType::Done:
    case FrameType::Error:
    case FrameType::Pong:
      inc(metrics_->err_bad_request);
      return send_error(conn, 0, ErrorCode::BadRequest, 0,
                        std::string("unexpected frame type: ") + to_string(type));
  }
  return true;
}

bool ScanServer::handle_request(Conn& conn, const WireRequest& req) {
  inc(metrics_->requests);
  const auto start = std::chrono::steady_clock::now();

  if (stop_.load(std::memory_order_relaxed)) {
    inc(metrics_->aborted);
    return send_error(conn, req.request_id, ErrorCode::Shutdown, 0, "server is stopping");
  }

  // Layer 1: tenant token bucket — before the request costs anything.
  std::uint32_t retry_ms = 0;
  if (!tenants_.try_acquire(req.tenant, monotonic_ns(), &retry_ms)) {
    inc(metrics_->shed);
    inc(metrics_->shed_for(req.tenant));
    return send_error(conn, req.request_id, ErrorCode::Shed, retry_ms,
                      "tenant '" + req.tenant + "' over rate limit");
  }

  // Layer 2: the result cache. Bit-identical replay of a completed scan
  // against the same store generation.
  const ResultKey key{query_text_hash(req.query), request_options_hash(req), generation_};
  if (std::optional<CachedResponse> cached = result_cache_.lookup(key)) {
    if (!send_response(conn, *cached, req.request_id)) {
      inc(metrics_->aborted);
      return false;
    }
    inc(metrics_->responses);
    inc(metrics_->served_for(req.tenant));
    if (metrics_->request_us) metrics_->request_us->observe_seconds(elapsed_s(start));
    return true;
  }

  // Layer 3: the scan service's bounded queue.
  svc::Ticket ticket;
  try {
    seq::Sequence query(store_.alphabet(), req.query, req.query_name);
    host::ScanOptions opt;
    opt.top_k = req.top_k;
    opt.min_score = req.min_score;
    if (req.filter > 1) throw std::invalid_argument("unknown filter mode");
    opt.filter = req.filter == 1 ? host::FilterMode::Seeded : host::FilterMode::Exact;
    opt.filter_threshold = req.filter_threshold;
    opt.align = req.align != 0;
    opt.max_hits = req.max_hits;
    opt.profile_cache = &profile_cache_;
    std::optional<svc::Ticket> t =
        service_.try_submit(std::move(query), opt, std::chrono::milliseconds(req.deadline_ms));
    if (!t) {
      inc(metrics_->overloaded);
      // The queue drains at scan speed; a fixed small hint is as honest
      // as any estimate without modelling the queue's service rate.
      return send_error(conn, req.request_id, ErrorCode::Overloaded, 50,
                        "admission queue full");
    }
    ticket = std::move(*t);
  } catch (const std::exception& e) {
    inc(metrics_->invalid_requests);
    return send_error(conn, req.request_id, ErrorCode::BadRequest, 0, e.what());
  }
  if (metrics_->admission_us) metrics_->admission_us->observe_seconds(elapsed_s(start));

  const svc::ScanResponse resp = wait_for_scan(conn, ticket, req.request_id);
  if (conn.done.load(std::memory_order_relaxed)) {
    // Peer vanished mid-scan; the query was cancelled in wait_for_scan.
    inc(metrics_->aborted);
    return false;
  }

  CachedResponse wire = to_wire(resp, store_);
  if (!send_response(conn, wire, req.request_id)) {
    inc(metrics_->aborted);
    return false;
  }
  inc(metrics_->responses);
  inc(metrics_->served_for(req.tenant));
  if (metrics_->request_us) metrics_->request_us->observe_seconds(elapsed_s(start));

  // Only complete, successful scans are replayable: a partial result
  // (cancel/deadline) or failure is true for *this* request only.
  if (resp.status == svc::QueryStatus::Done && resp.error.empty()) {
    result_cache_.insert(key, wire);
  }
  return true;
}

svc::ScanResponse ScanServer::wait_for_scan(Conn& conn, const svc::Ticket& ticket,
                                            std::uint64_t wire_request_id) {
  const int fd = conn.sock.fd();
  for (;;) {
    if (ticket.response.wait_for(kWaitSlice) == std::future_status::ready) {
      return ticket.response.get();
    }
    if (stop_.load(std::memory_order_relaxed)) {
      service_.cancel(ticket.id);
      return ticket.response.get();  // resolves Cancelled (partial hits kept)
    }
    if (!readable_now(fd)) continue;

    // The client spoke (or hung up) while its scan runs. Parse exactly
    // one frame with the standard malformed ladder, but restricted
    // dispatch: Ping, Cancel, or disconnect — anything else is an error
    // frame back, never a second concurrent scan on this connection.
    std::uint8_t hdr[kFrameHeaderBytes];
    const IoStatus hs = read_exact(fd, hdr, sizeof hdr, &stop_, kPayloadTimeout);
    if (hs != IoStatus::Ok) {
      service_.cancel(ticket.id);
      conn.done.store(true, std::memory_order_relaxed);
      return ticket.response.get();
    }
    FrameHeader header;
    const HeaderStatus ps = parse_frame_header(hdr, header);
    if (ps != HeaderStatus::Ok) {
      bool alive = true;
      switch (ps) {
        case HeaderStatus::BadMagic:
          inc(metrics_->err_bad_magic);
          alive = send_error(conn, 0, ErrorCode::BadMagic, 0, "frame magic mismatch");
          break;
        case HeaderStatus::Oversized:
          inc(metrics_->err_oversized);
          alive = send_error(conn, 0, ErrorCode::Oversized, 0,
                             "declared frame length exceeds limit");
          break;
        case HeaderStatus::BadVersion:
        case HeaderStatus::BadType:
          if (ps == HeaderStatus::BadVersion) {
            inc(metrics_->err_bad_version);
          } else {
            inc(metrics_->err_bad_type);
          }
          alive = header.length == 0 ||
                  discard_exact(fd, header.length, &stop_, kPayloadTimeout) == IoStatus::Ok;
          if (alive) {
            alive = send_error(conn, 0,
                               ps == HeaderStatus::BadVersion ? ErrorCode::BadVersion
                                                              : ErrorCode::BadType,
                               0,
                               ps == HeaderStatus::BadVersion ? "unsupported protocol version"
                                                              : "unknown frame type");
          }
          break;
        case HeaderStatus::Ok: break;
      }
      if (!alive) {
        service_.cancel(ticket.id);
        conn.done.store(true, std::memory_order_relaxed);
        return ticket.response.get();
      }
      continue;
    }
    std::vector<std::uint8_t> payload(header.length);
    if (header.length > 0 &&
        read_exact(fd, payload.data(), header.length, &stop_, kPayloadTimeout) != IoStatus::Ok) {
      service_.cancel(ticket.id);
      conn.done.store(true, std::memory_order_relaxed);
      return ticket.response.get();
    }
    inc(metrics_->frames_in);
    inc(metrics_->bytes_in, kFrameHeaderBytes + header.length);
    if (frame_checksum(payload.data(), payload.size()) != header.checksum) {
      inc(metrics_->err_bad_checksum);
      if (!send_error(conn, 0, ErrorCode::BadChecksum, 0, "payload checksum mismatch")) {
        service_.cancel(ticket.id);
        conn.done.store(true, std::memory_order_relaxed);
        return ticket.response.get();
      }
      continue;
    }
    switch (header.type) {
      case FrameType::Ping:
        inc(metrics_->pings);
        if (!send_frame(conn, FrameType::Pong, payload)) {
          service_.cancel(ticket.id);
          conn.done.store(true, std::memory_order_relaxed);
          return ticket.response.get();
        }
        break;
      case FrameType::Cancel: {
        inc(metrics_->cancels);
        const std::optional<WireCancel> c = decode_cancel(payload);
        // id 0 is a wildcard; a Cancel for some other id is a no-op.
        if (c && (c->request_id == wire_request_id || c->request_id == 0)) {
          service_.cancel(ticket.id);
        }
        break;
      }
      default:
        inc(metrics_->err_bad_request);
        if (!send_error(conn, 0, ErrorCode::BadRequest, 0,
                        "a request is already in flight on this connection")) {
          service_.cancel(ticket.id);
          conn.done.store(true, std::memory_order_relaxed);
          return ticket.response.get();
        }
        break;
    }
  }
}

bool ScanServer::send_frame(Conn& conn, FrameType type, const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = make_frame(type, payload);
  if (write_all(conn.sock.fd(), frame.data(), frame.size()) != IoStatus::Ok) return false;
  inc(metrics_->frames_out);
  inc(metrics_->bytes_out, frame.size());
  return true;
}

bool ScanServer::send_error(Conn& conn, std::uint64_t request_id, ErrorCode code,
                            std::uint32_t retry_ms, const std::string& message) {
  WireError err;
  err.request_id = request_id;
  err.code = code;
  err.retry_after_ms = retry_ms;
  err.message = message;
  return send_frame(conn, FrameType::Error, encode(err));
}

bool ScanServer::send_response(Conn& conn, const CachedResponse& response,
                               std::uint64_t request_id) {
  // Streamed hit-by-hit; the byte stream equals encode_response_bytes()
  // exactly (the parity suite holds both against each other).
  for (WireHit hit : response.hits) {
    hit.request_id = request_id;
    if (!send_frame(conn, FrameType::Hit, encode(hit))) return false;
  }
  WireDone done = response.trailer;
  done.request_id = request_id;
  return send_frame(conn, FrameType::Done, encode(done));
}

}  // namespace swr::svc::net
