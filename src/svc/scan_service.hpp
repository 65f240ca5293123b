// Asynchronous multi-query scan service — the host-side serving layer.
//
// The paper's fig.-7 deployment keeps the database resident and streams
// queries in; SWAPHI- and BioSEAL-style systems show that sustained
// throughput at database scale comes from keeping every execution unit
// busy with *many* queries at once. This service is that layer:
//
//   * a bounded admission queue: submit() hands back a ticket with a
//     future, or rejects outright when `queue_capacity` queries are
//     already live — overload back-pressure instead of unbounded memory;
//   * per-query deadline and cancellation: an expired or cancelled query
//     stops dispatching new work and resolves with whatever partial
//     top-k its finished chunks produced;
//   * a chunk scheduler: each admitted query is split into record-id
//     chunks (slices of the store's length-descending schedule_order, so
//     chunk costs are balanced), and up to `max_inflight` queries' chunks
//     are dispatched concurrently across ALL execution units — CPU
//     scan-engine workers and accelerator board threads draw from the
//     same pool of chunks;
//   * a deterministic merge: chunk results are unioned and finally sorted
//     under host::hit_ranks_before. Because every engine reproduces
//     sw_linear exactly and the order is total, a query's hits are
//     bit-identical to a direct scan_database_cpu / scan_database call no
//     matter which mix of units ran which chunks (tests enforce it).
//
// Lifetime: the service owns its worker threads; the destructor stops
// dispatch, joins, and resolves still-live queries as Cancelled. The
// referenced database (store or vector) must outlive the service.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "align/scoring.hpp"
#include "core/multiboard.hpp"
#include "db/store.hpp"
#include "host/batch.hpp"
#include "host/record_source.hpp"
#include "seq/sequence.hpp"

namespace swr::obs {
class Registry;
class TraceRing;
}

namespace swr::svc {

/// Terminal state of a submitted query.
enum class QueryStatus : std::uint8_t {
  Done,             ///< every chunk scanned; result is the full top-k
  Cancelled,        ///< cancel() or service shutdown; result is partial
  DeadlineExpired,  ///< deadline hit before the last chunk; result is partial
  Failed,           ///< a chunk threw; see error
};

const char* to_string(QueryStatus s) noexcept;

/// Service configuration.
struct ServiceConfig {
  std::size_t cpu_workers = 2;  ///< CPU scan-engine executor threads

  /// Accelerator board executors: one thread per board, each driving one
  /// board that core::make_board_fleet builds at construction (catalog
  /// device, PEs per board, simulation scheduler, optional DMA bus model).
  /// `fleet.boards == 0`, the default, serves on CPU workers only.
  /// @throws (from the constructor) std::invalid_argument on an unknown
  /// device or a PE count that does not fit it.
  core::FleetOptions fleet{.boards = 0};

  std::size_t queue_capacity = 64;  ///< max live (unfinished) queries
  std::size_t max_inflight = 4;     ///< queries dispatched concurrently
  std::size_t chunk_records = 256;  ///< records per dispatch unit

  align::Scoring scoring = align::Scoring::paper_default();

  /// Memory placement for the executor fleet (core/topology.hpp): with an
  /// active plan (auto on a multi-node box, or fake:<spec>), executors are
  /// pinned across nodes proportionally to node cpu counts and every
  /// query's chunk sequence is split into per-node runs — an executor
  /// claims its own node's chunks first and steals across runs only when
  /// its own is dry (svc.numa.local_chunks / svc.numa.remote_chunks).
  /// Hits are bit-identical across modes: the merge sorts the chunk union
  /// under the hit_ranks_before total order regardless of who ran what.
  core::NumaRequest numa;

  /// When true the service admits queries but dispatches nothing until
  /// resume() — deterministic admission-control tests, drain-free
  /// maintenance windows.
  bool start_paused = false;

  /// Observability sink (caller-owned, must outlive the service). nullptr
  /// is a strict no-op. Non-null: the service records svc.* counters
  /// (admitted/rejected/cancelled/deadline_expired/failed/done, chunk and
  /// record/cell totals that reconcile exactly with the resolved
  /// ScanResponses), svc.queue_depth / svc.queries_dispatching gauges and
  /// per-stage latency histograms (admission wait, chunk execution per
  /// unit kind, merge, end-to-end).
  obs::Registry* metrics = nullptr;

  /// Per-query trace-span sink (caller-owned). Every resolved query
  /// records one obs::Span with its stage breakdown; spans over the
  /// ring's slow threshold also land in its slow-query log.
  obs::TraceRing* trace = nullptr;

  /// @throws std::invalid_argument on zero executors / zero capacities.
  void validate() const;
};

/// What a query resolves to.
struct ScanResponse {
  QueryStatus status = QueryStatus::Done;
  host::ScanResult result;  ///< complete for Done, partial otherwise
  std::string error;        ///< Failed: what the chunk threw
  double seconds = 0.0;     ///< admission -> resolution wall time
};

/// Handle to a submitted query.
struct Ticket {
  std::uint64_t id = 0;
  std::shared_future<ScanResponse> response;
};

/// The service. All public methods are thread-safe.
class ScanService {
 public:
  /// Serves scans of a memory-mapped store. Chunks follow the store's
  /// schedule_order, so every chunk gets a balanced length mix.
  ScanService(const db::Store& store, ServiceConfig cfg);

  /// Serves scans of an in-memory record vector (chunks in index order).
  ScanService(const std::vector<seq::Sequence>& records, ServiceConfig cfg);

  /// Stops dispatch, joins workers, resolves live queries as Cancelled.
  ~ScanService();

  ScanService(const ScanService&) = delete;
  ScanService& operator=(const ScanService&) = delete;

  /// Admits a query, or returns nullopt when the admission queue is full.
  /// `opt.threads` is ignored (chunks are the unit of parallelism here);
  /// a zero `deadline` means none. @throws std::invalid_argument on bad
  /// scan options, a query/database alphabet mismatch, or a seeded query
  /// on a service with boards (a board streams every record, so its
  /// chunks cannot honour the filter).
  std::optional<Ticket> try_submit(seq::Sequence query, host::ScanOptions opt,
                                   std::chrono::milliseconds deadline = {});

  /// Like try_submit, but @throws std::runtime_error on a full queue.
  Ticket submit(seq::Sequence query, host::ScanOptions opt,
                std::chrono::milliseconds deadline = {});

  /// Requests cancellation. True if the query was still live (its future
  /// resolves Cancelled, with partial hits once in-flight chunks drain);
  /// false if it already resolved.
  bool cancel(std::uint64_t id);

  /// Starts dispatch after start_paused construction (no-op otherwise).
  void resume();

  /// Live (admitted, unresolved) queries right now.
  [[nodiscard]] std::size_t live() const;

  /// Total queries resolved since construction.
  [[nodiscard]] std::uint64_t resolved() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace swr::svc
