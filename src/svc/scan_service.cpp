#include "svc/scan_service.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "core/topology.hpp"
#include "host/scan_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "retrieve/topk.hpp"

namespace swr::svc {

const char* to_string(QueryStatus s) noexcept {
  switch (s) {
    case QueryStatus::Done: return "done";
    case QueryStatus::Cancelled: return "cancelled";
    case QueryStatus::DeadlineExpired: return "deadline_expired";
    case QueryStatus::Failed: return "failed";
  }
  return "unknown";
}

void ServiceConfig::validate() const {
  if (cpu_workers + fleet.boards == 0) {
    throw std::invalid_argument(
        "ServiceConfig: no execution units (cpu_workers + fleet.boards == 0)");
  }
  if (queue_capacity == 0) throw std::invalid_argument("ServiceConfig: zero queue_capacity");
  if (max_inflight == 0) throw std::invalid_argument("ServiceConfig: zero max_inflight");
  if (chunk_records == 0) throw std::invalid_argument("ServiceConfig: zero chunk_records");
}

namespace {

using Clock = std::chrono::steady_clock;

// One admitted query and everything the scheduler tracks about it. All
// fields are guarded by the service mutex except `query`/`opt`/`ids`,
// which are immutable after admission (executors read them lock-free).
struct QueryState {
  std::uint64_t id = 0;
  seq::Sequence query;
  host::ScanOptions opt;
  Clock::time_point admitted;
  Clock::time_point deadline;  ///< Clock::time_point::max() = none

  std::span<const std::uint32_t> ids;   ///< dispatch order (service-owned)
  std::size_t chunk_records = 1;
  std::size_t chunks_total = 0;
  // Per-node chunk runs (one run covering everything when placement is
  // off): node_lo bounds the runs, node_next is each run's first
  // undispatched offset, chunks_dispatched the total claimed so far.
  std::vector<std::size_t> node_lo;    ///< size nodes+1
  std::vector<std::size_t> node_next;  ///< size nodes
  std::size_t chunks_dispatched = 0;
  std::size_t chunks_done = 0;  ///< folded chunks (dispatched or skipped)
  std::size_t inflight = 0;     ///< chunks/phases executing right now

  // Alignment retrieval phase (ScanOptions::align). The per-chunk opt has
  // align stripped — chunks stay score-only; once every chunk has folded,
  // one executor claims the traceback phase and re-aligns the merged
  // ranking through host::retrieve_alignments.
  bool align_requested = false;
  bool traceback_claimed = false;
  double traceback_seconds = 0.0;

  // Stage timing for the trace span / histograms; all mutated under the
  // service mutex.
  bool dispatched = false;
  Clock::time_point first_dispatch;
  Clock::time_point last_fold;
  double exec_cpu_seconds = 0.0;    ///< summed CPU chunk execution
  double exec_board_seconds = 0.0;  ///< summed board chunk execution

  host::ScanResult acc;  ///< hits = unsorted union of chunk top-ks
  // atomic: the traceback phase polls it lock-free as its stop signal
  // while cancel()/deadline handling write it under the service mutex.
  std::atomic<bool> aborted{false};
  QueryStatus abort_reason = QueryStatus::Cancelled;
  std::string error;
  std::promise<ScanResponse> promise;
};

// Metric handles fetched once at service construction (registry lookups
// lock; the scheduler must not). Null throughout when cfg.metrics is null,
// so the disabled path costs a pointer test per event.
struct ServiceMetrics {
  obs::Counter* admitted = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* done = nullptr;
  obs::Counter* cancelled = nullptr;
  obs::Counter* deadline_expired = nullptr;
  obs::Counter* failed = nullptr;
  obs::Counter* chunks_cpu = nullptr;
  obs::Counter* chunks_board = nullptr;
  obs::Counter* tracebacks = nullptr;
  obs::Counter* records = nullptr;
  obs::Counter* cells = nullptr;
  obs::Counter* fallbacks = nullptr;
  obs::Gauge* queue_depth = nullptr;
  obs::Gauge* dispatching = nullptr;
  obs::Histogram* admission_wait_us = nullptr;
  obs::Histogram* chunk_cpu_us = nullptr;
  obs::Histogram* chunk_board_us = nullptr;
  obs::Histogram* merge_us = nullptr;
  obs::Histogram* traceback_us = nullptr;
  obs::Histogram* query_us = nullptr;
  // Placement handles, fetched only when the NUMA plan resolved active so
  // a placement-off service never pays the extra registry lookups.
  obs::Gauge* numa_nodes = nullptr;
  obs::Counter* numa_local_chunks = nullptr;
  obs::Counter* numa_remote_chunks = nullptr;

  ServiceMetrics(obs::Registry* reg, bool numa_active) {
    if (reg == nullptr) return;
    if (numa_active) {
      numa_nodes = &reg->gauge("svc.numa.nodes");
      numa_local_chunks = &reg->counter("svc.numa.local_chunks");
      numa_remote_chunks = &reg->counter("svc.numa.remote_chunks");
    }
    admitted = &reg->counter("svc.queries_admitted");
    rejected = &reg->counter("svc.queries_rejected");
    done = &reg->counter("svc.queries_done");
    cancelled = &reg->counter("svc.queries_cancelled");
    deadline_expired = &reg->counter("svc.queries_deadline_expired");
    failed = &reg->counter("svc.queries_failed");
    chunks_cpu = &reg->counter("svc.chunks_cpu");
    chunks_board = &reg->counter("svc.chunks_board");
    tracebacks = &reg->counter("svc.tracebacks");
    records = &reg->counter("svc.records_scanned");
    cells = &reg->counter("svc.cells");
    fallbacks = &reg->counter("svc.swar8_fallbacks");
    queue_depth = &reg->gauge("svc.queue_depth");
    dispatching = &reg->gauge("svc.queries_dispatching");
    admission_wait_us = &reg->histogram("svc.admission_wait_us");
    chunk_cpu_us = &reg->histogram("svc.chunk_cpu_us");
    chunk_board_us = &reg->histogram("svc.chunk_board_us");
    merge_us = &reg->histogram("svc.merge_us");
    traceback_us = &reg->histogram("svc.traceback_us");
    query_us = &reg->histogram("svc.query_us");
  }

  [[nodiscard]] bool on() const noexcept { return admitted != nullptr; }
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

struct ScanService::Impl {
  // -- immutable after construction ---------------------------------------
  ServiceConfig cfg;
  host::RecordSource source;
  // Placement plan (nullopt = off): executor unit i (cpu workers first,
  // then boards) runs pinned to placement[i]'s node; node_weights counts
  // executors per node ({all-units} when off) and weights each query's
  // per-node chunk runs.
  std::optional<core::Topology> topo;
  ServiceMetrics metrics;
  std::vector<core::WorkerPlacement> placement;
  std::vector<std::size_t> node_weights;
  std::vector<std::uint32_t> dispatch_order;  ///< what QueryState::ids views
  core::BoardFleet boards;  ///< board b belongs to board executor thread b
  std::vector<std::thread> threads;

  // -- scheduler state, guarded by mu -------------------------------------
  mutable std::mutex mu;
  std::condition_variable cv;
  bool paused = false;
  // atomic for the same reason as QueryState::aborted: the traceback
  // phase's stop poll reads it outside the mutex.
  std::atomic<bool> stopping{false};
  std::uint64_t next_id = 1;
  std::uint64_t resolved_count = 0;
  std::deque<std::shared_ptr<QueryState>> waiting;          ///< admitted, FIFO
  std::vector<std::shared_ptr<QueryState>> active;          ///< dispatching
  std::unordered_map<std::uint64_t, std::shared_ptr<QueryState>> live;

  template <typename Db>
  Impl(const Db& database, ServiceConfig config)
      : cfg(config),
        source(database),
        topo(core::resolve_numa_topology(config.numa)),
        metrics(config.metrics, topo.has_value()) {
    cfg.validate();
    cfg.scoring.validate();
    // Boards are built here, before any executor starts, so an unknown
    // device or a PE count that does not fit throws from the constructor.
    if (cfg.fleet.boards > 0) {
      boards = core::make_board_fleet(cfg.fleet, cfg.scoring);
      for (const auto& board : boards) board->bind_bus_metrics(cfg.metrics);
    }
    paused = cfg.start_paused;

    // The dispatch permutation all queries chunk over: the store's
    // length-descending schedule order when there is one, record order
    // otherwise. A slice of it is a balanced unit of work either way.
    dispatch_order.resize(source.size());
    if constexpr (std::is_same_v<Db, db::Store>) {
      const auto order = database.schedule_order();
      dispatch_order.assign(order.begin(), order.end());
    } else {
      std::iota(dispatch_order.begin(), dispatch_order.end(), 0u);
    }

    // Every execution unit (CPU + board) is a placement unit: boards
    // materialize records out of the same payload the CPU kernels stream,
    // so both kinds prefer node-local chunks.
    const std::size_t units = cfg.cpu_workers + boards.size();
    if (topo.has_value()) {
      placement = core::place_workers(*topo, units);
      node_weights.assign(topo->nodes.size(), 0);
      for (const core::WorkerPlacement& p : placement) ++node_weights[p.node];
    } else {
      node_weights.assign(1, units);
    }
    if (metrics.numa_nodes != nullptr) {
      metrics.numa_nodes->set(static_cast<std::int64_t>(node_weights.size()));
    }

    threads.reserve(units);
    for (std::size_t t = 0; t < cfg.cpu_workers; ++t) {
      threads.emplace_back([this, t] {
        core::set_current_thread_name(("swr-svc-cpu" + std::to_string(t)).c_str());
        std::size_t node = 0;
        if (!placement.empty()) {
          core::pin_current_thread(placement[t].cpus);
          node = placement[t].node;
        }
        executor_loop(/*board=*/nullptr, node);
      });
    }
    for (std::size_t b = 0; b < boards.size(); ++b) {
      const std::size_t unit = cfg.cpu_workers + b;
      threads.emplace_back([this, b, unit] {
        core::set_current_thread_name(("swr-svc-brd" + std::to_string(b)).c_str());
        std::size_t node = 0;
        if (!placement.empty()) {
          core::pin_current_thread(placement[unit].cpus);
          node = placement[unit].node;
        }
        executor_loop(boards[b].get(), node);
      });
    }
  }

  // Per-node chunk run bounds for one query: chunks_total split
  // proportionally to each node's executor count. One run covering every
  // chunk when placement is off — claims then walk 0,1,2,... exactly like
  // the placement-blind dispatcher.
  [[nodiscard]] std::vector<std::size_t> chunk_run_bounds(std::size_t chunks_total) const {
    const std::vector<std::size_t> runs = core::proportional_shares(chunks_total, node_weights);
    std::vector<std::size_t> bounds(node_weights.size() + 1, 0);
    for (std::size_t n = 0; n < runs.size(); ++n) bounds[n + 1] = bounds[n] + runs[n];
    return bounds;
  }

  // Claims the next chunk for an executor on `node`: its own node's run
  // first, then steals from the other runs in rotation. `local` reports
  // which happened (the svc.numa.local/remote_chunks split). Pre:
  // q.chunks_dispatched < q.chunks_total.
  static std::size_t claim_chunk_locked(QueryState& q, std::size_t node, bool& local) {
    const std::size_t nodes = q.node_next.size();
    for (std::size_t k = 0; k < nodes; ++k) {
      const std::size_t n = (node + k) % nodes;
      if (q.node_next[n] < q.node_lo[n + 1] - q.node_lo[n]) {
        local = k == 0;
        return q.node_lo[n] + q.node_next[n]++;
      }
    }
    throw std::logic_error("ScanService: claim_chunk_locked on a fully dispatched query");
  }

  ~Impl() {
    {
      const std::lock_guard<std::mutex> lock(mu);
      stopping = true;
    }
    cv.notify_all();
    for (std::thread& t : threads) t.join();
    // Workers folded their in-flight chunks before exiting; whatever is
    // still live resolves as Cancelled with its partial top-k.
    const std::lock_guard<std::mutex> lock(mu);
    waiting.clear();
    active.clear();
    while (!live.empty()) {
      const std::shared_ptr<QueryState> q = live.begin()->second;
      q->aborted = true;
      q->abort_reason = QueryStatus::Cancelled;
      resolve_locked(*q);
    }
  }

  // -- scheduling ----------------------------------------------------------

  // True when some executor has something to do right now: a chunk to
  // dispatch, a query to promote, or an aborted query whose in-flight
  // chunks have drained and which only needs resolving. An aborted query
  // with chunks still in flight is NOT dispatchable — the executor
  // finishing its last chunk resolves it (returning true there would spin
  // the other executors).
  [[nodiscard]] bool dispatchable_locked() const {
    if (paused) return false;
    if (!waiting.empty() && active.size() < cfg.max_inflight) return true;
    for (const auto& q : active) {
      if (q->aborted) {
        if (q->inflight == 0) return true;
        continue;
      }
      if (q->chunks_dispatched < q->chunks_total) return true;
      if (traceback_pending_locked(*q)) return true;
    }
    return false;
  }

  // A query whose every chunk has folded but whose --align retrieval
  // phase has not been claimed yet — the last dispatch unit of its life.
  [[nodiscard]] static bool traceback_pending_locked(const QueryState& q) {
    return !q.aborted && q.chunks_done == q.chunks_total && q.align_requested &&
           !q.traceback_claimed;
  }

  // Removes q from live/active, seals its result and fulfils the promise.
  // The hits union is sorted under the total order and trimmed here —
  // the step that makes the multi-unit execution deterministic.
  void resolve_locked(QueryState& q) {
    const Clock::time_point merge_start = Clock::now();
    std::sort(q.acc.hits.begin(), q.acc.hits.end(), host::hit_ranks_before);
    if (q.acc.hits.size() > q.opt.top_k) q.acc.hits.resize(q.opt.top_k);
    const Clock::time_point now = Clock::now();
    ScanResponse resp;
    resp.status = q.aborted ? q.abort_reason : QueryStatus::Done;
    resp.error = std::move(q.error);
    resp.seconds = seconds_between(q.admitted, now);
    observe_resolution_locked(q, resp.status, seconds_between(merge_start, now), resp.seconds);
    resp.result = std::move(q.acc);
    // The erases below may drop the only shared_ptr owning q.
    const std::shared_ptr<QueryState> keep = live.at(q.id);
    ++resolved_count;
    live.erase(q.id);
    std::erase_if(active, [&](const auto& p) { return p->id == q.id; });
    std::erase_if(waiting, [&](const auto& p) { return p->id == q.id; });
    if (metrics.on()) {
      metrics.queue_depth->set(static_cast<std::int64_t>(live.size()));
      metrics.dispatching->set(static_cast<std::int64_t>(active.size()));
    }
    // Fulfilling the promise is the client-visible linearisation point: a
    // caller returning from get() on the last outstanding query must already
    // observe the at-rest gauges, so set_value comes after the bookkeeping.
    q.promise.set_value(std::move(resp));
    cv.notify_all();  // an inflight slot freed — promote the next query
  }

  // Counters, stage histograms and the trace span for one resolving query.
  // Called under mu while q.acc still holds the folded totals, so the
  // svc.* counters reconcile exactly with the ScanResponses handed out.
  void observe_resolution_locked(QueryState& q, QueryStatus status, double merge_seconds,
                                 double total_seconds) {
    // A query that never dispatched waited in the queue its whole life.
    const double admission_wait =
        q.dispatched ? seconds_between(q.admitted, q.first_dispatch) : total_seconds;
    if (metrics.on()) {
      switch (status) {
        case QueryStatus::Done: metrics.done->add(1); break;
        case QueryStatus::Cancelled: metrics.cancelled->add(1); break;
        case QueryStatus::DeadlineExpired: metrics.deadline_expired->add(1); break;
        case QueryStatus::Failed: metrics.failed->add(1); break;
      }
      metrics.records->add(q.acc.records_scanned);
      metrics.cells->add(q.acc.cell_updates);
      metrics.fallbacks->add(q.acc.swar8_fallbacks);
      metrics.admission_wait_us->observe_seconds(admission_wait);
      metrics.merge_us->observe_seconds(merge_seconds);
      metrics.query_us->observe_seconds(total_seconds);
    }
    if (cfg.trace != nullptr) {
      obs::Span span;
      span.query_id = q.id;
      span.status = to_string(status);
      span.admission_wait = admission_wait;
      span.dispatch_window = q.dispatched ? seconds_between(q.first_dispatch, q.last_fold) : 0.0;
      span.exec_cpu = q.exec_cpu_seconds;
      span.exec_board = q.exec_board_seconds;
      span.merge = merge_seconds;
      span.traceback = q.traceback_seconds;
      span.total = total_seconds;
      span.chunks = static_cast<std::uint32_t>(q.chunks_done);
      cfg.trace->record(span);
    }
  }

  // One executor thread: CPU scan-engine worker (board == nullptr) or a
  // board driver. Both draw chunks from the same scheduler, so a free
  // board accelerates CPU-bound traffic and vice versa.
  void executor_loop(core::SmithWatermanAccelerator* board, std::size_t node) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return stopping || dispatchable_locked(); });
      if (stopping) return;

      // Promote waiting queries into the dispatch set.
      while (!waiting.empty() && active.size() < cfg.max_inflight) {
        active.push_back(waiting.front());
        waiting.pop_front();
      }
      if (metrics.on()) metrics.dispatching->set(static_cast<std::int64_t>(active.size()));

      // First active query with work. Aborted queries only need their
      // bookkeeping finished; expired deadlines become aborts here.
      std::shared_ptr<QueryState> q;
      std::shared_ptr<QueryState> tb;
      for (const auto& cand : active) {
        if (cand->aborted && cand->inflight == 0) {
          resolve_locked(*cand);
          break;  // active mutated; rescan from the top
        }
        if (cand->aborted) continue;
        if (traceback_pending_locked(*cand)) {
          if (Clock::now() >= cand->deadline) {
            cand->aborted = true;
            cand->abort_reason = QueryStatus::DeadlineExpired;
            if (cand->inflight == 0) resolve_locked(*cand);
            break;
          }
          tb = cand;
          break;
        }
        if (cand->chunks_dispatched >= cand->chunks_total) continue;
        if (Clock::now() >= cand->deadline) {
          cand->aborted = true;
          cand->abort_reason = QueryStatus::DeadlineExpired;
          if (cand->inflight == 0) resolve_locked(*cand);
          break;
        }
        q = cand;
        break;
      }
      if (tb) {
        run_traceback(lock, tb);
        continue;
      }
      if (!q) continue;  // state changed under us; re-evaluate predicate

      bool local = true;
      const std::size_t chunk = claim_chunk_locked(*q, node, local);
      ++q->chunks_dispatched;
      if (metrics.numa_local_chunks != nullptr) {
        (local ? metrics.numa_local_chunks : metrics.numa_remote_chunks)->add(1);
      }
      ++q->inflight;
      if (!q->dispatched) {
        q->dispatched = true;
        q->first_dispatch = Clock::now();
      }
      const std::size_t lo = chunk * q->chunk_records;
      const std::size_t hi = std::min(q->ids.size(), lo + q->chunk_records);
      lock.unlock();

      const Clock::time_point exec_start = Clock::now();
      host::ScanResult part;
      std::string error;
      try {
        const std::span<const std::uint32_t> chunk_ids = q->ids.subspan(lo, hi - lo);
        part = board != nullptr
                   ? host::scan_records_board(*board, q->query, source, chunk_ids, q->opt)
                   : host::scan_records_cpu(q->query, source, chunk_ids, cfg.scoring, q->opt);
      } catch (const std::exception& e) {
        error = e.what();
      }
      const double exec_seconds = seconds_between(exec_start, Clock::now());
      if (metrics.on()) {
        (board != nullptr ? metrics.chunks_board : metrics.chunks_cpu)->add(1);
        (board != nullptr ? metrics.chunk_board_us : metrics.chunk_cpu_us)
            ->observe_seconds(exec_seconds);
      }

      lock.lock();
      --q->inflight;
      ++q->chunks_done;
      q->last_fold = Clock::now();
      (board != nullptr ? q->exec_board_seconds : q->exec_cpu_seconds) += exec_seconds;
      if (!error.empty() && !q->aborted) {
        q->aborted = true;
        q->abort_reason = QueryStatus::Failed;
        q->error = error;
      }
      fold(q->acc, part);
      // With --align the last folded chunk does NOT finish the query: the
      // traceback phase still has to run (dispatchable_locked now reports
      // it pending and some executor — maybe this one — will claim it).
      const bool finished = q->aborted
                                ? q->inflight == 0
                                : (q->chunks_done == q->chunks_total && !q->align_requested);
      if (finished && live.count(q->id) != 0) resolve_locked(*q);
    }
  }

  // The --align retrieval phase: entered under `lock` with the phase
  // claim-able, leaves the lock held. Chunk results are already all
  // folded, so this executor owns q->acc until it re-locks; cancel(),
  // deadline expiry and service shutdown interrupt it between hits via
  // the lock-free stop poll (they set flags but never touch q->acc while
  // q->inflight > 0).
  void run_traceback(std::unique_lock<std::mutex>& lock, const std::shared_ptr<QueryState>& q) {
    q->traceback_claimed = true;
    ++q->inflight;
    // The union becomes the final ranking now, so the traceback walks it
    // in rank order and alignments[h] is glued to hits[h]. The order is
    // total, so resolve_locked's later sort cannot reorder it.
    retrieve::topk_finalize(q->acc.hits, q->opt.top_k, host::hit_ranks_before);
    lock.unlock();

    host::ScanOptions opt = q->opt;
    opt.align = true;
    opt.metrics = cfg.metrics;  // retrieve.* records once per query, not per chunk
    const QueryState* qs = q.get();
    const auto should_stop = [this, qs] {
      return stopping.load(std::memory_order_relaxed) ||
             qs->aborted.load(std::memory_order_relaxed) || Clock::now() >= qs->deadline;
    };
    const Clock::time_point start = Clock::now();
    std::string error;
    try {
      host::retrieve_alignments(q->query, source, cfg.scoring, opt, q->acc, should_stop);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double seconds = seconds_between(start, Clock::now());
    if (metrics.on()) {
      metrics.tracebacks->add(1);
      metrics.traceback_us->observe_seconds(seconds);
    }

    lock.lock();
    --q->inflight;
    q->traceback_seconds = seconds;
    q->last_fold = Clock::now();
    if (!error.empty() && !q->aborted) {
      q->aborted = true;
      q->abort_reason = QueryStatus::Failed;
      q->error = error;
    }
    // A stop poll that fired mid-phase left a truncated alignment list;
    // surface it exactly like an interruption during chunk dispatch.
    const std::size_t expect = q->opt.max_hits == 0
                                   ? q->acc.hits.size()
                                   : std::min(q->opt.max_hits, q->acc.hits.size());
    if (!q->aborted && q->acc.alignments.size() < expect) {
      q->aborted = true;
      q->abort_reason =
          Clock::now() >= q->deadline ? QueryStatus::DeadlineExpired : QueryStatus::Cancelled;
    }
    if (q->inflight == 0 && live.count(q->id) != 0) resolve_locked(*q);
  }

  static void fold(host::ScanResult& acc, host::ScanResult& part) {
    acc.records_scanned += part.records_scanned;
    acc.cell_updates += part.cell_updates;
    acc.swar8_fallbacks += part.swar8_fallbacks;
    acc.board_seconds += part.board_seconds;
    acc.board_cycles += part.board_cycles;
    acc.filter_candidates += part.filter_candidates;
    acc.filter_rescored += part.filter_rescored;
    acc.filter_rejected += part.filter_rejected;
    acc.filter_recall_guard += part.filter_recall_guard;
    acc.hits.insert(acc.hits.end(), std::make_move_iterator(part.hits.begin()),
                    std::make_move_iterator(part.hits.end()));
  }
};

ScanService::ScanService(const db::Store& store, ServiceConfig cfg)
    : impl_(std::make_unique<Impl>(store, std::move(cfg))) {}

ScanService::ScanService(const std::vector<seq::Sequence>& records, ServiceConfig cfg)
    : impl_(std::make_unique<Impl>(records, std::move(cfg))) {}

ScanService::~ScanService() = default;

std::optional<Ticket> ScanService::try_submit(seq::Sequence query, host::ScanOptions opt,
                                              std::chrono::milliseconds deadline) {
  opt.threads = 1;     // chunks are the unit of parallelism in the service
  opt.metrics = nullptr;  // service-level metrics come from cfg.metrics, not per-chunk scan.*
  opt.validate();
  impl_->source.check_alphabet(query, "ScanService::submit");
  if (opt.filter == host::FilterMode::Seeded && !impl_->boards.empty()) {
    throw std::invalid_argument(
        "ScanService::submit: --filter seeded runs on CPU workers only; this service has "
        "board executors, which stream every record");
  }

  auto q = std::make_shared<QueryState>();
  q->query = std::move(query);
  // Chunks never retrieve: align is hoisted out of the per-chunk options
  // into a dedicated post-merge phase (run_traceback).
  q->align_requested = opt.align;
  opt.align = false;
  q->opt = opt;
  q->admitted = Clock::now();
  q->deadline = deadline.count() > 0 ? q->admitted + deadline : Clock::time_point::max();
  q->ids = impl_->dispatch_order;
  q->chunk_records = impl_->cfg.chunk_records;
  q->chunks_total = (q->ids.size() + q->chunk_records - 1) / q->chunk_records;
  q->node_lo = impl_->chunk_run_bounds(q->chunks_total);
  q->node_next.assign(q->node_lo.size() - 1, 0);

  Ticket ticket;
  ticket.response = q->promise.get_future().share();
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->live.size() >= impl_->cfg.queue_capacity) {
      if (impl_->metrics.on()) impl_->metrics.rejected->add(1);
      return std::nullopt;
    }
    q->id = impl_->next_id++;
    ticket.id = q->id;
    if (impl_->metrics.on()) impl_->metrics.admitted->add(1);
    if (q->chunks_total == 0) {
      // Zero-record database: resolve inline, nothing to dispatch.
      impl_->live.emplace(q->id, q);
      impl_->resolve_locked(*q);
      return ticket;
    }
    impl_->live.emplace(q->id, q);
    impl_->waiting.push_back(std::move(q));
    if (impl_->metrics.on()) {
      impl_->metrics.queue_depth->set(static_cast<std::int64_t>(impl_->live.size()));
    }
  }
  impl_->cv.notify_all();
  return ticket;
}

Ticket ScanService::submit(seq::Sequence query, host::ScanOptions opt,
                           std::chrono::milliseconds deadline) {
  auto t = try_submit(std::move(query), opt, deadline);
  if (!t) throw std::runtime_error("ScanService::submit: admission queue full");
  return *std::move(t);
}

bool ScanService::cancel(std::uint64_t id) {
  std::shared_ptr<QueryState> to_resolve;
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    const auto it = impl_->live.find(id);
    if (it == impl_->live.end()) return false;
    const std::shared_ptr<QueryState>& q = it->second;
    q->aborted = true;
    q->abort_reason = QueryStatus::Cancelled;
    if (q->inflight == 0) {
      to_resolve = q;
      impl_->resolve_locked(*to_resolve);
    }
    // else: the executor folding the last in-flight chunk resolves it.
  }
  impl_->cv.notify_all();
  return true;
}

void ScanService::resume() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->paused = false;
  }
  impl_->cv.notify_all();
}

std::size_t ScanService::live() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->live.size();
}

std::uint64_t ScanService::resolved() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->resolved_count;
}

}  // namespace swr::svc
