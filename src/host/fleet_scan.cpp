#include "host/fleet_scan.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "host/record_source.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "retrieve/topk.hpp"

namespace swr::host {
namespace {

// Deals records to boards: walk the length-descending schedule (the
// store's precomputed schedule_order; vector sources sort an index
// permutation the same way) and hand each record to the currently
// least-loaded board, load measured in residues. Longest-processing-time
// dealing keeps per-board work balanced on length-skewed databases, where
// the old index round-robin could pile every long record onto one board.
// The merge below is a total order over the union of per-board top-ks, so
// the hit set is invariant to the assignment — parity with the round-robin
// deal is asserted by tests, not assumed.
std::vector<std::vector<std::uint32_t>> deal_records(const RecordSource& src,
                                                     std::size_t num_boards) {
  std::vector<std::uint32_t> order(src.schedule_order().begin(), src.schedule_order().end());
  if (order.empty()) {
    order.resize(src.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&src](std::uint32_t a, std::uint32_t b) {
      return src.length(a) > src.length(b);
    });
  }
  std::vector<std::vector<std::uint32_t>> shares(num_boards);
  std::vector<std::uint64_t> load(num_boards, 0);
  for (const std::uint32_t r : order) {
    std::size_t lightest = 0;
    for (std::size_t b = 1; b < num_boards; ++b) {
      if (load[b] < load[lightest]) lightest = b;  // tie -> lowest index
    }
    shares[lightest].push_back(r);
    load[lightest] += src.length(r);
  }
  return shares;
}

ScanResult scan_fleet_source(core::BoardFleet& fleet, const seq::Sequence& query,
                             const RecordSource& src, const ScanOptions& opt) {
  if (fleet.empty()) throw std::invalid_argument("scan_database_fleet: empty fleet");
  opt.validate();
  src.check_alphabet(query, "scan_database_fleet");

  // Each accelerator is stateful, so a board is the unit of parallelism:
  // with opt.threads > 1 every pool worker drives whole boards. Each board
  // scores its dealt share (least-loaded over the length-descending
  // schedule) through the one board record loop into a private top-k,
  // and the final merge is a total order, so hits are bit-identical to
  // the sequential fleet scan and to scan_database.
  const std::vector<std::vector<std::uint32_t>> shares = deal_records(src, fleet.size());
  std::vector<ScanResult> partials(fleet.size());
  const auto scan_share = [&](std::size_t b) {
    partials[b] = scan_records_board(*fleet[b], query, src, shares[b], opt);
  };
  const std::size_t threads = std::min(opt.threads, fleet.size());
  if (threads <= 1) {
    for (std::size_t b = 0; b < fleet.size(); ++b) scan_share(b);
  } else {
    std::mutex err_mu;
    std::exception_ptr first_error;
    par::ThreadPoolOptions popts;
    popts.name_prefix = "swr-fleet";
    par::ThreadPool pool(threads, std::move(popts));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(fleet.size());
    for (std::size_t b = 0; b < fleet.size(); ++b) {
      tasks.emplace_back([&, b] {
        try {
          scan_share(b);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    pool.submit_bulk(std::move(tasks));
    pool.wait_idle();
    if (first_error) std::rethrow_exception(first_error);
  }

  ScanResult out;
  out.records_scanned = src.size();
  double busiest = 0.0;
  for (ScanResult& p : partials) {
    out.cell_updates += p.cell_updates;
    out.board_cycles += p.board_cycles;
    busiest = std::max(busiest, p.board_seconds);
    retrieve::topk_union(out.hits, std::move(p.hits));
  }
  retrieve::topk_finalize(out.hits, opt.top_k, hit_ranks_before);
  // Boards run in parallel: the fleet finishes with its busiest member.
  out.board_seconds = busiest;
  if (opt.metrics != nullptr) {
    opt.metrics->counter("fleet.scans").add(1);
    opt.metrics->counter("fleet.records").add(out.records_scanned);
    opt.metrics->counter("fleet.cells").add(out.cell_updates);
    obs::Histogram& board_us = opt.metrics->histogram("fleet.board_modelled_us");
    for (const ScanResult& p : partials) board_us.observe_seconds(p.board_seconds);
  }
  // Retrieval replays against the scheme the boards scored with — every
  // board in a fleet shares one synthesis, so board 0 speaks for all.
  retrieve_alignments(query, src, fleet[0]->scoring(), opt, out);
  return out;
}

}  // namespace

ScanResult scan_database_fleet(core::BoardFleet& fleet, const seq::Sequence& query,
                               const std::vector<seq::Sequence>& records,
                               const ScanOptions& opt) {
  return scan_fleet_source(fleet, query, RecordSource(records), opt);
}

ScanResult scan_database_fleet(core::BoardFleet& fleet, const seq::Sequence& query,
                               const db::Store& store, const ScanOptions& opt) {
  return scan_fleet_source(fleet, query, RecordSource(store), opt);
}

}  // namespace swr::host
