// Alignment retrieval through svc::ScanService: the traceback phase runs
// once per query after the last chunk folds, produces the same verified
// transcripts as a direct scan for every chunk size and executor mix,
// respects --max-hits, and yields cleanly to cancellation and deadlines.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "align/cigar.hpp"
#include "db/builder.hpp"
#include "db/store.hpp"
#include "host/scan_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seq/mutate.hpp"
#include "seq/random.hpp"
#include "svc/scan_service.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace std::chrono_literals;

struct AlignDb {
  seq::Sequence query;
  std::vector<seq::Sequence> records;

  explicit AlignDb(std::uint64_t seed) {
    seq::RandomSequenceGenerator gen(seed);
    query = gen.uniform(seq::dna(), 100, "q");
    for (int r = 0; r < 50; ++r) {
      seq::Sequence rec = gen.uniform(seq::dna(), 60 + 29 * (r % 7), "rec" + std::to_string(r));
      if (r % 7 == 2) rec.append(seq::point_mutate(query, 0.03 + 0.02 * (r % 4), gen.engine()));
      records.push_back(std::move(rec));
    }
  }
};

db::Store open_store(const std::vector<seq::Sequence>& recs, const std::string& leaf) {
  const std::string path = testing::TempDir() + "/" + leaf;
  db::build_store(recs, path);
  return db::Store::open(path);
}

host::ScanOptions align_opt() {
  host::ScanOptions opt;
  opt.top_k = 8;
  opt.min_score = 40;
  opt.align = true;
  return opt;
}

void expect_same_aligned_result(const host::ScanResult& got, const host::ScanResult& want,
                                const std::string& what) {
  ASSERT_EQ(got.hits.size(), want.hits.size()) << what;
  for (std::size_t k = 0; k < got.hits.size(); ++k) {
    EXPECT_EQ(got.hits[k].record, want.hits[k].record) << what << " hit " << k;
    EXPECT_EQ(got.hits[k].result, want.hits[k].result) << what << " hit " << k;
  }
  ASSERT_EQ(got.alignments.size(), want.alignments.size()) << what;
  for (std::size_t k = 0; k < got.alignments.size(); ++k) {
    EXPECT_EQ(got.alignments[k].alignment.begin, want.alignments[k].alignment.begin)
        << what << " alignment " << k;
    EXPECT_EQ(got.alignments[k].alignment.end, want.alignments[k].alignment.end)
        << what << " alignment " << k;
    EXPECT_EQ(got.alignments[k].alignment.cigar.to_string(),
              want.alignments[k].alignment.cigar.to_string())
        << what << " alignment " << k;
  }
}

TEST(ServiceAlign, ResolvesWithVerifiedTranscripts) {
  const AlignDb db(6100);
  const db::Store store = open_store(db.records, "svc_align.swdb");
  obs::Registry reg;
  svc::ServiceConfig cfg;
  cfg.cpu_workers = 2;
  cfg.metrics = &reg;
  svc::ScanService service(store, cfg);

  const svc::ScanResponse resp = service.submit(db.query, align_opt()).response.get();
  ASSERT_EQ(resp.status, svc::QueryStatus::Done) << resp.error;
  ASSERT_FALSE(resp.result.hits.empty());
  ASSERT_EQ(resp.result.alignments.size(), resp.result.hits.size());
  for (std::size_t k = 0; k < resp.result.alignments.size(); ++k) {
    const retrieve::Traceback& tb = resp.result.alignments[k];
    const host::Hit& h = resp.result.hits[k];
    EXPECT_EQ(tb.alignment.score, h.result.score) << "hit " << k;
    EXPECT_EQ(align::score_of(tb.alignment.cigar, db.records[h.record], db.query,
                              tb.alignment.begin, align::Scoring{}),
              h.result.score)
        << "hit " << k;
  }
  // One traceback phase ran, and the retrieval layer accounted each hit.
  EXPECT_EQ(reg.counter("svc.tracebacks").value(), 1u);
  EXPECT_EQ(reg.counter("retrieve.hits").value(), resp.result.alignments.size());
  EXPECT_EQ(reg.histogram("svc.traceback_us").count(), 1u);
}

TEST(ServiceAlign, ChunkSizesAndBoardsMatchTheDirectScan) {
  const AlignDb db(6101);
  const db::Store store = open_store(db.records, "svc_align_chunks.swdb");
  const host::ScanOptions opt = align_opt();
  const host::ScanResult direct = host::scan_database_cpu(db.query, store, align::Scoring{}, opt);
  ASSERT_FALSE(direct.hits.empty());

  for (const std::size_t chunk : {std::size_t{5}, std::size_t{24}, std::size_t{1000}}) {
    for (const std::size_t boards : {std::size_t{0}, std::size_t{1}}) {
      svc::ServiceConfig cfg;
      cfg.cpu_workers = 3;
      cfg.fleet.boards = boards;
      cfg.chunk_records = chunk;
      svc::ScanService service(store, cfg);
      const svc::ScanResponse resp = service.submit(db.query, opt).response.get();
      ASSERT_EQ(resp.status, svc::QueryStatus::Done) << resp.error;
      expect_same_aligned_result(resp.result, direct,
                                 "chunk " + std::to_string(chunk) + " boards " +
                                     std::to_string(boards));
    }
  }
}

TEST(ServiceAlign, MaxHitsCapsTheTracebackPhase) {
  const AlignDb db(6102);
  const db::Store store = open_store(db.records, "svc_align_cap.swdb");
  svc::ServiceConfig cfg;
  svc::ScanService service(store, cfg);

  host::ScanOptions opt = align_opt();
  opt.max_hits = 2;
  const svc::ScanResponse resp = service.submit(db.query, opt).response.get();
  ASSERT_EQ(resp.status, svc::QueryStatus::Done) << resp.error;
  ASSERT_GE(resp.result.hits.size(), 3u);  // ranking stays the full top-k
  EXPECT_EQ(resp.result.alignments.size(), 2u);
}

TEST(ServiceAlign, CancelBeforeDispatchYieldsNoAlignments) {
  const AlignDb db(6103);
  const db::Store store = open_store(db.records, "svc_align_cancel.swdb");
  svc::ServiceConfig cfg;
  cfg.start_paused = true;
  svc::ScanService service(store, cfg);

  const svc::Ticket t = service.submit(db.query, align_opt());
  EXPECT_TRUE(service.cancel(t.id));
  const svc::ScanResponse resp = t.response.get();
  EXPECT_EQ(resp.status, svc::QueryStatus::Cancelled);
  EXPECT_TRUE(resp.result.alignments.empty());
  service.resume();
}

TEST(ServiceAlign, ExpiredDeadlineResolvesWithoutTraceback) {
  const AlignDb db(6104);
  const db::Store store = open_store(db.records, "svc_align_deadline.swdb");
  svc::ServiceConfig cfg;
  cfg.start_paused = true;
  svc::ScanService service(store, cfg);

  const svc::Ticket t = service.submit(db.query, align_opt(), 1ms);
  std::this_thread::sleep_for(10ms);  // deadline passes while paused
  service.resume();
  const svc::ScanResponse resp = t.response.get();
  EXPECT_EQ(resp.status, svc::QueryStatus::DeadlineExpired);
  EXPECT_TRUE(resp.result.alignments.empty());
}

TEST(ServiceAlign, TraceSpanCarriesTheTracebackStage) {
  const AlignDb db(6105);
  const db::Store store = open_store(db.records, "svc_align_span.swdb");
  obs::TraceRing ring(8);
  svc::ServiceConfig cfg;
  cfg.trace = &ring;
  svc::ScanService service(store, cfg);

  host::ScanOptions plain = align_opt();
  plain.align = false;
  (void)service.submit(db.query, plain).response.get();
  (void)service.submit(db.query, align_opt()).response.get();

  const std::vector<obs::Span> spans = ring.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].traceback, 0.0);     // score-only query: no phase
  EXPECT_GE(spans[1].traceback, 0.0);     // aligned query: stage recorded
  EXPECT_LE(spans[1].traceback, spans[1].total);
}

}  // namespace
