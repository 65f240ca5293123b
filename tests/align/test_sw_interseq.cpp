// Inter-sequence (record-per-lane) kernels: profile tables, bit-identity
// vs sw_linear across batch shapes, lane-refill edge cases, tie-heavy
// inputs, the exact per-lane saturation predicate shared with the striped
// 8-bit tier and the 8-bit anti-diagonal SWAR kernel (at every position
// of the crossing row relative to advance calls and refills), and the
// kernel's work counters.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "align/sw_antidiag8.hpp"
#include "align/sw_interseq.hpp"
#include "align/sw_linear.hpp"
#include "core/cpu_features.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::align;

const Scoring kSc = Scoring::paper_default();

// +2 matches: the largest substitution byte is 2, so a row's max can jump
// from 254 straight to 256.
Scoring match2() {
  Scoring sc;
  sc.match = 2;
  return sc;
}

std::vector<unsigned> supported_lane_widths() {
  std::vector<unsigned> widths;
  if (core::cpu_supports(core::SimdIsa::Sse41)) widths.push_back(16);
  if (core::cpu_supports(core::SimdIsa::Avx2)) widths.push_back(32);
  if (core::cpu_supports(core::SimdIsa::Avx512)) widths.push_back(64);
  return widths;
}

// Scores `records` through the interseq batch and checks every returned
// result against the sw_linear oracle: a present value must be
// bit-identical, and absence must coincide exactly with a true score
// > 255 (the 8-bit saturation predicate every tier shares).
void expect_batch_matches_oracle(const std::vector<seq::Sequence>& records,
                                 const seq::Sequence& query, const Scoring& sc, unsigned lanes,
                                 const std::string& what, InterSeqStats* stats = nullptr) {
  const auto batch = sw_interseq_batch(records, query, sc, lanes, stats);
  ASSERT_TRUE(batch.has_value()) << what;
  ASSERT_EQ(batch->size(), records.size()) << what;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const LocalScoreResult oracle = sw_linear(records[r], query, sc);
    if (oracle.score > 255) {
      EXPECT_FALSE((*batch)[r].has_value()) << what << " record " << r << " (oracle score "
                                            << oracle.score << " must saturate the lane)";
    } else {
      ASSERT_TRUE((*batch)[r].has_value()) << what << " record " << r;
      EXPECT_EQ(*(*batch)[r], oracle) << what << " record " << r;
    }
  }
}

TEST(InterSeqProfile, RejectsUnsupportedLaneCount) {
  const seq::Sequence q = seq::Sequence::dna("ACGT");
  EXPECT_THROW(InterSeqProfile(q, kSc, 8), std::invalid_argument);
  EXPECT_THROW(InterSeqProfile(q, kSc, 0), std::invalid_argument);
}

TEST(InterSeqProfile, ColumnTablesHoldTheScalarScores) {
  const seq::Sequence q = swr::test::random_dna(23, 91);
  for (const unsigned lanes : {16u, 32u, 64u}) {
    const InterSeqProfile p(q, kSc, lanes);
    ASSERT_TRUE(p.usable());
    EXPECT_EQ(p.table_slots(), 16u);  // DNA: 4 residues + neutral fits one pshufb
    EXPECT_EQ(p.neutral_code(), seq::Code{4});
    for (std::size_t j = 1; j <= q.size(); ++j) {
      for (seq::Code c = 0; c < q.alphabet().size(); ++c) {
        const Score s = kSc.substitution(c, q.codes()[j - 1]);
        EXPECT_EQ(p.pos_tab(j)[c], s > 0 ? s : 0) << "j=" << j << " c=" << int(c);
        EXPECT_EQ(p.neg_tab(j)[c], s < 0 ? -s : 0) << "j=" << j << " c=" << int(c);
      }
      // Neutral and unused slots: pos 0 / neg max pins a lane to zero.
      for (std::size_t slot = q.alphabet().size(); slot < p.table_slots(); ++slot) {
        EXPECT_EQ(p.pos_tab(j)[slot], 0u);
        EXPECT_EQ(p.neg_tab(j)[slot], 0xFFu);
      }
    }
  }
}

TEST(InterSeqProfile, ProteinNeedsTheWideTable) {
  const seq::Sequence q = swr::test::random_protein(15, 92);
  Scoring sc;
  sc.matrix = &blosum62();
  const InterSeqProfile p(q, sc, 16);
  ASSERT_TRUE(p.usable());
  // 21 residues + neutral = 22 slots: lo/hi pshufb pair.
  EXPECT_EQ(p.table_slots(), 32u);
  EXPECT_EQ(p.neutral_code(), seq::Code{21});
}

TEST(InterSeqBatch, EquivalenceSweepVsSwLinear) {
  // Batch shapes around every lane boundary, record lengths mixed per
  // batch (the lane-refill machinery is exercised hardest when lengths
  // diverge), plus empty and 1-residue records in the middle.
  for (const unsigned lanes : supported_lane_widths()) {
    for (const std::size_t count : {1u, 2u, 15u, 16u, 17u, 31u, 32u, 33u, 67u}) {
      std::mt19937_64 lens(count * 977 + lanes);
      std::uniform_int_distribution<std::size_t> len(0, 90);
      std::vector<seq::Sequence> records;
      for (std::size_t r = 0; r < count; ++r) {
        records.push_back(swr::test::random_dna(len(lens), count * 1000 + r));
      }
      const seq::Sequence query = swr::test::random_dna(41, count + 7);
      expect_batch_matches_oracle(records, query, kSc, lanes,
                                  "lanes " + std::to_string(lanes) + " count " +
                                      std::to_string(count));
    }
  }
}

TEST(InterSeqBatch, EmptyAndTinyRecordsInsideABatch) {
  for (const unsigned lanes : supported_lane_widths()) {
    std::vector<seq::Sequence> records;
    records.push_back(seq::Sequence::dna(""));
    records.push_back(seq::Sequence::dna("A"));
    records.push_back(swr::test::random_dna(60, 5));
    records.push_back(seq::Sequence::dna(""));
    records.push_back(seq::Sequence::dna("G"));
    for (std::size_t r = 0; r < 20; ++r) records.push_back(swr::test::random_dna(3 + r, 50 + r));
    const seq::Sequence query = swr::test::random_dna(25, 3);
    expect_batch_matches_oracle(records, query, kSc, lanes,
                                "tiny records, lanes " + std::to_string(lanes));
  }
}

TEST(InterSeqBatch, EmptyBatchAndEmptyQuery) {
  for (const unsigned lanes : supported_lane_widths()) {
    const std::vector<seq::Sequence> none;
    const auto empty = sw_interseq_batch(none, seq::Sequence::dna("ACGT"), kSc, lanes);
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->empty());

    const std::vector<seq::Sequence> recs = {seq::Sequence::dna("ACGT"),
                                             seq::Sequence::dna("")};
    const auto r = sw_interseq_batch(recs, seq::Sequence::dna(""), kSc, lanes);
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->size(), 2u);
    for (const auto& one : *r) {
      ASSERT_TRUE(one.has_value());
      EXPECT_EQ(*one, LocalScoreResult{});
    }
  }
}

TEST(InterSeqBatch, CanonicalTieBreakAcrossRepeats) {
  // A periodic query against periodic records produces many equal-scoring
  // cells; the per-lane tie-break must keep the smallest-(j, i) cell
  // exactly like sw_linear.
  for (const unsigned lanes : supported_lane_widths()) {
    std::vector<seq::Sequence> records;
    for (std::size_t r = 0; r < 40; ++r) {
      std::string text;
      for (std::size_t k = 0; k < 8 + r; ++k) text += "ACGT"[k % 4];
      records.push_back(seq::Sequence::dna(text));
    }
    seq::Sequence query = seq::Sequence::dna("ACGTACGTACGTACGT");
    expect_batch_matches_oracle(records, query, kSc, lanes,
                                "periodic, lanes " + std::to_string(lanes));
  }
}

TEST(InterSeqBatch, ProteinBlosum62) {
  Scoring sc;
  sc.matrix = &blosum62();
  for (const unsigned lanes : supported_lane_widths()) {
    std::vector<seq::Sequence> records;
    std::mt19937_64 lens(88);
    std::uniform_int_distribution<std::size_t> len(0, 70);
    for (std::size_t r = 0; r < 45; ++r) {
      records.push_back(swr::test::random_protein(len(lens), 300 + r));
    }
    const seq::Sequence query = swr::test::random_protein(33, 17);
    expect_batch_matches_oracle(records, query, sc, lanes,
                                "blosum62, lanes " + std::to_string(lanes));
  }
}

// Straddle the 255/256 saturation boundary exactly: a record scoring 255
// must come back exact, 256 must come back absent, and absence must agree
// record by record with the 8-bit predicate every tier shares — the true
// score (sw_linear) exceeds 255 — and with the swar8 kernel's predicate.
TEST(InterSeqBatch, SaturationBoundaryExactAndSwar8PredicateParity) {
  for (const unsigned lanes : supported_lane_widths()) {
    std::vector<seq::Sequence> records;
    std::vector<seq::Sequence> queries;  // matched per record below
    // Identical copies score exactly their length under +1 matches.
    const seq::Sequence q300 = swr::test::random_dna(300, 1234);
    for (const std::size_t score : {254u, 255u, 256u, 300u}) {
      records.push_back(q300.subsequence(0, score));
    }
    for (std::size_t r = 0; r < 12; ++r) records.push_back(swr::test::random_dna(80, 40 + r));

    const auto batch = sw_interseq_batch(records, q300, kSc, lanes);
    ASSERT_TRUE(batch.has_value());
    std::size_t absent = 0;
    Antidiag8Workspace ws8;
    for (std::size_t r = 0; r < records.size(); ++r) {
      const LocalScoreResult oracle = sw_linear(records[r], q300, kSc);
      EXPECT_EQ((*batch)[r].has_value(), oracle.score <= 255)
          << "record " << r << ": interseq must saturate on exactly the records scoring > 255";
      const auto swar8 = sw_antidiag8_try(records[r].codes(), q300.codes(), kSc, ws8);
      EXPECT_EQ((*batch)[r].has_value(), swar8.has_value())
          << "record " << r << ": interseq and swar8 must saturate on exactly the same records";
      if ((*batch)[r].has_value()) {
        EXPECT_EQ(*(*batch)[r], oracle) << "record " << r;
      } else {
        EXPECT_GT(oracle.score, 255) << "record " << r;
        ++absent;
      }
    }
    EXPECT_EQ(absent, 2u);  // exactly the 256- and 300-scoring copies
  }
}

// A record and a query whose best local score is exactly `target`: the
// record is the query itself, which scores the sum of its diagonal. Under
// a uniform scheme with +2 matches an odd target gets one mismatch (-1)
// in the middle; under BLOSUM62 (diagonal entries 4..11) the query is a
// random head padded with A (4) and one residue carrying the remainder.
std::pair<seq::Sequence, seq::Sequence> boundary_pair(Score target, const Scoring& sc,
                                                      std::uint64_t seed) {
  if (sc.matrix != nullptr) {
    const seq::Sequence head = swr::test::random_protein(20, seed);
    Score self = 0;
    for (const seq::Code c : head.codes()) self += sc.substitution(c, c);
    const Score rest = target - self;  // >= 34: the head scores at most 20 * 11
    const std::size_t pad = static_cast<std::size_t>((rest - 4) / 4);
    const char tail = "ARNP"[(rest - 4) % 4];  // diagonal 4, 5, 6, 7
    seq::Sequence q = head;
    q.append(seq::Sequence::protein(std::string(pad, 'A') + tail));
    return {q, q};
  }
  if (target % sc.match == 0) {
    const seq::Sequence q = swr::test::random_dna(static_cast<std::size_t>(target / sc.match), seed);
    return {q, q};
  }
  const std::size_t len = static_cast<std::size_t>(target + 3) / 2;
  const seq::Sequence q = swr::test::random_dna(len, seed);
  std::string text = q.to_string();
  text[len / 2] = text[len / 2] == 'A' ? 'C' : 'A';
  return {q, seq::Sequence::dna(text)};
}

// Scores `lanes_feed[l]` through lane l in order (an empty list leaves the
// lane dead) and checks every record against sw_linear. The feed decides
// where advance calls end (the shortest live remainder) and where lanes
// refill.
void expect_lane_feed_matches_oracle(const std::vector<std::vector<seq::Sequence>>& lanes_feed,
                                     const seq::Sequence& query, const Scoring& sc,
                                     unsigned lanes, const std::string& what) {
  const InterSeqProfile profile(query, sc, lanes);
  ASSERT_TRUE(profile.usable()) << what;
  std::vector<const seq::Sequence*> by_tag;
  std::vector<std::size_t> next(lanes_feed.size(), 0);
  std::vector<std::optional<LocalScoreResult>> out;
  InterSeqWorkspace ws;
  sw_interseq_scan(
      profile, ws,
      [&](unsigned lane) -> std::optional<InterSeqRecord> {
        if (lane >= lanes_feed.size() || next[lane] >= lanes_feed[lane].size()) {
          return std::nullopt;
        }
        by_tag.push_back(&lanes_feed[lane][next[lane]++]);
        out.emplace_back();
        return InterSeqRecord{by_tag.size() - 1, by_tag.back()->codes()};
      },
      [&](std::uint64_t tag, std::span<const seq::Code>,
          const std::optional<LocalScoreResult>& result) { out[tag] = result; });
  for (std::size_t t = 0; t < by_tag.size(); ++t) {
    const LocalScoreResult oracle = sw_linear(*by_tag[t], query, sc);
    if (oracle.score > 255) {
      EXPECT_FALSE(out[t].has_value()) << what << " record " << t << " (score " << oracle.score
                                       << ")";
    } else {
      ASSERT_TRUE(out[t].has_value()) << what << " record " << t;
      EXPECT_EQ(*out[t], oracle) << what << " record " << t;
    }
  }
}

// Records scoring exactly 254..257 under +1 and +2 matches and BLOSUM62
// (the 32-slot table). A companion of length k ends an advance call right
// before the boundary record's row k + 1 and refills its lane there, for
// every k in the last dozen rows, so the row where the score crosses 255
// is also the first row of an advance call right after a refill. The
// boundary record sits in the first or the last lane (the two pshufb
// halves at 32 lanes), and either starts the scan or arrives by a refill.
TEST(InterSeqBatch, SaturationBoundaryAtAdvanceAndRefillEdges) {
  Scoring blosum;
  blosum.matrix = &blosum62();
  const std::pair<const char*, Scoring> schemes[] = {
      {"match1", kSc}, {"match2", match2()}, {"blosum62", blosum}};
  for (const unsigned lanes : supported_lane_widths()) {
    for (const auto& scheme : schemes) {
      const std::string name = scheme.first;
      const Scoring& sc = scheme.second;
      for (const Score target : {254, 255, 256, 257}) {
        const auto [query, boundary] = boundary_pair(target, sc, 500 + target);
        ASSERT_EQ(sw_linear(boundary, query, sc).score, target) << name;
        const auto filler = [&](std::size_t len, std::uint64_t seed) {
          return sc.matrix != nullptr ? swr::test::random_protein(len, seed)
                                      : swr::test::random_dna(len, seed);
        };
        const std::size_t len = boundary.size();
        for (std::size_t k = len - 12; k < len; ++k) {
          for (const bool by_refill : {false, true}) {
            for (const unsigned lane : {0u, lanes - 1}) {
              std::vector<std::vector<seq::Sequence>> feed(lanes);
              std::vector<seq::Sequence>& own = feed[lane];
              std::vector<seq::Sequence>& other = feed[lane == 0 ? 1 : 0];
              if (by_refill) {
                own.push_back(filler(5, k));
                other.push_back(filler(5, k + 1));
              }
              own.push_back(boundary);
              other.push_back(filler(k, k + 2));
              other.push_back(filler(20, k + 3));
              expect_lane_feed_matches_oracle(
                  feed, query, sc, lanes,
                  name + " target " + std::to_string(target) + " lanes " +
                      std::to_string(lanes) + " k " + std::to_string(k) +
                      (by_refill ? " by refill" : "") + " lane " + std::to_string(lane));
            }
          }
        }
      }
    }
  }
}

// Low-entropy records and queries make many equal-scoring cells per row;
// the tie-break must pick sw_linear's canonical cell every time, and
// long records cross the 8-bit ceiling on the way.
TEST(InterSeqBatch, TieHeavyRandomizedParity) {
  const std::string mixes[] = {"A", "AC", "AAAC"};
  for (const unsigned lanes : supported_lane_widths()) {
    for (const Scoring& sc : {kSc, match2()}) {
      for (std::uint64_t trial = 0; trial < 6; ++trial) {
        std::mt19937_64 rng(trial * 131 + lanes + static_cast<std::uint64_t>(sc.match));
        const auto draw = [&](std::size_t max_len) {
          const std::string& mix = mixes[rng() % 3];
          std::string text(rng() % (max_len + 1), 'A');
          for (char& c : text) c = mix[rng() % mix.size()];
          return seq::Sequence::dna(text);
        };
        std::vector<seq::Sequence> records;
        for (std::size_t r = 0; r < 40; ++r) records.push_back(draw(900));
        seq::Sequence query = draw(600);
        if (query.size() == 0) query = seq::Sequence::dna("A");
        expect_batch_matches_oracle(records, query, sc, lanes,
                                    "tie-heavy trial " + std::to_string(trial) + " match " +
                                        std::to_string(sc.match) + " lanes " +
                                        std::to_string(lanes));
      }
    }
  }
}

TEST(InterSeqBatch, EveryLaneSaturates) {
  // A batch wider than the lane count where every record overflows: every
  // result must be absent and the fallback count must equal the batch.
  for (const unsigned lanes : supported_lane_widths()) {
    const seq::Sequence query = swr::test::random_dna(400, 777);
    std::vector<seq::Sequence> records;
    for (std::size_t r = 0; r < lanes + 3; ++r) {
      seq::Sequence rec = swr::test::random_dna(10 + r, 900 + r);
      rec.append(query);  // embeds a 400-scoring copy: true score > 255
      records.push_back(std::move(rec));
    }
    InterSeqStats stats;
    const auto batch = sw_interseq_batch(records, query, kSc, lanes, &stats);
    ASSERT_TRUE(batch.has_value());
    for (std::size_t r = 0; r < records.size(); ++r) {
      EXPECT_FALSE((*batch)[r].has_value()) << "record " << r;
    }
    EXPECT_EQ(stats.fallbacks, records.size());
  }
}

// 64 lanes, one record each (the initial fill puts record l in lane l):
// 63 copies of a tie-heavy record and, in lane 40, a saturating record
// that starts with the same residues. Every lane reaches its row max in
// the same rows, so each triggered row sets bits on both sides of bit 32
// of the 64-bit trigger mask, and lane 40 later saturates. Every result
// must equal sw_linear, and the tie-break work must be the sum of the
// records' own (tiebreak_lanes is invariant under lane packing) in no more
// rows than the saturating record needs alone.
TEST(InterSeqBatch, SixtyFourLanesTieBreakInTheSameRowAndOneSaturates) {
  if (sw_interseq_max_lanes() < 64) GTEST_SKIP() << "no 64-lane interseq ISA on this host";
  std::string periodic;
  for (std::size_t k = 0; k < 280; ++k) periodic += "ACGT"[k % 4];
  const seq::Sequence query = seq::Sequence::dna(periodic);
  const seq::Sequence tie = seq::Sequence::dna(periodic.substr(0, 80));
  const seq::Sequence hot = query;  // scores 280: saturates its lane
  std::vector<seq::Sequence> records(64, tie);
  records[40] = hot;

  InterSeqStats stats;
  expect_batch_matches_oracle(records, query, kSc, 64, "64 lanes", &stats);
  EXPECT_EQ(stats.fallbacks, 1u);
  InterSeqStats tie_alone;
  InterSeqStats hot_alone;
  expect_batch_matches_oracle({tie}, query, kSc, 64, "tie record alone", &tie_alone);
  expect_batch_matches_oracle({hot}, query, kSc, 64, "hot record alone", &hot_alone);
  ASSERT_GT(tie_alone.tiebreak_lanes, 0u);
  EXPECT_EQ(stats.tiebreak_lanes, 63 * tie_alone.tiebreak_lanes + hot_alone.tiebreak_lanes);
  EXPECT_EQ(stats.tiebreak_rows, hot_alone.tiebreak_rows);
  for (const unsigned lanes : supported_lane_widths()) {
    InterSeqStats narrower;
    expect_batch_matches_oracle(records, query, kSc, lanes,
                                "same batch, lanes " + std::to_string(lanes), &narrower);
    EXPECT_EQ(narrower.tiebreak_lanes, stats.tiebreak_lanes) << "lanes " << lanes;
    EXPECT_EQ(narrower.fallbacks, 1u) << "lanes " << lanes;
  }
}

TEST(InterSeqStatsAccounting, BatchesRefillsAndOccupancy) {
  for (const unsigned lanes : supported_lane_widths()) {
    // 3 full lane generations of equal-length records: the driver should
    // run at full occupancy throughout and refill exactly (count - lanes)
    // lanes.
    std::vector<seq::Sequence> records;
    for (std::size_t r = 0; r < 3 * lanes; ++r) {
      records.push_back(swr::test::random_dna(50, 60 + r));
    }
    InterSeqStats stats;
    const seq::Sequence query = swr::test::random_dna(30, 2);
    expect_batch_matches_oracle(records, query, kSc, lanes,
                                "occupancy, lanes " + std::to_string(lanes), &stats);
    EXPECT_EQ(stats.refills, records.size() - lanes);
    EXPECT_EQ(stats.fallbacks, 0u);
    std::uint64_t advances = 0;
    for (std::size_t occ = 0; occ <= kInterSeqMaxLanes; ++occ) {
      if (occ != lanes) {
        EXPECT_EQ(stats.occupancy[occ], 0u) << "occupancy " << occ;
      }
      advances += stats.occupancy[occ];
    }
    EXPECT_EQ(stats.occupancy[lanes], advances);
    EXPECT_EQ(stats.batches, advances);
    EXPECT_EQ(stats.batches, 3u);  // equal lengths: one advance per generation
  }
}

TEST(InterSeqStatsAccounting, TiebreakLanesPerRecordAndOverflowTestNearTheCeiling) {
  const std::vector<unsigned> widths = supported_lane_widths();
  if (widths.empty()) GTEST_SKIP() << "no interseq ISA on this host";
  std::vector<seq::Sequence> records;
  std::mt19937_64 lens(7);
  std::uniform_int_distribution<std::size_t> len(0, 300);
  for (std::size_t r = 0; r < 70; ++r) records.push_back(swr::test::random_dna(len(lens), 70 + r));
  const seq::Sequence query = swr::test::random_dna(80, 71);
  const InterSeqProfile profile(query, kSc, widths.front());
  EXPECT_EQ(profile.max_sub8(), 1u);

  // Random records stay far below 255 - max_sub8(): no row can carry, so
  // the exact overflow test never runs. The tie-break count depends on
  // each record alone, so lane width and packing cannot move it.
  std::optional<std::uint64_t> tiebreak_lanes;
  for (const unsigned lanes : widths) {
    InterSeqStats stats;
    expect_batch_matches_oracle(records, query, kSc, lanes, "counters", &stats);
    EXPECT_EQ(stats.overflow_checked_rows, 0u) << "lanes " << lanes;
    EXPECT_GT(stats.tiebreak_lanes, 0u) << "lanes " << lanes;
    EXPECT_GE(stats.tiebreak_lanes, stats.tiebreak_rows) << "lanes " << lanes;
    if (tiebreak_lanes.has_value()) {
      EXPECT_EQ(stats.tiebreak_lanes, *tiebreak_lanes) << "lanes " << lanes;
    }
    tiebreak_lanes = stats.tiebreak_lanes;
  }

  // One record scoring 300 must be tested (and flagged) near the ceiling.
  const seq::Sequence q300 = swr::test::random_dna(300, 72);
  records.push_back(q300);
  for (const unsigned lanes : widths) {
    InterSeqStats stats;
    expect_batch_matches_oracle(records, q300, kSc, lanes, "counters 300", &stats);
    EXPECT_GT(stats.overflow_checked_rows, 0u) << "lanes " << lanes;
    EXPECT_EQ(stats.fallbacks, 1u) << "lanes " << lanes;
  }
}

TEST(InterSeqProfile, MaxSubIsTheLargestSubstitutionByte) {
  const seq::Sequence dna = swr::test::random_dna(30, 93);
  EXPECT_EQ(InterSeqProfile(dna, kSc, 16).max_sub8(), 1u);
  EXPECT_EQ(InterSeqProfile(dna, match2(), 32).max_sub8(), 2u);
  Scoring sc;
  sc.matrix = &blosum62();
  const seq::Sequence w = seq::Sequence::protein("AWA");
  EXPECT_EQ(InterSeqProfile(w, sc, 16).max_sub8(), 11u);  // W-W
}

TEST(InterSeqBatch, UnavailableShapesReturnOuterNullopt) {
  // An alphabet too large for the pshufb tables is structurally unusable
  // regardless of ISA; the batch reports that as outer nullopt.
  const seq::Sequence q = seq::Sequence::dna("ACGT");
  const std::vector<seq::Sequence> recs = {q};
  InterSeqProfile p(q, kSc, 16);
  EXPECT_TRUE(p.table_slots() != 0);
  // Construct the structural failure via a fake alphabet size.
  const InterSeqProfile big(q.codes(), kSc, 16, 40);
  EXPECT_FALSE(big.usable());
  // Unusable profiles refuse to scan outright.
  InterSeqWorkspace ws;
  EXPECT_THROW(sw_interseq_scan(
                   big, ws, [](unsigned) { return std::optional<InterSeqRecord>{}; },
                   [](std::uint64_t, std::span<const seq::Code>,
                      const std::optional<LocalScoreResult>&) {}),
               std::logic_error);
}

TEST(InterSeqBatch, AlphabetMismatchThrows) {
  const std::vector<seq::Sequence> recs = {seq::Sequence::protein("ARND")};
  EXPECT_THROW((void)sw_interseq_batch(recs, seq::Sequence::dna("ACGT"), kSc, 16),
               std::invalid_argument);
}

TEST(InterSeqWorkspaceReuse, BackToBackBatchesStayExact) {
  // One workspace, many scans with different queries/records — stale lane
  // state must never leak across scans.
  for (const unsigned lanes : supported_lane_widths()) {
    InterSeqWorkspace ws;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const seq::Sequence query = swr::test::random_dna(20 + 13 * seed, seed);
      std::vector<seq::Sequence> records;
      std::mt19937_64 lens(seed);
      std::uniform_int_distribution<std::size_t> len(0, 70);
      for (std::size_t r = 0; r < 2 * lanes + 5; ++r) {
        records.push_back(swr::test::random_dna(len(lens), seed * 100 + r));
      }
      const InterSeqProfile profile(query, kSc, lanes);
      ASSERT_TRUE(profile.usable());
      std::vector<std::optional<LocalScoreResult>> out(records.size());
      std::size_t next = 0;
      sw_interseq_scan(
          profile, ws,
          [&](unsigned) -> std::optional<InterSeqRecord> {
            if (next >= records.size()) return std::nullopt;
            const std::size_t r = next++;
            return InterSeqRecord{r, records[r].codes()};
          },
          [&](std::uint64_t tag, std::span<const seq::Code>,
              const std::optional<LocalScoreResult>& result) { out[tag] = result; });
      for (std::size_t r = 0; r < records.size(); ++r) {
        const LocalScoreResult oracle = sw_linear(records[r], query, kSc);
        ASSERT_TRUE(out[r].has_value()) << "seed " << seed << " record " << r;
        EXPECT_EQ(*out[r], oracle) << "seed " << seed << " record " << r;
      }
    }
  }
}

}  // namespace
