// The format-v3 k-mer index section: build-time construction, mmap view
// round-trip, v1 compatibility (old files open and scan; seeded lookups
// fail with an actionable error), v2 refusal, and corruption rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "db/builder.hpp"
#include "db/format.hpp"
#include "db/store.hpp"
#include "host/scan_engine.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;

std::string temp_path(const std::string& leaf) { return testing::TempDir() + "/" + leaf; }

std::vector<seq::Sequence> indexable_records() {
  std::vector<seq::Sequence> recs;
  for (int k = 0; k < 10; ++k) {
    seq::Sequence s = test::random_dna(40 + 23 * static_cast<std::size_t>(k), 4200 + k);
    s.set_name("rec" + std::to_string(k));
    recs.push_back(std::move(s));
  }
  recs.push_back(seq::Sequence::dna("", "empty"));
  recs.push_back(seq::Sequence::dna("ACG", "tiny"));  // shorter than any k
  return recs;
}

std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const db::StoreError& e) {
    return e.what();
  }
  return "(no StoreError)";
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

TEST(KmerIndexSection, BuildAppendsVerifiedSection) {
  const auto recs = indexable_records();
  const std::string path = temp_path("kidx_build.swdb");
  const db::BuildStats st = db::build_store(recs, path);
  EXPECT_NE(st.seed_k, 0u);
  EXPECT_NE(st.index_postings, 0u);

  const db::Store store = db::Store::open(path);
  EXPECT_EQ(store.header().version, db::kFormatVersionIndexed);
  ASSERT_TRUE(store.has_kmer_index());
  const db::KmerIndexView& idx = store.kmer_index();
  EXPECT_EQ(idx.k(), st.seed_k);
  EXPECT_EQ(idx.bucket_count(), st.index_buckets);
  EXPECT_EQ(idx.postings_count(), st.index_postings);
  EXPECT_EQ(idx.bytes(), st.index_bytes);
  EXPECT_EQ(std::filesystem::file_size(path), st.file_bytes);
  EXPECT_GT(idx.load_factor(), 0.0);
  EXPECT_LE(idx.load_factor(), 1.0);
  EXPECT_NO_THROW(store.verify_payload());  // payload hash covers the index
}

TEST(KmerIndexSection, PostingsEnumerateEveryKmerOccurrence) {
  const auto recs = indexable_records();
  const std::string path = temp_path("kidx_postings.swdb");
  db::build_store(recs, path);
  const db::Store store = db::Store::open(path);
  const db::KmerIndexView& idx = store.kmer_index();
  const std::size_t k = idx.k();
  const std::size_t base = store.alphabet().size();

  // Brute-force reference: every k-mer of every record must be exactly
  // the postings of its bucket, sorted by (record, pos).
  std::uint64_t expected_total = 0;
  for (std::uint32_t r = 0; r < recs.size(); ++r) {
    const auto codes = recs[r].codes();
    if (codes.size() < k) continue;
    expected_total += codes.size() - k + 1;
    for (std::size_t p = 0; p + k <= codes.size(); ++p) {
      std::uint64_t code = 0;
      for (std::size_t t = 0; t < k; ++t) code = code * base + codes[p + t];
      const auto bucket = idx.postings_for(code);
      const bool found = std::any_of(bucket.begin(), bucket.end(), [&](std::uint32_t g) {
        const db::KmerPosting e = idx.locate(g);
        return e.record == r && e.pos == p;
      });
      EXPECT_TRUE(found) << "record " << r << " pos " << p;
    }
  }
  EXPECT_EQ(idx.postings_count(), expected_total);

  // Postings within every bucket ascend by (record, pos) — the layout the
  // prefilter's sequential merge depends on.
  for (std::uint64_t b = 0; b < idx.bucket_count(); ++b) {
    const auto bucket = idx.postings_for(b);
    for (std::size_t i = 1; i < bucket.size(); ++i) {
      const db::KmerPosting prev = idx.locate(bucket[i - 1]);
      const db::KmerPosting next = idx.locate(bucket[i]);
      EXPECT_TRUE(prev.record < next.record ||
                  (prev.record == next.record && prev.pos < next.pos))
          << "bucket " << b;
    }
  }
}

TEST(KmerIndexSection, NoIndexOptionWritesV1) {
  const auto recs = indexable_records();
  const std::string path = temp_path("kidx_v1.swdb");
  db::BuildOptions opt;
  opt.kmer_index = false;
  const db::BuildStats st = db::build_store(recs, path, opt);
  EXPECT_EQ(st.seed_k, 0u);
  EXPECT_EQ(st.index_bytes, 0u);

  const db::Store store = db::Store::open(path);
  EXPECT_EQ(store.header().version, db::kFormatVersion);
  EXPECT_FALSE(store.has_kmer_index());
  try {
    (void)store.kmer_index();
    FAIL() << "kmer_index() on a v1 store must throw";
  } catch (const db::StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("rebuild"), std::string::npos) << e.what();
  }
}

TEST(KmerIndexSection, V1StoreStillScansExact) {
  const auto recs = indexable_records();
  const std::string path = temp_path("kidx_v1_scan.swdb");
  db::BuildOptions opt;
  opt.kmer_index = false;
  db::build_store(recs, path, opt);
  const db::Store store = db::Store::open(path);

  const seq::Sequence query = test::random_dna(80, 5000);
  host::ScanOptions so;
  so.min_score = 10;
  const host::ScanResult a = host::scan_database_cpu(query, store, align::Scoring{}, so);
  const host::ScanResult b = host::scan_database_cpu(query, recs, align::Scoring{}, so);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].record, b.hits[i].record);
    EXPECT_EQ(a.hits[i].result.score, b.hits[i].result.score);
  }
}

TEST(KmerIndexSection, ExplicitSeedKRoundTripsAndValidates) {
  const auto recs = indexable_records();
  const std::string path = temp_path("kidx_k5.swdb");
  db::BuildOptions opt;
  opt.seed_k = 5;
  db::build_store(recs, path, opt);
  const db::Store store = db::Store::open(path);
  EXPECT_EQ(store.kmer_index().k(), 5u);
  EXPECT_EQ(store.kmer_index().bucket_count(), 1024u);  // 4^5

  db::BuildOptions bad;
  bad.seed_k = 1;
  EXPECT_THROW(db::build_store(recs, temp_path("kidx_bad1.swdb"), bad), db::StoreError);
  bad.seed_k = 32;
  EXPECT_THROW(db::build_store(recs, temp_path("kidx_bad32.swdb"), bad), db::StoreError);
  // 21^7 buckets blows the bucket-table cap for protein.
  std::vector<seq::Sequence> prot{test::random_protein(100, 9)};
  db::BuildOptions popt;
  popt.seed_k = 7;
  EXPECT_THROW(db::build_store(prot, temp_path("kidx_badp.swdb"), popt), db::StoreError);
}

TEST(KmerIndexSection, AutoSeedKTracksAlphabetAndSize) {
  // DNA: 4^k <= clamp(residues, 4096, 2^24).
  EXPECT_EQ(db::auto_seed_k(4, 0), 6u);          // clamp floor 4096 = 4^6
  EXPECT_EQ(db::auto_seed_k(4, 1u << 20), 10u);  // 4^10 = 2^20
  EXPECT_EQ(db::auto_seed_k(4, 1u << 30), 12u);  // clamp ceiling 2^24 = 4^12
  // Protein (21 letters): 21^2 = 441 <= 4096 < 21^3.
  EXPECT_EQ(db::auto_seed_k(21, 0), 2u);
  EXPECT_EQ(db::auto_seed_k(21, 1u << 30), 5u);  // 21^5 ~ 4.1M <= 2^24 < 21^6
}

TEST(KmerIndexSection, CorruptPostingsFailVerify) {
  const auto recs = indexable_records();
  const std::string path = temp_path("kidx_corrupt.swdb");
  const db::BuildStats st = db::build_store(recs, path);
  ASSERT_NE(st.index_postings, 0u);

  // Last byte of the file sits in the postings array.
  flip_byte(path, st.file_bytes - 1);
  const db::Store store = db::Store::open(path);  // open stays O(1), no hash
  EXPECT_THROW(store.verify_payload(), db::StoreError);
  const std::string what = message_of([&] { store.verify_payload(); });
  EXPECT_NE(what.find("k-mer index checksum mismatch"), std::string::npos) << what;
}

TEST(KmerIndexSection, CorruptPayloadFailsVerifyNamingThePayload) {
  const auto recs = indexable_records();
  const std::string path = temp_path("kidx_corrupt_payload.swdb");
  const db::BuildStats st = db::build_store(recs, path);
  // The byte just before the index header is payload (or its padding).
  flip_byte(path, st.file_bytes - st.index_bytes - 1);
  const db::Store store = db::Store::open(path);
  const std::string what = message_of([&] { store.verify_payload(); });
  EXPECT_NE(what.find("payload checksum mismatch"), std::string::npos) << what;
}

// A posting past the last residue would decode to no record: the seeded
// scan that walks it fails with a StoreError naming the index, not
// std::out_of_range or a read past a record.
TEST(KmerIndexSection, PostingPastLastResidueIsATypedError) {
  const auto recs = indexable_records();
  const std::string path = temp_path("kidx_bad_posting.swdb");
  const db::BuildStats st = db::build_store(recs, path);

  // The file's last posting belongs to the highest non-empty bucket; a
  // query spelling that k-mer walks it.
  std::vector<seq::Code> kmer;
  {
    const db::Store store = db::Store::open(path);
    const db::KmerIndexView& idx = store.kmer_index();
    std::uint64_t b = idx.bucket_count() - 1;
    while (idx.postings_for(b).empty()) --b;
    kmer.resize(idx.k());
    for (std::size_t t = kmer.size(); t-- > 0; b /= 4) kmer[t] = static_cast<seq::Code>(b % 4);
  }
  std::vector<char> bytes = test::slurp(path);
  std::memset(bytes.data() + st.file_bytes - 4, 0xFF, 4);
  test::spit(path, bytes);

  const db::Store store = db::Store::open(path);
  const seq::Sequence query(seq::dna(), kmer, "kmer");
  host::ScanOptions so;
  so.filter = host::FilterMode::Seeded;
  so.min_score = 2;
  const std::string what = message_of(
      [&] { (void)host::scan_database_cpu(query, store, align::Scoring{}, so); });
  EXPECT_NE(what.find("k-mer index"), std::string::npos) << what;
  EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
}

// The v2 index layout (u64 offsets, (record, pos) postings) is refused at
// open with the rebuild command, whatever follows the header.
TEST(KmerIndexSection, VersionTwoFileAsksForRebuild) {
  const auto recs = indexable_records();
  const std::string path = temp_path("kidx_v2.swdb");
  db::build_store(recs, path);
  std::vector<char> bytes = test::slurp(path);
  db::FileHeader h;
  std::memcpy(&h, bytes.data(), sizeof h);
  h.version = db::kFormatVersionIndexedV2;
  h.header_hash = h.compute_header_hash();
  std::memcpy(bytes.data(), &h, sizeof h);
  test::spit(path, bytes);

  const std::string what = message_of([&] { (void)db::Store::open(path); });
  EXPECT_NE(what.find("format v2"), std::string::npos) << what;
  EXPECT_NE(what.find("swr swdb build"), std::string::npos) << what;
}

// The index body is not under payload_hash, so the generation folds in the
// index header: a rebuild that changes only the seed length is a new
// generation (its seeded scans may admit other records).
TEST(KmerIndexSection, SeedLengthChangesTheGeneration) {
  const auto recs = indexable_records();
  db::BuildOptions k5, k6;
  k5.seed_k = 5;
  k6.seed_k = 6;
  db::build_store(recs, temp_path("kidx_gen5.swdb"), k5);
  db::build_store(recs, temp_path("kidx_gen6.swdb"), k6);
  db::build_store(recs, temp_path("kidx_gen5b.swdb"), k5);
  const std::uint64_t g5 = db::Store::open(temp_path("kidx_gen5.swdb")).generation();
  EXPECT_NE(g5, db::Store::open(temp_path("kidx_gen6.swdb")).generation());
  EXPECT_EQ(g5, db::Store::open(temp_path("kidx_gen5b.swdb")).generation());
}

// --no-index keeps writing the v1 layout byte for byte: the hash pins
// this fixed store's file as every v1 builder has written it.
TEST(KmerIndexSection, NoIndexFileBytesUnchanged) {
  std::vector<seq::Sequence> recs;
  for (std::size_t r = 0; r < 6; ++r) {
    std::vector<seq::Code> codes(r == 2 ? 0 : 5 + 13 * r);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      codes[i] = static_cast<seq::Code>((i * 7 + r * 3 + i / 5) % 4);
    }
    recs.emplace_back(seq::dna(), std::move(codes), "r" + std::to_string(r));
  }
  db::BuildOptions opt;
  opt.kmer_index = false;
  const std::string path = temp_path("kidx_v1_bytes.swdb");
  db::build_store(recs, path, opt);
  const std::vector<char> bytes = test::slurp(path);
  EXPECT_EQ(bytes.size(), 299u);
  EXPECT_EQ(db::fnv1a(bytes.data(), bytes.size()), 241700612196080910ull);
}

TEST(KmerIndexSection, CorruptIndexHeaderFailsOpen) {
  const auto recs = indexable_records();
  const std::string path = temp_path("kidx_corrupt_hdr.swdb");
  const db::BuildStats st = db::build_store(recs, path);
  // The index header starts index_bytes before EOF; byte 8 is inside the
  // hashed header prefix (version field).
  flip_byte(path, st.file_bytes - st.index_bytes + 8);
  EXPECT_THROW(db::Store::open(path), db::StoreError);
}

TEST(KmerIndexSection, RecordsRoundTripUnchangedWithIndex) {
  const auto recs = indexable_records();
  const std::string path = temp_path("kidx_roundtrip.swdb");
  db::build_store(recs, path);
  const db::Store store = db::Store::open(path);
  ASSERT_EQ(store.size(), recs.size());
  std::vector<seq::Code> scratch;
  for (std::size_t r = 0; r < recs.size(); ++r) {
    EXPECT_EQ(store.name(r), recs[r].name());
    const auto codes = store.codes(r, scratch);
    ASSERT_EQ(codes.size(), recs[r].size());
    EXPECT_TRUE(std::equal(codes.begin(), codes.end(), recs[r].codes().begin()));
  }
}

}  // namespace
