// Memory-bounded record store tests.
//
// The load-bearing guarantees: (1) the codec and the store fail closed on
// any damaged input — the sim/faults mutation corpus never makes decode
// throw or silently accept corrupted records; (2) a campaign and pipeline
// whose stores spill to disk are bit-identical to the default resident
// (RAM-only) ones at any thread count. Their kill/resume cycle, whose
// checkpoints carry only per-shard store deltas, is tests/test_crash.cpp's.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "result_equal.hpp"
#include "core/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "scan/campaign.hpp"
#include "sim/faults.hpp"
#include "store/codec.hpp"
#include "store/record_store.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp {
namespace {

using result_equal::expect_same_pipeline_result;
using result_equal::expect_same_records;
using result_equal::expect_same_scan;

using store::RecordStore;
using store::StoreOptions;

std::string temp_dir(const std::string& name) {
  const auto dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Deterministic, deliberately varied record shapes: v4/v6 mix, missing and
// long engine IDs, extra engines, negative receive deltas never occur but
// send-time deltas do when records interleave across shards.
scan::ScanRecord make_record(std::size_t i) {
  scan::ScanRecord r;
  if (i % 3 == 0) {
    std::array<std::uint8_t, 16> bytes{};
    bytes[0] = 0x20;
    bytes[1] = 0x01;
    bytes[15] = static_cast<std::uint8_t>(i);
    bytes[14] = static_cast<std::uint8_t>(i >> 8);
    r.target = net::IpAddress(net::Ipv6(bytes));
  } else {
    r.target = net::IpAddress(net::Ipv4(
        10, static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i),
        static_cast<std::uint8_t>(i * 7)));
  }
  if (i % 5 != 1) {
    util::Bytes id{0x80, 0x00, 0x1f, 0x88,
                   static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)};
    if (i % 7 == 0) id.resize(id.size() + i % 23, 0xab);
    r.engine_id = snmp::EngineId(id);
  }
  r.engine_boots = static_cast<std::uint32_t>(1 + i % 9);
  r.engine_time = static_cast<std::uint32_t>(i * 13 % 100000);
  r.send_time = static_cast<util::VTime>(1000000 + i * 200);
  r.receive_time = r.send_time + 31000 + static_cast<util::VTime>(i % 50);
  r.response_count = 1 + i % 4;
  r.response_bytes = 90 + i % 40;
  if (i % 11 == 0)
    r.extra_engines.push_back(
        snmp::EngineId(util::Bytes{0x80, 0x00, 0x1f, 0x88, 0x99}));
  return r;
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  char byte = 0;
  file.seekg(static_cast<std::streamoff>(offset));
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

std::vector<scan::ScanRecord> make_records(std::size_t n) {
  std::vector<scan::ScanRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) records.push_back(make_record(i));
  return records;
}

// ---- codec ----------------------------------------------------------------

TEST(StoreCodec, VarintRoundTripAndEdges) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{300}, std::uint64_t{1} << 32,
        ~std::uint64_t{0}}) {
    util::Bytes out;
    store::put_varint(out, value);
    std::size_t pos = 0;
    std::uint64_t back = 0;
    ASSERT_TRUE(store::get_varint(out, pos, back));
    EXPECT_EQ(back, value);
    EXPECT_EQ(pos, out.size());
  }
  // Truncated continuation byte.
  {
    const util::Bytes truncated{0x80};
    std::size_t pos = 0;
    std::uint64_t back = 0;
    EXPECT_FALSE(store::get_varint(truncated, pos, back));
  }
  // 10-byte encoding overflowing 64 bits.
  {
    util::Bytes overflow(9, 0xff);
    overflow.push_back(0x02);
    std::size_t pos = 0;
    std::uint64_t back = 0;
    EXPECT_FALSE(store::get_varint(overflow, pos, back));
  }
}

TEST(StoreCodec, ZigzagRoundTrip) {
  for (const std::int64_t value :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
        std::int64_t{1} << 40, -(std::int64_t{1} << 40),
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(store::unzigzag(store::zigzag(value)), value);
  }
}

TEST(StoreCodec, BlockRoundTripPreservesEveryField) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{512}}) {
    const auto records = make_records(n);
    const auto block = store::encode_block(records);
    const auto size = store::peek_block_size(block);
    ASSERT_TRUE(size.ok()) << size.error();
    EXPECT_EQ(size.value(), block.size());
    auto decoded = store::decode_block(block);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    expect_same_records(decoded.value(), records);
  }
}

// Reuses the hostile-fabric corruption corpus (sim/faults.hpp) against
// encoded blocks: every FaultKind, many seeds. Decode must never throw and
// never silently accept damage — it either fails or (when the mutation
// happens to be a byte-for-byte no-op, e.g. a splice from an identical
// region) returns exactly the original records.
TEST(StoreCodec, FaultCorpusFailsClosed) {
  const auto records = make_records(64);
  const auto block = store::encode_block(records);
  std::size_t rejected = 0, total = 0;
  for (std::size_t kind = 0; kind < sim::kFaultKindCount; ++kind) {
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
      util::Rng rng(seed * 1000 + kind);
      const auto mutated =
          sim::apply_fault(block, static_cast<sim::FaultKind>(kind), rng);
      const auto decoded = store::decode_block(mutated);
      ++total;
      if (!decoded.ok()) {
        ++rejected;
        continue;
      }
      // Accepted: the mutation must not have changed a single record.
      expect_same_records(decoded.value(), records);
      EXPECT_EQ(mutated, block)
          << "decode accepted a block that differs from the original ("
          << sim::to_string(static_cast<sim::FaultKind>(kind)) << ", seed "
          << seed << ")";
    }
  }
  // The corpus must actually exercise the failure path.
  EXPECT_GT(rejected, total * 9 / 10);
}

TEST(StoreCodec, TruncationsAndGarbageAreRejected) {
  const auto records = make_records(16);
  const auto block = store::encode_block(records);
  for (std::size_t len = 0; len < block.size(); ++len) {
    const util::Bytes prefix(block.begin(), block.begin() + len);
    EXPECT_FALSE(store::decode_block(prefix).ok()) << "length " << len;
  }
  util::Rng rng(4242);
  for (int i = 0; i < 200; ++i) {
    util::Bytes garbage(rng.next() % 256);
    for (auto& byte : garbage) byte = static_cast<std::uint8_t>(rng.next());
    EXPECT_FALSE(store::decode_block(garbage).ok());
  }
}

// ---- RecordStore ----------------------------------------------------------

TEST(RecordStoreTest, RamOnlyAppendReadBack) {
  RecordStore store({}, "ram_only");
  const auto records = make_records(300);
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(store.append(records[i]), i);
  store.seal();
  EXPECT_TRUE(store.status().ok());
  EXPECT_EQ(store.size(), records.size());
  EXPECT_EQ(store.spilled_bytes(), 0u);
  expect_same_records(store.materialize(), records);

  // Cursor agrees with for_each agrees with materialize.
  auto cursor = store.cursor();
  scan::ScanRecord record;
  std::size_t count = 0;
  while (cursor.next(record)) ++count;
  EXPECT_EQ(count, records.size());
  EXPECT_TRUE(cursor.error().empty());
}

TEST(RecordStoreTest, DuplicatePatchesMatchInPlaceMutation) {
  StoreOptions options;
  options.records_per_block = 8;
  RecordStore store(options, "patches");
  auto expected = make_records(40);
  for (const auto& record : expected) store.append(record);

  const snmp::EngineId other(util::Bytes{0x80, 0x00, 0x00, 0x63, 0x01});
  // Sealed record, new engine; sealed record, same engine; tail record.
  const std::size_t sealed_a = 3, sealed_b = 10, tail = 38;
  for (const std::size_t index : {sealed_a, sealed_b, sealed_b, tail}) {
    const bool differs = index != sealed_b;
    store.note_duplicate(index, differs ? &other : nullptr);
    auto& record = expected[index];
    ++record.response_count;
    if (differs && record.engine_id != other) {
      auto& extra = record.extra_engines;
      const auto it = std::lower_bound(extra.begin(), extra.end(), other);
      if (it == extra.end() || *it != other) extra.insert(it, other);
    }
  }
  store.seal();
  expect_same_records(store.materialize(), expected);
  EXPECT_GT(store.patch_count(), 0u);
}

TEST(RecordStoreTest, SpillsAndEvictsUnderResidentBudget) {
  StoreOptions options;
  options.dir = temp_dir("store_spill");
  options.max_resident_bytes = 4096;
  options.records_per_block = 32;
  const auto records = make_records(2000);
  RecordStore store(options, "spill");
  for (const auto& record : records) store.append(record);
  store.seal();
  ASSERT_TRUE(store.status().ok()) << store.status().error();
  EXPECT_GT(store.block_count(), 10u);
  EXPECT_GT(store.spilled_bytes(), 0u);
  // Eviction holds the resident encoded bytes at or under the budget.
  EXPECT_LE(store.resident_bytes(), options.max_resident_bytes);
  // Evicted blocks come back from disk bit-identically.
  expect_same_records(store.materialize(), records);
}

TEST(RecordStoreTest, RestoreContinuesBitIdentically) {
  StoreOptions options;
  options.dir = temp_dir("store_restore");
  options.records_per_block = 16;
  const auto records = make_records(150);
  const snmp::EngineId other(util::Bytes{0x80, 0x00, 0x00, 0x63, 0x02});

  // Reference: one uninterrupted store.
  RecordStore reference(options, "reference");
  for (const auto& record : records) reference.append(record);
  reference.note_duplicate(3, &other);
  reference.note_duplicate(70, nullptr);
  reference.seal();

  store::StoreManifest manifest;
  {
    RecordStore first(options, "resumed");
    for (std::size_t i = 0; i < 100; ++i) first.append(records[i]);
    first.note_duplicate(3, &other);
    first.note_duplicate(70, nullptr);
    manifest = first.manifest();
    // Crash simulation: more appends seal one block past the manifest;
    // restore must truncate it away.
    for (std::size_t i = 100; i < 120; ++i) first.append(records[i]);
  }
  auto resumed = RecordStore::restore(options, manifest);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->size(), 100u);
  for (std::size_t i = 100; i < records.size(); ++i)
    resumed->append(records[i]);
  resumed->seal();
  expect_same_records(resumed->materialize(), reference.materialize());
}

TEST(RecordStoreTest, RestoreFailsClosedOnDamagedFiles) {
  StoreOptions options;
  options.dir = temp_dir("store_damage");
  options.records_per_block = 16;
  store::StoreManifest manifest;
  {
    RecordStore store(options, "damaged");
    for (const auto& record : make_records(64)) store.append(record);
    manifest = store.manifest();
  }
  const auto seg = options.dir + "/damaged.seg";
  const auto idx = options.dir + "/damaged.idx";

  // Truncated segment: restore refuses.
  const auto seg_size = std::filesystem::file_size(seg);
  std::filesystem::resize_file(seg, seg_size - 1);
  EXPECT_EQ(RecordStore::restore(options, manifest), nullptr);
  std::filesystem::resize_file(seg, seg_size);

  // Bit flip inside a committed block: restore may succeed (the index is
  // intact) but reading the store fails closed on the CRC.
  flip_byte(seg, seg_size / 2);
  auto flipped = RecordStore::restore(options, manifest);
  if (flipped != nullptr) {
    auto cursor = flipped->cursor();
    scan::ScanRecord record;
    while (cursor.next(record)) {
    }
    EXPECT_FALSE(cursor.error().empty());
    EXPECT_FALSE(flipped->for_each([](const scan::ScanRecord&, std::size_t) {})
                     .ok());
  }

  // Garbage index: restore refuses.
  {
    std::ofstream file(idx, std::ios::binary | std::ios::trunc);
    file << "this is not an index";
  }
  EXPECT_EQ(RecordStore::restore(options, manifest), nullptr);
}

TEST(RecordStoreTest, ExternalSortMatchesInRamSort) {
  StoreOptions options;
  options.dir = temp_dir("store_sort");
  options.records_per_block = 16;
  auto records = make_records(500);
  // Shuffle deterministically so the sort has work to do.
  util::Rng rng(99);
  for (std::size_t i = records.size(); i > 1; --i)
    std::swap(records[i - 1], records[rng.next() % i]);

  RecordStore a(options, "sort_a");
  RecordStore b(options, "sort_b");
  for (std::size_t i = 0; i < records.size(); ++i)
    (i % 2 == 0 ? a : b).append(records[i]);
  a.seal();
  b.seal();

  // Tiny chunk forces multiple sorted runs and a real k-way merge.
  const auto sorted = store::sort_stores({&a, &b}, store::SortKey::kAddress,
                                         options, "sorted", 64);
  ASSERT_NE(sorted, nullptr);
  auto expected = records;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const scan::ScanRecord& x, const scan::ScanRecord& y) {
                     return x.target < y.target;
                   });
  expect_same_records(sorted->materialize(), expected);
}

std::vector<scan::ScanRecord> sorted_by_address(
    std::vector<scan::ScanRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const scan::ScanRecord& x, const scan::ScanRecord& y) {
              return x.target < y.target;
            });
  return records;
}

TEST(RecordStoreTest, MergeOfPreSortedSourcesInterleaves) {
  StoreOptions spilled;
  spilled.dir = temp_dir("store_merge");
  spilled.records_per_block = 16;
  spilled.max_resident_bytes = 1024;  // the spilled source reads from disk
  StoreOptions resident;
  resident.records_per_block = 16;
  const auto all = sorted_by_address(make_records(400));
  // Interleaving key ranges from spilled, resident and empty sources.
  RecordStore a(spilled, "merge_a"), b(resident, "merge_b");
  RecordStore empty(resident, "merge_empty");
  for (std::size_t i = 0; i < all.size(); ++i)
    (i % 3 == 0 ? a : b).append(all[i]);
  for (RecordStore* store : {&a, &b, &empty}) store->seal();

  const auto merged = store::merge_sorted_stores(
      {&a, &empty, &b}, store::SortKey::kAddress, spilled, "merged");
  ASSERT_NE(merged, nullptr);
  EXPECT_TRUE(merged->spills());
  expect_same_records(merged->materialize(), all);
}

TEST(RecordStoreTest, SingleRunSortAppendsStraightIntoOutput) {
  StoreOptions options;
  options.dir = temp_dir("store_single_run");
  options.records_per_block = 16;
  auto records = make_records(300);
  util::Rng rng(7);
  for (std::size_t i = records.size(); i > 1; --i)
    std::swap(records[i - 1], records[rng.next() % i]);
  RecordStore source(options, "single_source");
  for (const auto& record : records) source.append(record);
  source.seal();

  obs::MetricsRegistry metrics;
  StoreOptions counted = options;
  counted.telemetry.sealed_blocks = metrics.counter("sealed_blocks");
  const auto sorted = store::sort_stores({&source}, store::SortKey::kAddress,
                                         counted, "single_sorted",
                                         records.size());
  ASSERT_NE(sorted, nullptr);
  expect_same_records(sorted->materialize(), sorted_by_address(records));
  // Only the output sealed blocks: no intermediate run store was written.
  EXPECT_EQ(metrics.snapshot().counters.at(0).value, sorted->block_count());
}

TEST(RecordStoreTest, MergeFailsClosedOnDamagedSource) {
  StoreOptions options;
  options.dir = temp_dir("store_merge_damage");
  options.records_per_block = 16;
  options.max_resident_bytes = 1;  // evict all, so reads go to the segment
  const auto records = sorted_by_address(make_records(200));
  RecordStore good(options, "merge_good"), damaged(options, "merge_bad");
  for (std::size_t i = 0; i < records.size(); ++i)
    (i % 2 == 0 ? good : damaged).append(records[i]);
  good.seal();
  damaged.seal();
  // Damage a middle block, which eviction has dropped from RAM.
  const std::string seg = options.dir + "/merge_bad.seg";
  flip_byte(seg, std::filesystem::file_size(seg) / 2);
  EXPECT_EQ(store::merge_sorted_stores({&good, &damaged},
                                       store::SortKey::kAddress, options,
                                       "merge_out"),
            nullptr);
  // The failed merge leaves no output behind.
  EXPECT_FALSE(std::filesystem::exists(options.dir + "/merge_out.seg"));
}

TEST(RecordStoreTest, ManifestJsonRoundTrip) {
  store::StoreManifest manifest;
  manifest.name = "round_trip";
  manifest.committed_records = 0x1234567890abcdefULL;
  manifest.committed_bytes = ~std::uint64_t{0};
  manifest.block_count = 77;
  manifest.tail_hex = "deadbeef";
  store::RecordPatch patch;
  patch.extra_responses = 3;
  patch.extra_engines.push_back(
      snmp::EngineId(util::Bytes{0x80, 0x00, 0x1f, 0x88, 0x01}));
  manifest.patches.emplace_back(42, patch);

  std::string json;
  store::write_manifest_json(json, manifest);
  const auto parsed = obs::JsonValue::parse(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  const auto back = store::read_manifest_json(*parsed);
  EXPECT_EQ(back.name, manifest.name);
  EXPECT_EQ(back.committed_records, manifest.committed_records);
  EXPECT_EQ(back.committed_bytes, manifest.committed_bytes);
  EXPECT_EQ(back.block_count, manifest.block_count);
  EXPECT_EQ(back.tail_hex, manifest.tail_hex);
  ASSERT_EQ(back.patches.size(), 1u);
  EXPECT_EQ(back.patches[0].first, 42u);
  EXPECT_EQ(back.patches[0].second.extra_responses, 3u);
  EXPECT_EQ(back.patches[0].second.extra_engines,
            manifest.patches[0].second.extra_engines);
}

// ---- campaigns and pipeline -----------------------------------------------

class StoreCampaignTest : public ::testing::Test {
 protected:
  static scan::CampaignOptions base_options() {
    scan::CampaignOptions options;
    options.seed = 77;
    options.shards = 4;
    options.fabric.probe_loss = 0.02;
    options.fabric.response_loss = 0.02;
    return options;
  }

  static topo::World fresh_world() {
    return topo::generate_world(topo::WorldConfig::tiny());
  }
};

TEST_F(StoreCampaignTest, StoreBackedCampaignBitIdenticalAtAnyThreadCount) {
  topo::World reference_world = fresh_world();
  const auto reference =
      scan::run_two_scan_campaign(reference_world, base_options());
  ASSERT_GT(reference.scan1.responsive(), 0u);
  EXPECT_FALSE(reference.scan1.store->spills());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto options = base_options();
    options.parallel.threads = threads;
    options.store.dir = temp_dir("campaign_t" + std::to_string(threads));
    options.store.records_per_block = 8;
    options.store.max_resident_bytes = 4096;
    topo::World world = fresh_world();
    const auto pair = scan::run_two_scan_campaign(world, options);
    EXPECT_TRUE(pair.scan1.store->spills());
    EXPECT_TRUE(pair.scan2.store->spills());
    expect_same_scan(pair.scan1, reference.scan1);
    expect_same_scan(pair.scan2, reference.scan2);
  }
}

// ---- full pipeline --------------------------------------------------------

class StorePipelineTest : public ::testing::Test {
 protected:
  static core::PipelineOptions base_options() {
    core::PipelineOptions options;
    options.world = topo::WorldConfig::tiny();
    options.seed = 20210413;
    return options;
  }
};

TEST_F(StorePipelineTest, StoreModePipelineBitIdenticalAtAnyThreadCount) {
  const auto reference = core::run_full_pipeline(base_options());
  ASSERT_GT(reference.v4_joined.size(), 0u);
  ASSERT_GT(reference.devices.size(), 0u);
  EXPECT_FALSE(reference.v4_campaign.scan1.store->spills());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto options = base_options();
    options.parallel.threads = threads;
    options.store.dir = temp_dir("pipeline_t" + std::to_string(threads));
    options.store.records_per_block = 8;
    options.store.max_resident_bytes = 4096;
    const auto result = core::run_full_pipeline(options);

    EXPECT_TRUE(result.v4_campaign.scan1.store->spills());
    EXPECT_TRUE(result.v6_campaign.scan1.store->spills());
    expect_same_pipeline_result(result, reference);
  }
}

}  // namespace
}  // namespace snmpv3fp
