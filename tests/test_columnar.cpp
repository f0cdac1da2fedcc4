// Columnar analysis + stage-overlap tests.
//
// The load-bearing guarantees: (1) the columnar block pivot is lossless —
// row(i) reconstructs the exact ScanRecord, the single-pass columnar block
// decoder accepts and rejects exactly what the row decoder does, and the
// columnar store cursor agrees with the row cursor including patch
// overlays; (2) the radix-hash alias grouping reproduces the canonical
// map-based grouping bit for bit at any thread count; (3) the columnar
// filter funnel agrees with the sequential reference funnel
// (filter_oracle.hpp) at 1/2/8 threads, fed whole or in uneven slices. A
// store-backed pipeline killed mid-campaign and resumed through the
// overlapped join+filter is tests/test_crash.cpp's.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "result_equal.hpp"
#include "core/columnar.hpp"
#include "core/pipeline.hpp"
#include "filter_oracle.hpp"
#include "scan/checkpoint.hpp"
#include "sim/faults.hpp"
#include "store/codec.hpp"
#include "store/columnar.hpp"
#include "store/record_store.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp {
namespace {


using store::ColumnarBlock;
using store::EngineDictionary;
using store::RecordStore;
using store::StoreOptions;

std::string temp_dir(const std::string& name) {
  const auto dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Same deliberately varied record shapes as test_store.cpp: v4/v6 mix,
// missing / long / duplicate engine IDs, extra engines.
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
    // i % 16 collapses many records onto the same ID — the dictionary must
    // see real duplicates, not only distinct entries.
    util::Bytes id{0x80, 0x00, 0x1f, 0x88, static_cast<std::uint8_t>(i % 16),
                   static_cast<std::uint8_t>(i % 3)};
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

std::vector<scan::ScanRecord> make_records(std::size_t n) {
  std::vector<scan::ScanRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) records.push_back(make_record(i));
  return records;
}

void expect_same_record(const scan::ScanRecord& a, const scan::ScanRecord& b,
                        std::size_t i) {
  ASSERT_EQ(a.target, b.target) << "record " << i;
  EXPECT_EQ(a.engine_id, b.engine_id) << "record " << i;
  EXPECT_EQ(a.engine_boots, b.engine_boots) << "record " << i;
  EXPECT_EQ(a.engine_time, b.engine_time) << "record " << i;
  EXPECT_EQ(a.send_time, b.send_time) << "record " << i;
  EXPECT_EQ(a.receive_time, b.receive_time) << "record " << i;
  EXPECT_EQ(a.response_count, b.response_count) << "record " << i;
  EXPECT_EQ(a.response_bytes, b.response_bytes) << "record " << i;
  EXPECT_EQ(a.extra_engines, b.extra_engines) << "record " << i;
}

// ---- EngineDictionary -----------------------------------------------------

TEST(EngineDictionaryTest, CodesAreDenseStableAndFirstAppearanceOrdered) {
  EngineDictionary dict;
  // The empty ID is an ordinary entry.
  EXPECT_EQ(dict.encode({}), 0u);
  util::Bytes a{0x80, 0x01};
  util::Bytes b{0x80, 0x02, 0x03};
  EXPECT_EQ(dict.encode(a), 1u);
  EXPECT_EQ(dict.encode(b), 2u);
  // Re-encoding returns the existing code; entries never move.
  EXPECT_EQ(dict.encode(a), 1u);
  EXPECT_EQ(dict.encode({}), 0u);
  ASSERT_EQ(dict.size(), 3u);
  EXPECT_TRUE(dict.entries()[0].raw().empty());
  EXPECT_EQ(dict.entries()[1].raw(), a);
  EXPECT_EQ(dict.entries()[2].raw(), b);

  std::uint32_t code = 99;
  EXPECT_TRUE(dict.find(b, code));
  EXPECT_EQ(code, 2u);
  EXPECT_FALSE(dict.find(util::Bytes{0x77}, code));
}

TEST(EngineDictionaryTest, SurvivesGrowthPastInitialCapacity) {
  EngineDictionary dict;
  std::vector<util::Bytes> ids;
  for (std::size_t i = 0; i < 500; ++i) {
    ids.push_back(util::Bytes{0x80, static_cast<std::uint8_t>(i),
                              static_cast<std::uint8_t>(i >> 8), 0x44});
    EXPECT_EQ(dict.encode(ids.back()), i);
  }
  ASSERT_EQ(dict.size(), 500u);
  // Every code still resolves after the table grew several times.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::uint32_t code = 0;
    ASSERT_TRUE(dict.find(ids[i], code));
    EXPECT_EQ(code, i);
    EXPECT_EQ(dict.entries()[i].raw(), ids[i]);
  }
}

// ---- block pivot ----------------------------------------------------------

TEST(ColumnarBlockTest, FromRecordsRoundTripsEveryRow) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{512}}) {
    const auto records = make_records(n);
    const auto block = ColumnarBlock::from_records(records);
    ASSERT_EQ(block.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      expect_same_record(block.row(i), records[i], i);
      EXPECT_EQ(block.last_reboot(i), records[i].last_reboot());
    }
    // The dictionary actually deduplicates (make_record collapses IDs onto
    // ~16 shapes plus the empty ID and the long variants).
    if (n == 512) EXPECT_LT(block.dictionary().size(), n / 4);
  }
}

TEST(ColumnarBlockTest, DecodeColumnarMatchesRowDecode) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{512}}) {
    const auto records = make_records(n);
    const auto encoded = store::encode_block(records);
    const auto rows = store::decode_block(encoded);
    ASSERT_TRUE(rows.ok()) << rows.error();
    auto columnar = store::decode_block_columnar(encoded);
    ASSERT_TRUE(columnar.ok()) << columnar.error();
    ASSERT_EQ(columnar.value().size(), rows.value().size());
    for (std::size_t i = 0; i < rows.value().size(); ++i)
      expect_same_record(columnar.value().row(i), rows.value()[i], i);
  }
}

// Fail-closed parity: the single-pass columnar decoder must reject every
// truncation the row decoder rejects, and must never disagree with it on
// the fault-mutation corpus — same accept/reject verdict, and identical
// records whenever both accept.
TEST(ColumnarBlockTest, TruncationsRejectedExactlyLikeRowDecode) {
  const auto records = make_records(48);
  const auto encoded = store::encode_block(records);
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    const util::Bytes prefix(encoded.begin(), encoded.begin() + len);
    EXPECT_FALSE(store::decode_block_columnar(prefix).ok()) << "length " << len;
    EXPECT_FALSE(store::decode_block(prefix).ok()) << "length " << len;
  }
}

TEST(ColumnarBlockTest, FaultCorpusVerdictsMatchRowDecode) {
  const auto records = make_records(64);
  const auto encoded = store::encode_block(records);
  for (std::size_t kind = 0; kind < sim::kFaultKindCount; ++kind) {
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
      util::Rng rng(seed * 1000 + kind);
      const auto mutated =
          sim::apply_fault(encoded, static_cast<sim::FaultKind>(kind), rng);
      const auto rows = store::decode_block(mutated);
      const auto columnar = store::decode_block_columnar(mutated);
      ASSERT_EQ(columnar.ok(), rows.ok())
          << sim::to_string(static_cast<sim::FaultKind>(kind)) << " seed "
          << seed << ": columnar "
          << (columnar.ok() ? "accepted" : columnar.error()) << ", row "
          << (rows.ok() ? "accepted" : rows.error());
      if (!rows.ok()) continue;
      // Both accepted (the mutation was a byte-level no-op): the records
      // must still agree. The clean accept path is covered by
      // DecodeColumnarMatchesRowDecode.
      ASSERT_EQ(columnar.value().size(), rows.value().size());
      for (std::size_t i = 0; i < rows.value().size(); ++i)
        expect_same_record(columnar.value().row(i), rows.value()[i], i);
    }
  }
}

// ---- columnar store cursor ------------------------------------------------

TEST(ColumnarCursorTest, MatchesRowCursorOnPatchedSpilledStore) {
  StoreOptions options;
  options.dir = temp_dir("columnar_cursor");
  options.records_per_block = 16;
  options.max_resident_bytes = 2048;  // force spill + eviction
  RecordStore store(options, "patched");
  const auto records = make_records(200);
  for (const auto& record : records) store.append(record);

  // Patch overlays on sealed rows and on the unsealed tail: extra
  // responses and extra engines must come through the columnar cursor.
  const snmp::EngineId other(util::Bytes{0x80, 0x00, 0x00, 0x63, 0x01});
  for (const std::size_t index : {3u, 3u, 40u, 130u, 197u})
    store.note_duplicate(index, &other);
  store.note_duplicate(77, nullptr);
  store.seal();
  ASSERT_TRUE(store.status().ok()) << store.status().error();

  std::vector<scan::ScanRecord> via_rows;
  {
    auto cursor = store.cursor();
    scan::ScanRecord record;
    while (cursor.next(record)) via_rows.push_back(record);
    ASSERT_TRUE(cursor.error().empty()) << cursor.error();
  }
  std::vector<scan::ScanRecord> via_columns;
  {
    auto cursor = store.columnar_cursor();
    ColumnarBlock block;
    std::size_t expected_base = 0;
    while (cursor.next_block(block)) {
      EXPECT_EQ(cursor.base(), expected_base);
      expected_base += block.size();
      for (std::size_t i = 0; i < block.size(); ++i)
        via_columns.push_back(block.row(i));
    }
    ASSERT_TRUE(cursor.error().empty()) << cursor.error();
  }
  ASSERT_EQ(via_columns.size(), via_rows.size());
  ASSERT_EQ(via_columns.size(), store.size());
  for (std::size_t i = 0; i < via_rows.size(); ++i)
    expect_same_record(via_columns[i], via_rows[i], i);
}

TEST(ColumnarCursorTest, FailsClosedOnDamagedSegment) {
  StoreOptions options;
  options.dir = temp_dir("columnar_cursor_damage");
  options.records_per_block = 16;
  options.max_resident_bytes = 1024;  // evict so reads go to disk
  store::StoreManifest manifest;
  {
    RecordStore store(options, "damaged");
    for (const auto& record : make_records(128)) store.append(record);
    store.seal();
    manifest = store.manifest();
  }
  const auto seg = options.dir + "/damaged.seg";
  const auto size = std::filesystem::file_size(seg);
  {
    std::fstream file(seg, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(size / 2));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }
  auto restored = RecordStore::restore(options, manifest);
  ASSERT_NE(restored, nullptr);
  auto cursor = restored->columnar_cursor();
  ColumnarBlock block;
  while (cursor.next_block(block)) {
  }
  EXPECT_FALSE(cursor.error().empty());
}

// ---- columnar filter funnel -----------------------------------------------

// One synthetic record per filter stage (plus clean survivors): the
// columnar verdict pass and the reference oracle must agree on report AND
// survivors for an input where every stage fires, at several thread counts.
std::vector<core::JoinedRecord> stage_zoo() {
  // All times sit well after the epoch guard (virtual 0 = April 2021).
  const util::VTime rx = 1000 * util::kSecond;
  const auto base = [&](std::uint8_t tag) {
    core::JoinedRecord r;
    r.address = net::IpAddress(net::Ipv4(203, 0, 113, tag));
    r.first.target = r.second.target = r.address;
    r.first.engine_id = r.second.engine_id =
        snmp::EngineId::make_octets(9, util::Bytes{0x10, tag});
    r.first.engine_boots = r.second.engine_boots = 3;
    r.first.engine_time = r.second.engine_time = 500;
    r.first.send_time = r.second.send_time = rx - 31;
    r.first.receive_time = r.second.receive_time = rx;
    r.first.response_count = r.second.response_count = 1;
    r.first.response_bytes = r.second.response_bytes = 100;
    return r;
  };
  std::vector<core::JoinedRecord> zoo;
  {  // missing engine ID
    auto r = base(1);
    r.first.engine_id = snmp::EngineId();
    zoo.push_back(r);
  }
  {  // inconsistent engine IDs between scans
    auto r = base(2);
    r.second.engine_id = snmp::EngineId::make_octets(9, util::Bytes{0x77});
    zoo.push_back(r);
  }
  {  // too short (< 4 bytes)
    auto r = base(3);
    r.first.engine_id = r.second.engine_id =
        snmp::EngineId(util::Bytes{0x01, 0x02});
    zoo.push_back(r);
  }
  {  // promiscuous: identical payload under two different enterprises
    auto a = base(4);
    a.first.engine_id = a.second.engine_id =
        snmp::EngineId::make_octets(9, util::Bytes{0xaa, 0xbb});
    auto b = base(5);
    b.first.engine_id = b.second.engine_id =
        snmp::EngineId::make_octets(99, util::Bytes{0xaa, 0xbb});
    zoo.push_back(a);
    zoo.push_back(b);
  }
  {  // census population: a payload shared under another enterprise only by
     // a record that already failed an earlier stage is NOT promiscuous —
     // the census counts the records alive at its position
    auto dead = base(13);
    dead.first.engine_id =
        snmp::EngineId::make_octets(77, util::Bytes{0xaa, 0xcc});
    dead.second.engine_id = snmp::EngineId();
    auto alive = base(14);
    alive.first.engine_id = alive.second.engine_id =
        snmp::EngineId::make_octets(9, util::Bytes{0xaa, 0xcc});
    zoo.push_back(dead);
    zoo.push_back(alive);
  }
  {  // IPv4-format engine ID with a non-routable (private) address
    auto r = base(6);
    r.first.engine_id = r.second.engine_id =
        snmp::EngineId::make_ipv4(9, net::Ipv4(10, 1, 2, 3));
    zoo.push_back(r);
  }
  {  // MAC-format engine ID with an unregistered OUI
    auto r = base(7);
    r.first.engine_id = r.second.engine_id = snmp::EngineId::make_mac(
        9, net::MacAddress({0xfd, 0xfd, 0xfd, 0x01, 0x02, 0x03}));
    zoo.push_back(r);
  }
  {  // zero engine time
    auto r = base(8);
    r.first.engine_time = r.second.engine_time = 0;
    zoo.push_back(r);
  }
  {  // zero engine boots (scan 2 only — both scans are checked)
    auto r = base(9);
    r.second.engine_boots = 0;
    zoo.push_back(r);
  }
  {  // engine time in the future: last reboot before the Unix epoch
    auto r = base(10);
    r.first.engine_time = r.second.engine_time = 4000000000u;
    zoo.push_back(r);
  }
  {  // boots mismatch between scans
    auto r = base(11);
    r.second.engine_boots = 4;
    zoo.push_back(r);
  }
  {  // last-reboot drift above the 10 s threshold
    auto r = base(12);
    r.second.receive_time += 100 * util::kSecond;
    zoo.push_back(r);
  }
  // Clean survivors, including two sharing one engine ID (dictionary
  // dedup must not merge their verdicts with the promiscuous pair).
  zoo.push_back(base(20));
  zoo.push_back(base(21));
  {
    auto r = base(22);
    r.first.engine_id = r.second.engine_id = zoo.back().first.engine_id;
    zoo.push_back(r);
  }
  return zoo;
}

// Runs apply_columnar at 1/2/8 threads and checks it against the reference
// oracle: same drop accounting, same survivors in the same order.
void expect_matches_oracle(const std::vector<core::JoinedRecord>& input) {
  const core::FilterPipeline pipeline{core::FilterOptions{}};
  auto expected = input;
  const auto expected_report = oracle::filter(expected);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ParallelOptions parallel;
    parallel.threads = threads;
    std::vector<core::JoinedRecord> survivors;
    const auto report = pipeline.apply_columnar(input, survivors, parallel);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(report.input, expected_report.input);
    EXPECT_EQ(report.output, expected_report.output);
    EXPECT_EQ(report.dropped, expected_report.dropped);
    ASSERT_EQ(survivors.size(), expected.size());
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      EXPECT_EQ(survivors[i].address, expected[i].address) << "record " << i;
      EXPECT_EQ(survivors[i].first.engine_id, expected[i].first.engine_id);
      EXPECT_EQ(survivors[i].second.receive_time,
                expected[i].second.receive_time);
    }
  }
}

TEST(ColumnarFilterTest, MatchesApplyAndStreamOnStageZoo) {
  const auto zoo = stage_zoo();
  // Every stage actually fires (the zoo is wired to hit all ten).
  auto survivors = zoo;
  const auto report = oracle::filter(survivors);
  for (std::size_t stage = 0; stage < core::kFilterStageCount; ++stage)
    EXPECT_GT(report.dropped[stage], 0u)
        << core::to_string(static_cast<core::FilterStage>(stage));
  expect_matches_oracle(zoo);
}

TEST(ColumnarFilterTest, MatchesApplyOnCampaignData) {
  auto world = topo::generate_world(topo::WorldConfig::tiny());
  scan::CampaignOptions options;
  options.seed = 31;
  options.shards = 2;
  const auto pair = scan::run_two_scan_campaign(world, options);
  auto joined = core::join_scans(pair.scan1, pair.scan2);
  ASSERT_GT(joined.size(), 4u);
  expect_matches_oracle(joined);

  // Force a promiscuous payload: reuse one record's engine payload under a
  // different enterprise so the global stage has something to drop.
  auto raw = joined[0].first.engine_id.raw();
  ASSERT_GT(raw.size(), 4u);
  raw[1] = 0x00;
  raw[2] = 0x00;
  raw[3] = 0x63;
  joined[4].first.engine_id = snmp::EngineId(raw);
  joined[4].second.engine_id = joined[4].first.engine_id;
  auto survivors = joined;
  EXPECT_GT(oracle::filter(survivors).dropped_at(
                core::FilterStage::kPromiscuousEngineId),
            0u);
  expect_matches_oracle(joined);
}

// Incremental feeding must be equivalent to one pass: the funnel fed in
// uneven slices returns the same report as apply_columnar whole.
TEST(ColumnarFilterTest, IncrementalFeedMatchesOneShot) {
  const auto zoo = stage_zoo();
  const core::FilterPipeline pipeline{core::FilterOptions{}};
  std::vector<core::JoinedRecord> whole;
  const auto whole_report = pipeline.apply_columnar(zoo, whole);

  core::ColumnarFunnel funnel(pipeline.options());
  const std::size_t cuts[] = {1, 3, 4, 9, zoo.size()};
  std::size_t begin = 0;
  for (const std::size_t end : cuts) {
    funnel.feed_rows(
        std::span<const core::JoinedRecord>(zoo).subspan(begin, end - begin));
    begin = end;
  }
  EXPECT_EQ(funnel.rows_fed(), zoo.size());
  std::vector<core::JoinedRecord> survivors;
  const auto report = funnel.finish(zoo, survivors);
  EXPECT_EQ(report.input, whole_report.input);
  EXPECT_EQ(report.output, whole_report.output);
  EXPECT_EQ(report.dropped, whole_report.dropped);
  ASSERT_EQ(survivors.size(), whole.size());
  for (std::size_t i = 0; i < survivors.size(); ++i)
    EXPECT_EQ(survivors[i].address, whole[i].address);
}

// ---- radix alias grouping -------------------------------------------------

// Reference reimplementation of the documented grouping semantics with a
// std::map (the pre-radix algorithm): canonical order is (engine-ID bytes,
// boots1, reboot1, boots2, reboot2) lexicographic; the representative
// boots/last_reboot come from the group's first record in input order;
// addresses are sorted per set.
std::int64_t reference_match_key(core::RebootMatch match,
                                 util::VTime last_reboot) {
  const double seconds = util::to_seconds(last_reboot);
  switch (match) {
    case core::RebootMatch::kExact:
      return static_cast<std::int64_t>(std::floor(seconds));
    case core::RebootMatch::kRound:
      return static_cast<std::int64_t>(std::llround(seconds / 10.0));
    case core::RebootMatch::kDivide20:
      return static_cast<std::int64_t>(std::floor(seconds / 20.0));
    case core::RebootMatch::kDivide20Round:
      return static_cast<std::int64_t>(std::llround(seconds / 20.0));
  }
  return 0;
}

core::AliasResolution reference_resolve(
    std::span<const core::JoinedRecord> records,
    const core::AliasOptions& options) {
  using Key = std::tuple<util::Bytes, std::uint32_t, std::int64_t,
                         std::uint32_t, std::int64_t>;
  std::map<Key, core::AliasSet> groups;
  for (const auto& record : records) {
    Key key{record.engine_id().raw(), 0, 0, 0, 0};
    if (!options.engine_id_only) {
      std::get<1>(key) = record.first.engine_boots;
      std::get<2>(key) =
          reference_match_key(options.match, record.first.last_reboot());
      if (options.use_both_scans) {
        std::get<3>(key) = record.second.engine_boots;
        std::get<4>(key) =
            reference_match_key(options.match, record.second.last_reboot());
      }
    }
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) {
      it->second.engine_id = record.engine_id();
      it->second.engine_boots = record.first.engine_boots;
      it->second.last_reboot = record.first.last_reboot();
    }
    it->second.addresses.push_back(record.address);
  }
  core::AliasResolution resolution;
  for (auto& [key, set] : groups) {
    std::sort(set.addresses.begin(), set.addresses.end());
    resolution.sets.push_back(std::move(set));
  }
  return resolution;
}

// A 42-engine zoo: 42 distinct engine IDs spread over many addresses with
// colliding and differing boots/reboot tuples, v4 and v6 mixed.
std::vector<core::JoinedRecord> alias_zoo() {
  std::vector<core::JoinedRecord> records;
  const util::VTime rx = 5000 * util::kSecond;
  for (std::size_t i = 0; i < 420; ++i) {
    core::JoinedRecord r;
    if (i % 4 == 0) {
      std::array<std::uint8_t, 16> bytes{};
      bytes[0] = 0x20;
      bytes[1] = 0x01;
      bytes[15] = static_cast<std::uint8_t>(i);
      bytes[14] = static_cast<std::uint8_t>(i >> 8);
      r.address = net::IpAddress(net::Ipv6(bytes));
    } else {
      r.address = net::IpAddress(
          net::Ipv4(198, 18, static_cast<std::uint8_t>(i >> 8),
                    static_cast<std::uint8_t>(i)));
    }
    // 42 distinct engines; several boots/reboot variants per engine so the
    // tuple actually splits sets.
    r.first.engine_id = r.second.engine_id = snmp::EngineId::make_octets(
        9, util::Bytes{static_cast<std::uint8_t>(i % 42), 0x55});
    r.first.engine_boots = r.second.engine_boots =
        static_cast<std::uint32_t>(1 + (i / 42) % 3);
    r.first.engine_time = static_cast<std::uint32_t>(100 + (i / 126) * 7);
    r.second.engine_time = r.first.engine_time + (i % 2 ? 9u : 25u);
    r.first.receive_time = rx + static_cast<util::VTime>(i % 5);
    r.second.receive_time =
        r.first.receive_time +
        static_cast<util::VTime>(r.second.engine_time - r.first.engine_time) *
            util::kSecond +
        (i % 3 ? util::kSecond * 4 : 0);
    r.first.target = r.second.target = r.address;
    records.push_back(r);
  }
  return records;
}

TEST(ColumnarAliasTest, RadixGroupingMatchesMapReferenceAcrossVariants) {
  const auto records = alias_zoo();
  std::vector<core::AliasOptions> variants;
  for (const auto match :
       {core::RebootMatch::kExact, core::RebootMatch::kRound,
        core::RebootMatch::kDivide20, core::RebootMatch::kDivide20Round}) {
    core::AliasOptions options;
    options.match = match;
    variants.push_back(options);
    options.use_both_scans = false;
    variants.push_back(options);
  }
  {
    core::AliasOptions options;
    options.engine_id_only = true;
    variants.push_back(options);
  }

  for (const auto& options : variants) {
    const auto reference = reference_resolve(records, options);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      util::ParallelOptions parallel;
      parallel.threads = threads;
      const auto resolution = core::resolve_aliases(records, options, parallel);
      ASSERT_EQ(resolution.sets.size(), reference.sets.size())
          << to_string(options.match) << " both=" << options.use_both_scans
          << " id_only=" << options.engine_id_only << " threads=" << threads;
      for (std::size_t i = 0; i < resolution.sets.size(); ++i) {
        EXPECT_EQ(resolution.sets[i].addresses, reference.sets[i].addresses)
            << "set " << i << " threads " << threads;
        EXPECT_EQ(resolution.sets[i].engine_id, reference.sets[i].engine_id);
        EXPECT_EQ(resolution.sets[i].engine_boots,
                  reference.sets[i].engine_boots);
        EXPECT_EQ(resolution.sets[i].last_reboot,
                  reference.sets[i].last_reboot);
      }
    }
  }
}

// Multi-span input (the pipeline's v4+v6 form) must equal concatenation.
TEST(ColumnarAliasTest, MultiSpanMatchesConcatenation) {
  const auto records = alias_zoo();
  const std::size_t cut = records.size() / 3;
  const std::span<const core::JoinedRecord> whole(records);
  const std::span<const core::JoinedRecord> parts[] = {whole.first(cut),
                                                       whole.subspan(cut)};
  const auto split = core::resolve_aliases(
      std::span<const std::span<const core::JoinedRecord>>(parts));
  const auto joined = core::resolve_aliases(whole);
  ASSERT_EQ(split.sets.size(), joined.sets.size());
  for (std::size_t i = 0; i < split.sets.size(); ++i) {
    EXPECT_EQ(split.sets[i].addresses, joined.sets[i].addresses);
    EXPECT_EQ(split.sets[i].engine_id, joined.sets[i].engine_id);
  }
}

}  // namespace
}  // namespace snmpv3fp
