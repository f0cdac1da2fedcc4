// Columnar analysis tests.
//
// The load-bearing guarantees: (1) the radix-hash alias grouping
// reproduces the canonical map-based grouping bit for bit at any thread
// count; (2) the columnar filter funnel agrees with the sequential
// reference funnel (filter_oracle.hpp) at 1/2/8 threads, fed whole or in
// uneven slices. A store-backed pipeline killed mid-campaign and resumed
// through the overlapped join+filter is tests/test_crash.cpp's.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/columnar.hpp"
#include "core/pipeline.hpp"
#include "filter_oracle.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp {
namespace {

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
