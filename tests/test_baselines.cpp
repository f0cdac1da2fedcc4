#include <gtest/gtest.h>

#include "baselines/compare.hpp"
#include "baselines/midar.hpp"
#include "baselines/nmap_lite.hpp"
#include "baselines/router_names.hpp"
#include "baselines/speedtrap.hpp"
#include "baselines/ttl_fingerprint.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp::baselines {
namespace {

// ---------------------------------------------------------------------------
// Monotonic bounds test
// ---------------------------------------------------------------------------

TEST(Mbt, AcceptsSharedCounterInterleaving) {
  std::vector<std::pair<util::VTime, std::uint32_t>> samples;
  std::uint32_t counter = 100;
  for (int i = 0; i < 8; ++i) {
    samples.emplace_back(i * util::kSecond, counter % 65536);
    counter += 50;  // 50 ids/s
  }
  EXPECT_TRUE(monotonic_bounds_test(samples, 65536, 100.0));
}

TEST(Mbt, AcceptsWrapAround) {
  std::vector<std::pair<util::VTime, std::uint32_t>> samples = {
      {0, 65500}, {util::kSecond, 20}, {2 * util::kSecond, 80}};
  EXPECT_TRUE(monotonic_bounds_test(samples, 65536, 100.0));
}

TEST(Mbt, RejectsOffsetCounters) {
  // Two counters with the same velocity but bases 30k apart, interleaved.
  std::vector<std::pair<util::VTime, std::uint32_t>> samples;
  for (int i = 0; i < 4; ++i) {
    samples.emplace_back((2 * i) * util::kSecond, (100 + i * 50) % 65536);
    samples.emplace_back((2 * i + 1) * util::kSecond,
                         (30100 + i * 50) % 65536);
  }
  EXPECT_FALSE(monotonic_bounds_test(samples, 65536, 100.0));
}

TEST(Mbt, RejectsRandomIds) {
  util::Rng rng(5);
  std::vector<std::pair<util::VTime, std::uint32_t>> samples;
  for (int i = 0; i < 8; ++i)
    samples.emplace_back(i * util::kSecond,
                         static_cast<std::uint32_t>(rng.next() % 65536));
  EXPECT_FALSE(monotonic_bounds_test(samples, 65536, 100.0));
}

TEST(Mbt, RejectsTooFewSamples) {
  EXPECT_FALSE(monotonic_bounds_test({{0, 1}}, 65536, 100.0));
  EXPECT_FALSE(monotonic_bounds_test({}, 65536, 100.0));
}

// ---------------------------------------------------------------------------
// MIDAR / Speedtrap on ground truth
// ---------------------------------------------------------------------------

class BaselineWorld : public ::testing::Test {
 protected:
  BaselineWorld()
      : world_(topo::generate_world(topo::WorldConfig::tiny())),
        stack_(world_, 99) {}

  std::int64_t truth_of(const net::IpAddress& address) const {
    const auto index = world_.device_index_at(address);
    return index == topo::kNoDevice ? -1 : static_cast<std::int64_t>(index);
  }

  topo::World world_;
  sim::StackSimulator stack_;
};

TEST_F(BaselineWorld, MidarPrecisionIsHigh) {
  std::vector<net::IpAddress> targets = world_.addresses(net::Family::kIpv4);
  if (targets.size() > 4000) targets.resize(4000);
  const auto result = run_midar(stack_, targets, 0);

  // Output must be a partition of the v4 targets.
  std::size_t total = 0;
  for (const auto& set : result.alias_sets) total += set.size();
  EXPECT_EQ(total, targets.size());

  const auto metrics = pair_metrics(
      result.alias_sets,
      [&](const net::IpAddress& a) { return truth_of(a); }, targets);
  if (metrics.inferred_pairs > 0) {
    EXPECT_GT(metrics.precision(), 0.9);
  }
  // Random/fast/filtered counters mean recall is far below 1 — the paper's
  // core argument for SNMPv3.
  EXPECT_LT(metrics.recall(), 0.8);
}

TEST_F(BaselineWorld, SpeedtrapPrecisionIsHigh) {
  std::vector<net::IpAddress> targets = world_.addresses(net::Family::kIpv6);
  if (targets.size() > 3000) targets.resize(3000);
  if (targets.size() < 10) GTEST_SKIP() << "tiny world lacks IPv6";
  const auto result = run_speedtrap(stack_, targets, 0);
  const auto metrics = pair_metrics(
      result.alias_sets,
      [&](const net::IpAddress& a) { return truth_of(a); }, targets);
  if (metrics.inferred_pairs > 0) {
    EXPECT_GT(metrics.precision(), 0.85);
  }
}

// ---------------------------------------------------------------------------
// Router Names
// ---------------------------------------------------------------------------

TEST(RouterNames, SuffixRuleExtraction) {
  EXPECT_EQ(extract_suffix_rule("xe-0-0-1.fra-cr12.as333.eu.example.net"),
            "fra-cr12.as333.eu.example.net");
  // Nothing device-specific left after stripping: rejected.
  EXPECT_EQ(extract_suffix_rule("ip-8-1-2-3.as333.eu.example.net"), "");
  EXPECT_EQ(extract_suffix_rule("nodots"), "");
}

TEST(RouterNames, DashRuleExtraction) {
  EXPECT_EQ(extract_dash_rule("fra-cr12-xe0-0-1.as333.eu.example.net"),
            "fra-cr12.as333.eu.example.net");
  EXPECT_EQ(extract_dash_rule("fra-cr12-eth3.as333.eu.example.net"),
            "fra-cr12.as333.eu.example.net");
  // No interface suffix: rejected.
  EXPECT_EQ(extract_dash_rule("www.as333.eu.example.net"), "");
}

TEST(RouterNames, GroupsInterfacesOfOneRouter) {
  std::vector<topo::PtrRecord> records;
  for (int i = 0; i < 4; ++i)
    records.push_back({net::IpAddress(net::Ipv4(8, 0, 0,
                                                static_cast<std::uint8_t>(i))),
                       "xe-0-0-" + std::to_string(i) +
                           ".fra-cr1.as1.eu.example.net"});
  records.push_back({net::IpAddress(net::Ipv4(8, 0, 1, 1)),
                     "xe-0-0-0.ams-cr2.as1.eu.example.net"});
  const auto result = run_router_names(records);
  EXPECT_EQ(result.domains_with_rule, 1u);
  ASSERT_EQ(result.alias_sets.size(), 2u);
  const auto& big = result.alias_sets[0].size() == 4 ? result.alias_sets[0]
                                                     : result.alias_sets[1];
  EXPECT_EQ(big.size(), 4u);
}

TEST(RouterNames, IpEncodingSchemeYieldsNoAliases) {
  std::vector<topo::PtrRecord> records;
  for (int i = 0; i < 20; ++i)
    records.push_back({net::IpAddress(net::Ipv4(8, 0, 0,
                                                static_cast<std::uint8_t>(i))),
                       "ip-8-0-0-" + std::to_string(i) +
                           ".as2.na.example.net"});
  const auto result = run_router_names(records);
  for (const auto& set : result.alias_sets) EXPECT_EQ(set.size(), 1u);
}

TEST_F(BaselineWorld, RouterNamesPrecisionOnWorld) {
  const auto records = topo::export_ptr_records(world_);
  if (records.size() < 50) GTEST_SKIP() << "tiny world has few PTR records";
  const auto result = run_router_names(records);
  std::vector<net::IpAddress> universe;
  for (const auto& record : records) universe.push_back(record.address);
  const auto metrics = pair_metrics(
      result.alias_sets,
      [&](const net::IpAddress& a) { return truth_of(a); }, universe);
  if (metrics.inferred_pairs > 0) {
    EXPECT_GT(metrics.precision(), 0.9);
  }
}

// ---------------------------------------------------------------------------
// Nmap / TTL
// ---------------------------------------------------------------------------

TEST_F(BaselineWorld, NmapSilentOnClosedRouter) {
  NmapLite nmap;
  for (const auto& device : world_.devices) {
    if (device.tcp_open) continue;
    for (const auto& itf : device.interfaces) {
      if (!itf.v4) continue;
      const auto fp = nmap.fingerprint(stack_, net::IpAddress(*itf.v4), 0);
      EXPECT_EQ(fp.outcome, NmapOutcome::kNoResult);
      EXPECT_TRUE(fp.vendor.empty());
      return;
    }
  }
}

TEST_F(BaselineWorld, NmapMatchesOpenHosts) {
  NmapLite nmap;
  std::size_t checked = 0, correct = 0;
  for (const auto& device : world_.devices) {
    if (!device.tcp_open) continue;
    for (const auto& itf : device.interfaces) {
      if (!itf.v4) continue;
      const auto fp = nmap.fingerprint(stack_, net::IpAddress(*itf.v4), 0);
      if (fp.outcome == NmapOutcome::kNoResult) continue;
      ++checked;
      correct += fp.vendor == device.vendor->name;
      break;
    }
    if (checked >= 25) break;
  }
  if (checked == 0) GTEST_SKIP() << "no open hosts in tiny world";
  // The trained database should identify most open hosts.
  EXPECT_GT(correct * 10, checked * 7);
}

TEST(Ttl, InitialTtlInference) {
  EXPECT_EQ(infer_initial_ttl(20), 32);
  EXPECT_EQ(infer_initial_ttl(32), 32);
  EXPECT_EQ(infer_initial_ttl(50), 64);
  EXPECT_EQ(infer_initial_ttl(100), 128);
  EXPECT_EQ(infer_initial_ttl(240), 255);
}

TEST_F(BaselineWorld, TtlFingerprintIsAmbiguous) {
  for (const auto& device : world_.devices) {
    if (device.vendor->name != "Cisco") continue;
    for (const auto& itf : device.interfaces) {
      if (!itf.v4) continue;
      const auto fp = ttl_fingerprint(stack_, *itf.v4, 0);
      if (!fp.responsive) continue;
      EXPECT_EQ(fp.initial_ttl, 255);
      // The Cisco/Huawei collision (paper §7.1): both appear as candidates.
      const auto has = [&](const char* vendor) {
        return std::find(fp.candidate_vendors.begin(),
                         fp.candidate_vendors.end(),
                         vendor) != fp.candidate_vendors.end();
      };
      EXPECT_TRUE(has("Cisco"));
      EXPECT_TRUE(has("Huawei"));
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// compare helpers
// ---------------------------------------------------------------------------

TEST(Compare, ExactAndPartialOverlap) {
  const net::IpAddress a = net::Ipv4(8, 0, 0, 1), b = net::Ipv4(8, 0, 0, 2),
                       c = net::Ipv4(8, 0, 0, 3), d = net::Ipv4(8, 0, 0, 4);
  const AliasSets ours = {{a, b}, {c}};
  const AliasSets theirs = {{b, a}, {c, d}, {d}};
  const auto comparison = compare_alias_sets(ours, theirs);
  EXPECT_EQ(comparison.exact_matches, 1u);   // {a,b} matches (order-free)
  EXPECT_EQ(comparison.partial_overlaps, 2u);  // {a,b} and {c,d}
}

TEST(Compare, PairMetrics) {
  const net::IpAddress a = net::Ipv4(8, 0, 0, 1), b = net::Ipv4(8, 0, 0, 2),
                       c = net::Ipv4(8, 0, 0, 3);
  // Truth: a and b on device 1, c on device 2.
  const auto truth = [&](const net::IpAddress& addr) -> std::int64_t {
    if (addr == c) return 2;
    return 1;
  };
  const AliasSets inferred = {{a, b, c}};  // wrongly includes c
  const auto metrics = pair_metrics(inferred, truth, {a, b, c});
  EXPECT_EQ(metrics.inferred_pairs, 3u);
  EXPECT_EQ(metrics.correct_pairs, 1u);
  EXPECT_EQ(metrics.truth_pairs, 1u);
  EXPECT_DOUBLE_EQ(metrics.precision(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(metrics.recall(), 1.0);
}

TEST(Compare, DealiasedAddresses) {
  const AliasSets sets = {{net::Ipv4(8, 0, 0, 1), net::Ipv4(8, 0, 0, 2)},
                          {net::Ipv4(8, 0, 0, 3)}};
  EXPECT_EQ(dealiased_addresses(sets), 2u);
}

}  // namespace
}  // namespace snmpv3fp::baselines
