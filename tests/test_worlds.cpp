// Procedural world + streaming target tests.
//
// The load-bearing guarantees: (1) TargetGenerator is a seeded bijection
// over its prefix ranges — every address exactly once, reproducible from
// (spec, seed) alone; (2) lazy derivation is pure and byte-identical to
// materialize(), including through a bounded cache that evicts; (3) a
// procedural world restricted to static scenario layers produces a
// bit-identical PipelineResult to its equivalently-seeded materialized
// twin; (4) spec-mode (generator-fed) campaigns find the same responders
// as list-mode campaigns (their kill/resume is tests/test_crash.cpp's);
// (5) each scenario layer's ground truth holds: NAT pools
// resolve as alias sets, anycast stays within its site budget and
// re-resolves on churn, CGNAT churn breaks cross-scan consistency, and
// aliased /64s answer on every IID and are flagged by the prescan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "result_equal.hpp"
#include "core/alias.hpp"
#include "core/join.hpp"
#include "core/pipeline.hpp"
#include "scan/aliased_prefix.hpp"
#include "scan/campaign.hpp"
#include "scan/checkpoint.hpp"
#include "scan/targets.hpp"
#include "sim/fabric.hpp"
#include "topo/procedural.hpp"
#include "topo/world_model.hpp"

namespace snmpv3fp {
namespace {

using result_equal::expect_same_pipeline_result;

// ---- streaming target generator -------------------------------------------

TEST(TargetGenerator, VisitsEveryAddressExactlyOnce) {
  scan::TargetSpec spec;
  spec.ranges = {net::Prefix4(net::Ipv4(10, 1, 0, 0), 24),
                 net::Prefix4(net::Ipv4(192, 168, 4, 0), 26)};
  const scan::TargetGenerator generator(spec, 42);
  ASSERT_EQ(generator.size(), 256u + 64u);

  std::set<net::IpAddress> seen;
  for (std::uint64_t i = 0; i < generator.size(); ++i)
    EXPECT_TRUE(seen.insert(generator.at(i)).second) << "duplicate at " << i;

  std::set<net::IpAddress> expected;
  for (const auto& range : spec.ranges)
    for (std::uint64_t i = 0; i < range.size(); ++i)
      expected.insert(net::IpAddress(range.at(i)));
  EXPECT_EQ(seen, expected);
}

TEST(TargetGenerator, SameSeedSameOrderDifferentSeedDifferentOrder) {
  scan::TargetSpec spec;
  spec.ranges = {net::Prefix4(net::Ipv4(10, 2, 0, 0), 22)};
  const scan::TargetGenerator a(spec, 7), b(spec, 7), c(spec, 8);
  bool any_differs = false;
  for (std::uint64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.at(i), b.at(i)) << i;
    any_differs = any_differs || a.at(i) != c.at(i);
  }
  EXPECT_TRUE(any_differs);
  // And the order is actually permuted, not sequential.
  bool non_sequential = false;
  for (std::uint64_t i = 1; i < a.size() && !non_sequential; ++i)
    non_sequential = a.at(i) < a.at(i - 1);
  EXPECT_TRUE(non_sequential);
}

TEST(TargetGenerator, FillMatchesAtAcrossBatchBoundaries) {
  std::vector<scan::TargetSpec> specs(3);
  // Several ranges, so batches straddle range boundaries.
  specs[0].ranges = {net::Prefix4(net::Ipv4(10, 1, 0, 0), 24),
                     net::Prefix4(net::Ipv4(192, 168, 4, 0), 26),
                     net::Prefix4(net::Ipv4(172, 16, 9, 4), 30)};
  // Totals one above a power of 4: the padded domain is ~4x the sweep, so
  // the cycle walks are the longest any spec produces.
  specs[1].ranges = {net::Prefix4(net::Ipv4(10, 8, 0, 0), 20),
                     net::Prefix4(net::Ipv4(10, 9, 0, 0), 32)};
  specs[2].ranges = {net::Prefix4(net::Ipv4(10, 16, 0, 0), 16),
                     net::Prefix4(net::Ipv4(10, 17, 0, 0), 32)};
  const net::IpAddress sentinel(net::Ipv4(203, 0, 113, 9));
  // Odd lengths, 0 and 1 among them; tiling the sweep with them gives odd
  // starts too.
  const std::uint64_t lengths[] = {1, 0, 3, 63, 64, 65, 127, 1, 129, 5};
  for (const auto& spec : specs) {
    const scan::TargetGenerator generator(spec, 1234);
    const std::uint64_t total = generator.size();
    SCOPED_TRACE(total);
    std::vector<net::IpAddress> expected(total);
    for (std::uint64_t i = 0; i < total; ++i) expected[i] = generator.at(i);

    std::vector<net::IpAddress> whole(total);
    generator.fill(0, whole);
    EXPECT_EQ(whole, expected);

    std::size_t step = 0;
    for (std::uint64_t first = 0; first < total; ++step) {
      const std::uint64_t length =
          std::min(lengths[step % std::size(lengths)], total - first);
      std::vector<net::IpAddress> batch(length + 1, sentinel);
      generator.fill(first, std::span(batch).first(length));
      for (std::uint64_t j = 0; j < length; ++j)
        ASSERT_EQ(batch[j], expected[first + j]) << "first " << first;
      ASSERT_EQ(batch[length], sentinel) << "fill wrote past its span";
      first += length;
    }
    generator.fill(total, {});  // an empty batch at the end is a no-op

    // A shard's slice offsets the same positions.
    const scan::GeneratorSlice slice(generator, 7, total - 3);
    std::vector<net::IpAddress> window(101);
    slice.fill(31, window);
    for (std::size_t j = 0; j < window.size(); ++j)
      EXPECT_EQ(window[j], slice.at(31 + j)) << j;
  }
}

// ---- lazy derivation vs materialize ----------------------------------------

template <typename T>
std::vector<T> to_vector(std::span<const T> view) {
  return {view.begin(), view.end()};
}

void expect_same_device(const topo::Device& a, const topo::Device& b,
                        const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.vendor, b.vendor);  // both point into the builtin tables
  EXPECT_EQ(a.snmpv3_enabled, b.snmpv3_enabled);
  EXPECT_EQ(a.engine_id, b.engine_id);
  EXPECT_EQ(a.empty_engine_id_bug, b.empty_engine_id_bug);
  EXPECT_EQ(a.zero_time_bug, b.zero_time_bug);
  EXPECT_EQ(a.future_time_bug, b.future_time_bug);
  EXPECT_EQ(a.clock_skew_ppm, b.clock_skew_ppm);
  EXPECT_EQ(a.time_jitter_s, b.time_jitter_s);
  EXPECT_EQ(to_vector(a.reboots), to_vector(b.reboots));
  EXPECT_EQ(a.boots_before_history, b.boots_before_history);
  EXPECT_EQ(to_vector(a.backend_engines), to_vector(b.backend_engines));
  EXPECT_EQ(a.answers_whole_v6_prefix, b.answers_whole_v6_prefix);
  ASSERT_EQ(a.interfaces.size(), b.interfaces.size());
  for (std::size_t i = 0; i < a.interfaces.size(); ++i) {
    EXPECT_EQ(a.interfaces[i].mac, b.interfaces[i].mac);
    EXPECT_EQ(a.interfaces[i].v4, b.interfaces[i].v4);
    EXPECT_EQ(a.interfaces[i].v6, b.interfaces[i].v6);
  }
}

TEST(ProceduralWorld, DeriveMatchesMaterializeOnEveryAddress) {
  const topo::ProceduralWorld procedural(topo::ProceduralConfig::tiny());
  const topo::World materialized = procedural.materialize();
  ASSERT_EQ(materialized.devices.size(), procedural.device_count());

  for (const auto family : {net::Family::kIpv4, net::Family::kIpv6}) {
    for (const auto& address : materialized.addresses(family)) {
      const auto derived = procedural.derive(address);
      ASSERT_TRUE(derived.has_value()) << address.to_string();
      const topo::Device* truth = materialized.device_at(address);
      ASSERT_NE(truth, nullptr) << address.to_string();
      expect_same_device(*derived, *truth, address.to_string());
      // Purity: a second derivation yields the same bytes.
      const auto again = procedural.derive(address);
      expect_same_device(*derived, *again, "re-derive " + address.to_string());
    }
  }

  // Dead space stays dead: the address after a region's end derives
  // nothing (10.60.4.0 is past tiny()'s middlebox /22).
  EXPECT_FALSE(
      procedural.derive(net::IpAddress(net::Ipv4(10, 60, 4, 0))).has_value());
  EXPECT_FALSE(
      procedural.derive(net::IpAddress(net::Ipv4(203, 0, 113, 1))).has_value());
}

TEST(ProceduralWorld, BoundedCacheEvictsWithoutChangingDevices) {
  auto config = topo::ProceduralConfig::tiny();
  config.cache_capacity = 8;
  const topo::ProceduralWorld procedural(config);
  const topo::World materialized = procedural.materialize();
  const auto view = procedural.open_view();

  const auto addresses = materialized.addresses(net::Family::kIpv4);
  ASSERT_GT(addresses.size(), 8u * 4);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& address : addresses) {
      const topo::Device* lazy = view->device_at(address);
      ASSERT_NE(lazy, nullptr) << address.to_string();
      expect_same_device(*lazy, *materialized.device_at(address),
                         "pass " + std::to_string(pass) + " " +
                             address.to_string());
    }
  }
  const auto stats = view->cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident, 8u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(stats.hits + stats.misses, 2 * addresses.size());
}

// ---- procedural vs materialized pipeline equivalence -----------------------

// Static scenario layers only: anycast and CGNAT identities are epoch
// functions with procedural (not materialized-churn) semantics, so the
// bit-equivalence claim is scoped to layers whose devices never change
// between epochs.
topo::ProceduralConfig static_layer_config() {
  topo::ProceduralConfig config;
  config.seed = 0x57a71c;
  topo::ScenarioRegion plain;
  plain.kind = topo::ScenarioKind::kPlain;
  plain.v4 = net::Prefix4(net::Ipv4(10, 10, 0, 0), 22);
  plain.block_bits = 6;
  plain.responders_per_block = 2;
  topo::ScenarioRegion nat;
  nat.kind = topo::ScenarioKind::kNatPool;
  nat.v4 = net::Prefix4(net::Ipv4(10, 20, 0, 0), 25);
  nat.pool_bits = 4;
  nat.market_region = "NA";
  topo::ScenarioRegion balancer;
  balancer.kind = topo::ScenarioKind::kLoadBalancer;
  balancer.v4 = net::Prefix4(net::Ipv4(10, 30, 0, 0), 23);
  balancer.block_bits = 7;
  balancer.responders_per_block = 2;
  balancer.backends = 2;
  topo::ScenarioRegion middlebox;
  middlebox.kind = topo::ScenarioKind::kMiddlebox;
  middlebox.v4 = net::Prefix4(net::Ipv4(10, 60, 0, 0), 23);
  middlebox.block_bits = 8;
  middlebox.responders_per_block = 1;
  topo::ScenarioRegion aliased;
  aliased.kind = topo::ScenarioKind::kAliasedPrefix;
  aliased.v6_base =
      net::Ipv6::from_groups({0x2001, 0x0db8, 0x00bb, 0, 0, 0, 0, 0});
  aliased.v6_prefix_len = 62;
  aliased.v6_iids_per_pool = 3;
  config.regions = {plain, nat, balancer, middlebox, aliased};
  return config;
}

TEST(ProceduralWorld, PipelineBitIdenticalToMaterializedTwin) {
  core::PipelineOptions options;
  options.seed = 991;
  options.scan_shards = 2;
  options.parallel.threads = 2;

  topo::ProceduralWorld procedural(static_layer_config());
  const topo::World twin = procedural.materialize();
  const auto lazy = core::run_full_pipeline(procedural, options);
  const auto eager = core::run_full_pipeline(twin, options);

  ASSERT_GT(lazy.v4_records.size(), 0u);
  ASSERT_GT(lazy.devices.size(), 0u);
  expect_same_pipeline_result(lazy, eager);
  // The lazy run actually exercised the cache.
  EXPECT_GT(lazy.v4_campaign.responder_cache.misses, 0u);
  EXPECT_GT(lazy.v4_campaign.responder_cache.hits, 0u);
  // The materialized run's view derives nothing.
  EXPECT_EQ(eager.v4_campaign.responder_cache.misses, 0u);
}

// ---- spec-mode (streaming) campaigns ---------------------------------------

scan::CampaignOptions zero_loss_options(std::uint64_t seed) {
  scan::CampaignOptions options;
  options.seed = seed;
  options.shards = 4;
  options.rate_pps = 20000.0;
  options.fabric.probe_loss = 0.0;
  options.fabric.response_loss = 0.0;
  return options;
}

std::set<net::IpAddress> responder_set(const scan::ScanResult& result) {
  std::set<net::IpAddress> set;
  (void)result.for_each_record(
      [&set](const scan::ScanRecord& record) { set.insert(record.target); });
  return set;
}

TEST(SpecModeCampaign, FindsSameRespondersAsListMode) {
  const auto config = topo::ProceduralConfig::tiny();

  topo::ProceduralWorld list_world(config);
  const auto list_pair =
      scan::run_two_scan_campaign(list_world, zero_loss_options(311));

  topo::ProceduralWorld spec_world(config);
  auto spec_options = zero_loss_options(311);
  scan::TargetSpec spec;
  for (const auto& region : config.regions)
    if (region.kind != topo::ScenarioKind::kAliasedPrefix)
      spec.ranges.push_back(region.v4);
  spec_options.target_spec = spec;
  const auto spec_pair = scan::run_two_scan_campaign(spec_world, spec_options);

  // The sweep probes whole prefixes, the list only known-assigned
  // addresses — but at zero loss every responder answers both ways.
  std::set<net::IpAddress> expected;
  for (const auto& address :
       list_world.campaign_targets(net::Family::kIpv4, 0))
    expected.insert(address);
  EXPECT_EQ(responder_set(list_pair.scan1), expected);
  EXPECT_EQ(responder_set(spec_pair.scan1), expected);
  EXPECT_EQ(responder_set(spec_pair.scan2), expected);
  EXPECT_GT(spec_pair.scan1.targets_probed, expected.size());
  // Spec mode derives lazily; the cache saw real traffic.
  EXPECT_GT(spec_pair.responder_cache.misses, 0u);
  EXPECT_GT(spec_pair.responder_cache.hit_rate(), 0.0);
}

// ---- scenario-layer ground truth -------------------------------------------

topo::ProceduralConfig single_region_config(topo::ScenarioRegion region,
                                            std::uint64_t seed) {
  topo::ProceduralConfig config;
  config.seed = seed;
  config.regions = {std::move(region)};
  // Keep engine-state faults out of the ground-truth assertions.
  config.empty_engine_id_rate = 0.0;
  config.zero_time_rate = 0.0;
  config.future_time_rate = 0.0;
  return config;
}

TEST(ProceduralWorld, SixtyFourRespondersPerBlockIsTheCap) {
  // 64 of 128 per block: the cap, and every responder still resolves to
  // its own rank.
  topo::ScenarioRegion region;
  region.kind = topo::ScenarioKind::kPlain;
  region.v4 = net::Prefix4(net::Ipv4(10, 10, 0, 0), 20);
  region.block_bits = 7;
  region.responders_per_block = 64;
  const topo::ProceduralWorld world(single_region_config(region, 64));
  const auto targets = world.campaign_targets(net::Family::kIpv4, 0);
  ASSERT_EQ(targets.size(), world.device_count());
  std::set<std::uint64_t> indices;
  for (const auto& address : targets) {
    const auto device = world.derive(address);
    ASSERT_TRUE(device.has_value()) << address.to_string();
    indices.insert(device->index);
  }
  EXPECT_EQ(indices.size(), world.device_count());
  EXPECT_EQ(*indices.rbegin(), world.device_count() - 1);

  // 65 would overflow a block's fixed offset array even though the block
  // (256 addresses) has room for it.
  region.block_bits = 8;
  region.responders_per_block = 65;
  EXPECT_THROW(topo::ProceduralWorld(single_region_config(region, 65)),
               std::invalid_argument);
}

TEST(ScenarioLayers, NatPoolSharesOneEngineAndResolvesAsAliasSet) {
  topo::ScenarioRegion region;
  region.kind = topo::ScenarioKind::kNatPool;
  region.v4 = net::Prefix4(net::Ipv4(10, 20, 0, 0), 26);
  region.pool_bits = 3;  // 8 pools of 8 addresses
  // Seed chosen so no pool draws the constant-engine-ID vendor bug (that
  // bug deliberately merges pools — the ablation AliasOptions::engine_id_only
  // exists for — which is not this test's claim).
  topo::ProceduralWorld world(single_region_config(region, 1602));

  // Derivation-level: one device (one engine) per 8-address pool.
  std::map<std::uint32_t, std::set<snmp::EngineId>> engines_by_pool;
  for (const auto& address :
       world.campaign_targets(net::Family::kIpv4, 0)) {
    const auto device = world.derive(address);
    ASSERT_TRUE(device.has_value());
    engines_by_pool[address.v4().value() >> 3].insert(device->engine_id);
  }
  ASSERT_EQ(engines_by_pool.size(), 8u);
  std::set<snmp::EngineId> distinct;
  for (const auto& [pool, engines] : engines_by_pool) {
    EXPECT_EQ(engines.size(), 1u) << "pool " << pool;
    distinct.insert(*engines.begin());
  }
  EXPECT_EQ(distinct.size(), 8u);

  // End to end: a zero-loss campaign joined and alias-resolved groups each
  // pool into one 8-address set (run directly, not through the filter
  // funnel — pool-shared engines are exactly what the promiscuous-payload
  // filter is designed to drop).
  const auto pair = scan::run_two_scan_campaign(world, zero_loss_options(55));
  core::JoinStats stats;
  const auto joined = core::join_scans(pair.scan1, pair.scan2, &stats);
  ASSERT_EQ(joined.size(), 64u);
  const auto resolution = core::resolve_aliases(joined);
  std::size_t pools_resolved = 0;
  for (const auto& set : resolution.sets) {
    if (set.addresses.size() != 8) continue;
    ++pools_resolved;
    const std::uint32_t pool = set.addresses.front().v4().value() >> 3;
    for (const auto& address : set.addresses)
      EXPECT_EQ(address.v4().value() >> 3, pool);
  }
  EXPECT_EQ(pools_resolved, 8u);
}

TEST(ScenarioLayers, AnycastStaysWithinSiteBudgetAndReResolvesOnChurn) {
  topo::ScenarioRegion region;
  region.kind = topo::ScenarioKind::kAnycast;
  region.v4 = net::Prefix4(net::Ipv4(10, 40, 0, 0), 22);
  region.block_bits = 6;
  region.responders_per_block = 2;
  region.sites = 3;
  topo::ProceduralWorld world(single_region_config(region, 1602));

  const auto targets = world.campaign_targets(net::Family::kIpv4, 0);
  ASSERT_EQ(targets.size(), 32u);
  std::set<snmp::EngineId> engines_before;
  std::map<net::IpAddress, snmp::EngineId> by_address;
  for (const auto& address : targets) {
    const auto device = world.derive(address);
    ASSERT_TRUE(device.has_value());
    engines_before.insert(device->engine_id);
    by_address.emplace(address, device->engine_id);
  }
  // Every address is served by one of at most `sites` global engines.
  EXPECT_LE(engines_before.size(), 3u);
  EXPECT_GT(engines_before.size(), 1u);

  world.apply_churn(0xfeed);
  std::size_t moved = 0;
  for (const auto& address : targets) {
    const auto device = world.derive(address);
    ASSERT_TRUE(device.has_value());
    if (device->engine_id != by_address.at(address)) ++moved;
  }
  // The serving site re-resolves per epoch: some addresses moved, and the
  // address plan itself never changes.
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(world.campaign_targets(net::Family::kIpv4, 0), targets);
}

TEST(ScenarioLayers, CgnatChurnBreaksCrossScanConsistency) {
  topo::ScenarioRegion region;
  region.kind = topo::ScenarioKind::kCgnatChurn;
  region.v4 = net::Prefix4(net::Ipv4(10, 50, 0, 0), 26);
  topo::ProceduralWorld world(single_region_config(region, 1603));

  // Identity churns between epochs while the address plan stays fixed.
  const auto targets = world.campaign_targets(net::Family::kIpv4, 0);
  const auto before = world.derive(targets.front());
  world.apply_churn(0xbeef);
  const auto after = world.derive(targets.front());
  ASSERT_TRUE(before.has_value() && after.has_value());
  EXPECT_NE(before->engine_id, after->engine_id);
  EXPECT_EQ(world.campaign_targets(net::Family::kIpv4, 0), targets);

  // Across a two-scan campaign the churn lands between the scans, so the
  // joined records disagree with themselves — the inconsistency the
  // paper's filters exist to remove.
  topo::ProceduralWorld campaign_world(single_region_config(region, 1603));
  const auto pair =
      scan::run_two_scan_campaign(campaign_world, zero_loss_options(77));
  const auto joined = core::join_scans(pair.scan1, pair.scan2);
  ASSERT_EQ(joined.size(), 64u);
  std::size_t churned = 0;
  for (const auto& record : joined)
    if (!record.engine_ids_match()) ++churned;
  EXPECT_GT(churned, joined.size() / 2);
}

TEST(ScenarioLayers, AliasedPrefixAnswersEveryIidAndPrescanFlagsIt) {
  topo::ScenarioRegion region;
  region.kind = topo::ScenarioKind::kAliasedPrefix;
  region.v6_base =
      net::Ipv6::from_groups({0x2001, 0x0db8, 0x00cc, 0, 0, 0, 0, 0});
  region.v6_prefix_len = 62;  // 4 aliased /64 pools
  region.v6_iids_per_pool = 3;
  topo::ProceduralWorld world(single_region_config(region, 1604));

  const auto hitlist = world.campaign_targets(net::Family::kIpv6, 0);
  ASSERT_EQ(hitlist.size(), 12u);

  // A random, never-enumerated IID inside a pool's /64 answers with the
  // same device as the pool's hitlist addresses.
  auto bytes = hitlist.front().v6().to_bytes();
  std::array<std::uint8_t, 16> raw{};
  std::copy(bytes.begin(), bytes.end(), raw.begin());
  for (int i = 8; i < 16; ++i) raw[i] = static_cast<std::uint8_t>(0xd0 + i);
  const net::IpAddress random_iid{net::Ipv6(raw)};
  const auto surprise = world.derive(random_iid);
  const auto enumerated = world.derive(hitlist.front());
  ASSERT_TRUE(surprise.has_value() && enumerated.has_value());
  EXPECT_EQ(surprise->index, enumerated->index);
  EXPECT_EQ(surprise->engine_id, enumerated->engine_id);
  EXPECT_TRUE(enumerated->answers_whole_v6_prefix);

  // The Gasser-style prescan over the lazy fabric flags all four pools.
  sim::FabricConfig fabric_config;
  fabric_config.seed = 9;
  fabric_config.probe_loss = 0.0;
  fabric_config.response_loss = 0.0;
  sim::Fabric fabric(world, fabric_config);
  const auto detection = scan::detect_aliased_prefixes(
      fabric, {net::IpAddress(net::Ipv4(198, 51, 100, 7)), 54320}, hitlist);
  EXPECT_EQ(detection.aliased_prefixes.size(), 4u);
  EXPECT_TRUE(scan::filter_aliased(hitlist, detection).empty());
}

}  // namespace
}  // namespace snmpv3fp
