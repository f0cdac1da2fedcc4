#include <gtest/gtest.h>

#include <map>
#include <set>

#include "topo/datasets.hpp"
#include "topo/generator.hpp"
#include "topo/vendor.hpp"
#include "topo/world_model.hpp"
#include "util/rng.hpp"

namespace snmpv3fp::topo {
namespace {

const World& tiny_world() {
  static const World world = generate_world(WorldConfig::tiny());
  return world;
}

// ---------------------------------------------------------------------------
// Device time/boot arithmetic
// ---------------------------------------------------------------------------

TEST(Device, EngineBootsCounting) {
  Device device;
  device.boots_before_history = 10;
  device.reboots = {-100 * util::kDay, 5 * util::kDay, 10 * util::kDay};
  EXPECT_EQ(device.engine_boots_at(-200 * util::kDay), 10u);
  EXPECT_EQ(device.engine_boots_at(0), 11u);
  EXPECT_EQ(device.engine_boots_at(5 * util::kDay), 12u);
  EXPECT_EQ(device.engine_boots_at(7 * util::kDay), 12u);
  EXPECT_EQ(device.engine_boots_at(30 * util::kDay), 13u);
}

TEST(Device, EngineTimeFollowsLastReboot) {
  Device device;
  device.reboots = {-util::kDay, 2 * util::kDay};
  EXPECT_EQ(device.engine_time_at(0), 86400u);
  EXPECT_EQ(device.engine_time_at(util::kDay), 2 * 86400u);
  // After the second reboot the counter restarts.
  EXPECT_EQ(device.engine_time_at(2 * util::kDay + util::kSecond), 1u);
}

TEST(Device, ClockSkewScalesEngineTime) {
  Device device;
  device.reboots = {-100000 * util::kSecond};
  device.clock_skew_ppm = 1000.0;  // 0.1%
  EXPECT_NEAR(device.engine_time_at(0), 100100u, 1);
  device.clock_skew_ppm = -1000.0;
  EXPECT_NEAR(device.engine_time_at(0), 99900u, 1);
}

TEST(Device, DualStackCounting) {
  Device device;
  Interface a, b;
  a.v4 = net::Ipv4(192, 0, 2, 1);
  b.v6 = net::Ipv6::parse("2001:db8::1").value();
  device.interfaces = {a, b};
  EXPECT_TRUE(device.dual_stack());
  EXPECT_EQ(device.v4_count(), 1u);
  EXPECT_EQ(device.v6_count(), 1u);
}

// ---------------------------------------------------------------------------
// Generator invariants
// ---------------------------------------------------------------------------

TEST(Generator, DeterministicFromSeed) {
  const World a = generate_world(WorldConfig::tiny());
  const World b = generate_world(WorldConfig::tiny());
  ASSERT_EQ(a.devices.size(), b.devices.size());
  ASSERT_EQ(a.ases.size(), b.ases.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].engine_id, b.devices[i].engine_id);
    EXPECT_EQ(a.devices[i].interfaces.size(), b.devices[i].interfaces.size());
    EXPECT_EQ(a.devices[i].reboots, b.devices[i].reboots);
  }
}

TEST(Generator, DifferentSeedsProduceDifferentWorlds) {
  WorldConfig config = WorldConfig::tiny();
  config.seed = 1234;
  const World other = generate_world(config);
  const World& base = tiny_world();
  ASSERT_FALSE(other.devices.empty());
  // Engine IDs should differ almost surely.
  std::size_t same = 0;
  const std::size_t n = std::min(base.devices.size(), other.devices.size());
  for (std::size_t i = 0; i < n; ++i)
    same += base.devices[i].engine_id == other.devices[i].engine_id;
  EXPECT_LT(same, n / 10);
}

TEST(Generator, AllAddressesAreRoutableAndMapped) {
  const World& world = tiny_world();
  for (const auto& device : world.devices) {
    for (const auto& itf : device.interfaces) {
      if (itf.v4) {
        EXPECT_TRUE(itf.v4->is_routable()) << itf.v4->to_string();
        EXPECT_TRUE(world.ases[device.as_index].v4_prefix.contains(*itf.v4));
      }
      if (itf.v6) {
        EXPECT_TRUE(itf.v6->is_routable());
      }
    }
  }
  // Address map is consistent with interfaces.
  const auto addresses = world.addresses(net::Family::kIpv4);
  EXPECT_GT(addresses.size(), 1000u);
  for (const auto& address : addresses)
    EXPECT_NE(world.device_index_at(address), kNoDevice);
}

TEST(Generator, AsPrefixesDisjoint) {
  const World& world = tiny_world();
  std::set<std::uint32_t> bases;
  for (const auto& as : world.ases) {
    EXPECT_EQ(as.v4_prefix.length(), 16);
    EXPECT_TRUE(bases.insert(as.v4_prefix.base().value()).second)
        << "duplicate prefix " << as.v4_prefix.to_string();
  }
}

TEST(Generator, AsnsUnique) {
  const World& world = tiny_world();
  std::set<std::uint32_t> asns;
  for (const auto& as : world.ases)
    EXPECT_TRUE(asns.insert(as.asn).second) << "duplicate ASN " << as.asn;
}

TEST(Generator, RebootHistoriesSortedAndNonEmpty) {
  const World& world = tiny_world();
  for (const auto& device : world.devices) {
    ASSERT_FALSE(device.reboots.empty());
    EXPECT_LE(device.reboots.front(), 0);  // last reboot before the epoch
    EXPECT_TRUE(std::is_sorted(device.reboots.begin(), device.reboots.end()));
    EXPECT_GE(device.boots_before_history, 1u);
  }
}

TEST(Generator, VendorMixMatchesRegionPolicy) {
  const World& world = tiny_world();
  // Huawei must not appear in NA routers (Figure 15's headline fact).
  for (const auto& device : world.devices) {
    if (device.kind != DeviceKind::kRouter || !device.itdk_eligible) continue;
    if (world.ases[device.as_index].region == "NA") {
      EXPECT_NE(device.vendor->name, "Huawei");
    }
  }
}

TEST(Generator, RouterCountsRoughlyMatchConfig) {
  const World& world = tiny_world();
  EXPECT_GT(world.router_count(), 100u);
  EXPECT_GT(world.devices.size(), world.router_count());
}

TEST(Generator, ConstantBugDevicesShareThePaperValue) {
  const World world = generate_world(WorldConfig::tiny());
  std::size_t afflicted = 0;
  for (const auto& device : world.devices)
    if (util::to_hex(device.engine_id.raw()) == "800000090300000000000000")
      ++afflicted;
  // The tiny world still carries a handful of buggy Cisco boxes, and they
  // all share the single constant value.
  EXPECT_GT(afflicted, 0u);
}

// ---------------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------------

TEST(Churn, RebindsOnlyChurningDevices) {
  World world = generate_world(WorldConfig::tiny());
  std::map<DeviceIndex, std::vector<net::Ipv4>> before;
  for (const auto& device : world.devices) {
    std::vector<net::Ipv4> addrs;
    for (const auto& itf : device.interfaces)
      if (itf.v4) addrs.push_back(*itf.v4);
    before[device.index] = std::move(addrs);
  }
  world.rebind_churning_devices(0xfeed);
  std::size_t churners = 0, changed = 0;
  for (const auto& device : world.devices) {
    std::vector<net::Ipv4> addrs;
    for (const auto& itf : device.interfaces)
      if (itf.v4) addrs.push_back(*itf.v4);
    if (!device.churns) {
      EXPECT_EQ(addrs, before[device.index]);  // static devices untouched
    } else if (!addrs.empty()) {
      ++churners;
      changed += addrs != before[device.index];
    }
  }
  if (churners > 10) {
    EXPECT_GT(changed, churners * 8 / 10);
  }
}

TEST(Churn, RecyclesAddressesToOtherDevices) {
  World world = generate_world(WorldConfig::tiny());
  // Record the churning addresses of epoch 1.
  std::map<net::IpAddress, DeviceIndex> old_owner;
  for (const auto& device : world.devices) {
    if (!device.churns) continue;
    for (const auto& itf : device.interfaces)
      if (itf.v4) old_owner[net::IpAddress(*itf.v4)] = device.index;
  }
  world.rebind_churning_devices(0xbeef);
  std::size_t reused_by_other = 0;
  for (const auto& [address, owner] : old_owner) {
    const auto now = world.device_index_at(address);
    if (now != kNoDevice && now != owner) ++reused_by_other;
  }
  // DHCP-style recycling: a solid share of old leases now belong to
  // somebody else (drives the paper's "inconsistent engine ID" filter).
  if (old_owner.size() > 20) {
    EXPECT_GT(reused_by_other, old_owner.size() / 4);
  }
}

// Tiny worlds over 20 generator seeds, for the churn identities below.
const std::vector<World>& seeded_tiny_worlds() {
  static const std::vector<World> worlds = [] {
    std::vector<World> out;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      WorldConfig config = WorldConfig::tiny();
      config.seed = 1000 + seed;
      out.push_back(generate_world(config));
    }
    return out;
  }();
  return worlds;
}

bool has_shared_address(const World& world) {
  std::size_t v4 = 0, v6 = 0;
  for (const auto& device : world.devices) {
    v4 += device.v4_count();
    v6 += device.v6_count();
  }
  return v4 != world.addresses(net::Family::kIpv4).size() ||
         v6 != world.addresses(net::Family::kIpv6).size();
}

// One random interface identifier inside each /64 an aliased device
// answers on.
void add_aliased_probes(const World& world, util::Rng& rng,
                        std::vector<net::IpAddress>& probes) {
  for (const auto& device : world.devices) {
    if (!device.answers_whole_v6_prefix) continue;
    for (const auto& itf : device.interfaces) {
      if (!itf.v6) continue;
      std::array<std::uint16_t, 8> groups{};
      for (int g = 0; g < 4; ++g) groups[g] = itf.v6->group(g);
      for (int g = 4; g < 8; ++g)
        groups[g] = static_cast<std::uint16_t>(rng.next());
      probes.emplace_back(net::Ipv6::from_groups(groups));
    }
  }
}

// Rebinds `world` (which patches its index when it can) and compares the
// result against a copy whose index is rebuilt from scratch: the device
// behind every pre- and post-churn address and behind a random address
// of each aliased /64, the address lists and the indexed address counts.
void rebind_and_expect_rebuilt_index(World& world, std::uint64_t epoch_seed,
                                     util::Rng& rng) {
  std::vector<net::IpAddress> probes;
  for (const auto family : {net::Family::kIpv4, net::Family::kIpv6}) {
    const auto before = world.addresses(family);
    probes.insert(probes.end(), before.begin(), before.end());
  }
  add_aliased_probes(world, rng, probes);
  world.rebind_churning_devices(epoch_seed);
  World rebuilt = world;
  rebuilt.reindex();
  for (const auto family : {net::Family::kIpv4, net::Family::kIpv6}) {
    const auto after = world.addresses(family);
    probes.insert(probes.end(), after.begin(), after.end());
    EXPECT_EQ(after, rebuilt.addresses(family));
    EXPECT_EQ(world.address_count(family), rebuilt.address_count(family));
  }
  add_aliased_probes(world, rng, probes);
  std::size_t mismatches = 0;
  for (const auto& address : probes)
    mismatches +=
        world.device_index_at(address) != rebuilt.device_index_at(address);
  EXPECT_EQ(mismatches, 0u) << "of " << probes.size() << " probed addresses";
}

TEST(Churn, PatchedIndexMatchesRebuild) {
  util::Rng rng(0x5eed);
  std::uint64_t epoch_seed = 0xfeed;
  for (const World& generated : seeded_tiny_worlds()) {
    // Generated worlds give every address one holder, so these rebinds
    // patch the index in place.
    EXPECT_FALSE(has_shared_address(generated));
    World world = generated;
    rebind_and_expect_rebuilt_index(world, ++epoch_seed, rng);
    rebind_and_expect_rebuilt_index(world, ++epoch_seed, rng);
  }

  // Fallback 1: static devices share churning devices' addresses. Each
  // churning device indexes later, so it owns the address until it moves
  // and the static holder must take it back.
  {
    World world = seeded_tiny_worlds().front();
    std::vector<Interface*> static_v4, churning_v4;
    for (auto& device : world.devices)
      for (auto& itf : device.interfaces)
        if (itf.v4) (device.churns ? churning_v4 : static_v4).push_back(&itf);
    ASSERT_GE(static_v4.size(), 16u);
    ASSERT_GE(churning_v4.size(), 16u);
    for (std::size_t k = 0; k < 16; ++k) {
      const Interface* churning = churning_v4[churning_v4.size() - 1 - k];
      ASSERT_LT(world.device_index_at(net::IpAddress(*static_v4[k]->v4)),
                world.device_index_at(net::IpAddress(*churning->v4)));
      static_v4[k]->v4 = churning->v4;
    }
    world.reindex();
    ASSERT_TRUE(has_shared_address(world));
    rebind_and_expect_rebuilt_index(world, 0xfeed, rng);
    rebind_and_expect_rebuilt_index(world, 0xbeef, rng);
  }

  // Fallback 2: churning devices that answer on their whole /64, each on a
  // /64 of its own, which moves away with the lease.
  {
    World world = seeded_tiny_worlds().front();
    std::uint16_t aliased = 0;
    for (auto& device : world.devices) {
      if (!device.churns || device.v6_count() == 0 || aliased == 8) continue;
      device.answers_whole_v6_prefix = true;
      for (auto& itf : device.interfaces) {
        if (!itf.v6) continue;
        std::array<std::uint16_t, 8> groups{};
        for (int g = 0; g < 8; ++g) groups[g] = itf.v6->group(g);
        groups[2] = 0xa11a;
        groups[3] = aliased;
        itf.v6 = net::Ipv6::from_groups(groups);
      }
      ++aliased;
    }
    ASSERT_EQ(aliased, 8u);
    world.reindex();
    rebind_and_expect_rebuilt_index(world, 0xfeed, rng);
    rebind_and_expect_rebuilt_index(world, 0xbeef, rng);
  }

  // Fallback 3: the last static device already holds a fresh lease the
  // rebind hands out, so binding the lease collides.
  {
    World world = seeded_tiny_worlds().front();
    const auto current = world.addresses(net::Family::kIpv4);
    std::optional<net::IpAddress> fresh;
    for (const auto& lease : world.churn_leases(0xfeed, net::Family::kIpv4))
      if (!std::binary_search(current.begin(), current.end(), lease))
        fresh = lease;
    ASSERT_TRUE(fresh.has_value());
    Interface* holder = nullptr;
    for (auto& device : world.devices)
      for (auto& itf : device.interfaces)
        if (!device.churns && itf.v4) holder = &itf;
    ASSERT_NE(holder, nullptr);
    holder->v4 = fresh->v4();
    world.reindex();
    ASSERT_FALSE(has_shared_address(world));
    rebind_and_expect_rebuilt_index(world, 0xfeed, rng);
  }
}

// The target union is a linear merge of the current addresses with the
// churned slots' new leases; pin it against churning a copy of the world.
TEST(Churn, CampaignTargetsEqualTwoEpochUnion) {
  std::uint64_t churn_seed = 0xc0ffee;
  for (const World& generated : seeded_tiny_worlds()) {
    World world = generated;
    const MaterializedWorldModel model(world);
    World churned = world;
    churned.rebind_churning_devices(++churn_seed);
    for (const auto family : {net::Family::kIpv4, net::Family::kIpv6}) {
      auto expected = world.addresses(family);
      const auto later = churned.addresses(family);
      expected.insert(expected.end(), later.begin(), later.end());
      std::sort(expected.begin(), expected.end());
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());
      EXPECT_EQ(model.campaign_targets(family, churn_seed), expected);
    }
  }
}

// ---------------------------------------------------------------------------
// Dataset exporters
// ---------------------------------------------------------------------------

TEST(Datasets, ItdkCoversOnlyEligibleRouters) {
  const World& world = tiny_world();
  const auto itdk = export_itdk_v4(world, {});
  ASSERT_FALSE(itdk.addresses.empty());
  for (const auto& address : itdk.addresses) {
    EXPECT_TRUE(address.is_v4());
    const auto* device = world.device_at(address);
    ASSERT_NE(device, nullptr);
    EXPECT_TRUE(device->itdk_eligible);
  }
}

TEST(Datasets, CoverageKnobWorks) {
  const World& world = tiny_world();
  DatasetOptions low;
  low.router_coverage = 0.2;
  DatasetOptions high;
  high.router_coverage = 0.95;
  EXPECT_LT(export_itdk_v4(world, low).addresses.size(),
            export_itdk_v4(world, high).addresses.size());
}

TEST(Datasets, AliasSetsPartitionTheirAddresses) {
  const auto itdk = export_itdk_v4(tiny_world(), {});
  std::set<net::IpAddress> seen;
  for (const auto& set : itdk.alias_sets)
    for (const auto& address : set)
      EXPECT_TRUE(seen.insert(address).second) << "address in two sets";
}

TEST(Datasets, HitlistIncludesCpe) {
  const World& world = tiny_world();
  const auto hitlist = export_hitlist_v6(world, 1);
  bool has_cpe = false;
  for (const auto& address : hitlist) {
    EXPECT_TRUE(address.is_v6());
    const auto* device = world.device_at(address);
    if (device != nullptr && device->kind == DeviceKind::kCpe) has_cpe = true;
  }
  EXPECT_TRUE(has_cpe);
}

TEST(Datasets, PtrRecordsMatchInterfaces) {
  const World& world = tiny_world();
  const auto records = export_ptr_records(world);
  ASSERT_FALSE(records.empty());
  for (const auto& record : records) {
    EXPECT_FALSE(record.name.empty());
    EXPECT_NE(world.device_index_at(record.address), kNoDevice);
  }
}

TEST(Datasets, AsTableResolvesAllAssignedAddresses) {
  const World& world = tiny_world();
  const auto table = build_as_table(world);
  EXPECT_EQ(table.size(), world.ases.size() * 2);
  for (const auto& address : world.addresses(net::Family::kIpv4)) {
    const auto info = table.lookup(address);
    ASSERT_TRUE(info.has_value()) << address.to_string();
  }
}

TEST(Datasets, UnionDeduplicates) {
  const World& world = tiny_world();
  const auto itdk = export_itdk_v4(world, {});
  const auto atlas = export_atlas(world, {});
  const auto merged = dataset_union({&itdk, &atlas});
  std::set<net::IpAddress> unique(merged.begin(), merged.end());
  EXPECT_EQ(unique.size(), merged.size());
  EXPECT_GE(merged.size(), itdk.addresses.size());
}

// ---------------------------------------------------------------------------
// Vendor profiles
// ---------------------------------------------------------------------------

TEST(Vendors, ProfilesAreConsistent) {
  for (const auto* table :
       {&builtin_router_vendors(), &builtin_cpe_vendors(),
        &builtin_server_vendors()}) {
    for (const auto& vendor : *table) {
      EXPECT_FALSE(vendor.name.empty());
      EXPECT_GT(vendor.enterprise_pen, 0u);
      EXPECT_GE(vendor.snmpv3_responsive, 0.0);
      EXPECT_LE(vendor.snmpv3_responsive, 1.0);
      EXPECT_GT(vendor.mean_days_between_reboots, 0.0);
      const auto& p = vendor.engine_id_policy;
      const double total = p.mac + p.ipv4 + p.text + p.octets + p.enterprise +
                           p.net_snmp + p.non_conforming;
      EXPECT_GT(total, 0.0) << vendor.name;
    }
  }
}

TEST(Vendors, LookupByName) {
  EXPECT_EQ(vendor_profile("Cisco").enterprise_pen, 9u);
  EXPECT_EQ(vendor_profile("Juniper").initial_ttl, 64);
  EXPECT_EQ(vendor_profile("Huawei").initial_ttl, 255);  // same as Cisco
}

TEST(Vendors, TruthAliasSetsMatchInterfaces) {
  const World& world = tiny_world();
  const auto sets = world.truth_alias_sets();
  std::size_t total_addresses = 0;
  for (const auto& set : sets) total_addresses += set.size();
  EXPECT_EQ(total_addresses, world.address_count(net::Family::kIpv4) +
                                 world.address_count(net::Family::kIpv6));
}

}  // namespace
}  // namespace snmpv3fp::topo
