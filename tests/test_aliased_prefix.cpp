// Aliased IPv6 /64 detection (hitlist preprocessing, paper §4.1.1).
#include <gtest/gtest.h>

#include "scan/aliased_prefix.hpp"
#include "sim/fabric.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp::scan {
namespace {

topo::World aliased_world() {
  topo::World world;
  topo::AutonomousSystem as;
  as.asn = 100;
  as.region = "EU";
  as.v4_prefix = net::Prefix4(net::Ipv4(60, 0, 0, 0), 16);
  as.v6_prefix = {0x2001, 0x64};
  world.ases.push_back(std::move(as));
  world.v4_cursor.assign(1, 0);

  const auto add_server = [&](std::uint16_t subnet, bool aliased) {
    topo::OwnedDevice device;
    device.kind = topo::DeviceKind::kServer;
    device.vendor = &topo::vendor_profile("Net-SNMP");
    device.snmpv3_enabled = true;
    device.engine_id = snmp::EngineId::make_netsnmp(0x9000 + subnet);
    device.set_reboots({-util::kDay});
    device.boots_before_history = 1;
    device.answers_whole_v6_prefix = aliased;
    topo::Interface itf;
    itf.mac = net::MacAddress::from_oui(0x001b21, subnet);
    itf.v6 = net::Ipv6::from_groups({0x2001, 0x64, subnet, 0, 0, 0, 0, 1});
    device.set_interfaces({itf});
    world.add_device(std::move(device));
  };
  add_server(1, /*aliased=*/true);   // 2001:64:1::/64 answers everywhere
  add_server(2, /*aliased=*/false);  // 2001:64:2::1 only
  world.reindex();
  return world;
}

TEST(AliasedPrefix, Prefix64Key) {
  const auto a = net::Ipv6::parse("2001:64:1::1").value();
  const auto b = net::Ipv6::parse("2001:64:1::dead:beef").value();
  const auto c = net::Ipv6::parse("2001:64:2::1").value();
  EXPECT_EQ(prefix64_of(a), prefix64_of(b));
  EXPECT_NE(prefix64_of(a), prefix64_of(c));
}

TEST(AliasedPrefix, WorldAnswersRandomIidsOnlyInAliasedPrefix) {
  const auto world = aliased_world();
  const auto inside =
      net::Ipv6::parse("2001:64:1:0:1234:5678:9abc:def0").value();
  const auto outside =
      net::Ipv6::parse("2001:64:2:0:1234:5678:9abc:def0").value();
  EXPECT_NE(world.device_at(net::IpAddress(inside)), nullptr);
  EXPECT_EQ(world.device_at(net::IpAddress(outside)), nullptr);
  // The assigned address in the non-aliased prefix still answers.
  EXPECT_NE(world.device_at(
                net::IpAddress(net::Ipv6::parse("2001:64:2::1").value())),
            nullptr);
}

TEST(AliasedPrefix, DetectionSeparatesAliasedFromNormal) {
  auto world = aliased_world();
  sim::FabricConfig config;
  config.probe_loss = 0.0;
  config.response_loss = 0.0;
  sim::Fabric fabric(world, config);

  const std::vector<net::IpAddress> candidates = {
      net::IpAddress(net::Ipv6::parse("2001:64:1::1").value()),
      net::IpAddress(net::Ipv6::parse("2001:64:2::1").value()),
  };
  const auto detection = detect_aliased_prefixes(
      fabric, {net::Ipv4(198, 51, 100, 7), 4444}, candidates);
  EXPECT_EQ(detection.prefixes_tested, 2u);
  ASSERT_EQ(detection.aliased_prefixes.size(), 1u);
  EXPECT_TRUE(detection.aliased_prefixes.count(
      prefix64_of(net::Ipv6::parse("2001:64:1::1").value())));

  const auto filtered = filter_aliased(candidates, detection);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].to_string(), "2001:64:2::1");
}

TEST(AliasedPrefix, GeneratedWorldContainsAliasedPrefixes) {
  auto config = topo::WorldConfig::tiny();
  config.aliased_prefix_rate = 0.5;  // force plenty
  const auto world = topo::generate_world(config);
  std::size_t aliased = 0;
  for (const auto& device : world.devices)
    aliased += device.answers_whole_v6_prefix;
  EXPECT_GT(aliased, 0u);
}

}  // namespace
}  // namespace snmpv3fp::scan
