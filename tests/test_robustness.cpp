// Robustness and pacing properties that cut across modules: agents must
// survive arbitrary garbage, the prober must pace at the configured rate,
// the fabric must respect its latency envelope, and the medium-size world
// configs must stay internally consistent.
#include <gtest/gtest.h>

#include <set>

#include "scan/prober.hpp"
#include "sim/agent.hpp"
#include "snmp/usm.hpp"
#include "sim/fabric.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp {
namespace {

topo::OwnedDevice hardened_device() {
  topo::OwnedDevice device;
  device.kind = topo::DeviceKind::kRouter;
  device.vendor = &topo::vendor_profile("Cisco");
  topo::Interface itf;
  itf.mac = net::MacAddress::from_oui(0x00000c, 1);
  itf.v4 = net::Ipv4(192, 0, 2, 1);
  device.set_interfaces({itf});
  device.snmpv3_enabled = true;
  device.snmpv2_enabled = true;
  device.set_usm(
      {.name = "netops", .auth_password = "pw", .priv_password = {}});
  device.engine_id = snmp::EngineId::make_mac(9, itf.mac);
  device.set_reboots({-util::kDay});
  device.boots_before_history = 1;
  return device;
}

// Pure random bytes must never crash an agent; if the agent answers at
// all, the bytes must have parsed as SNMP.
TEST(AgentFuzz, RandomBytesNeverCrash) {
  const auto device = hardened_device();
  util::Rng rng(0xf22);
  for (int round = 0; round < 20000; ++round) {
    util::Bytes payload;
    const std::size_t length = rng.next_below(120);
    for (std::size_t i = 0; i < length; ++i)
      payload.push_back(static_cast<std::uint8_t>(rng.next()));
    const auto responses = sim::handle_udp(device, payload, 0, rng);
    if (!responses.empty()) {
      EXPECT_TRUE(snmp::peek_version(payload).ok());
    }
  }
  SUCCEED();
}

// Mutations of a VALID discovery probe: the agent either ignores or
// answers with a decodable report — never emits garbage.
TEST(AgentFuzz, MutatedDiscoveryYieldsDecodableResponsesOnly) {
  const auto device = hardened_device();
  const auto valid = snmp::make_discovery_request(5000, 5001).encode();
  util::Rng rng(77);
  for (int round = 0; round < 20000; ++round) {
    util::Bytes mutated = valid;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    for (const auto& response : sim::handle_udp(device, mutated, 0, rng)) {
      EXPECT_TRUE(snmp::V3Message::decode(response).ok());
    }
  }
}

// Authenticated path with corrupted MACs must reject without crashing.
TEST(AgentFuzz, CorruptedAuthParamsRejected) {
  const auto device = hardened_device();
  const auto key = snmp::derive_localized_key(snmp::AuthProtocol::kHmacSha1_96,
                                              "pw", device.engine_id);
  auto request = snmp::make_discovery_request(1, 2);
  request.usm.authoritative_engine_id = device.engine_id;
  request.usm.user_name = "netops";
  auto signed_message =
      snmp::authenticate(snmp::AuthProtocol::kHmacSha1_96, key, request);
  util::Rng rng(3);
  // Valid signature answers.
  EXPECT_EQ(sim::handle_udp(device, signed_message.encode(), 0, rng).size(),
            1u);
  // Any corrupted signature is silently rejected.
  for (std::size_t i = 0; i < snmp::kAuthParamsLength; ++i) {
    auto corrupted = signed_message;
    corrupted.usm.authentication_parameters[i] ^= 0x01;
    EXPECT_TRUE(sim::handle_udp(device, corrupted.encode(), 0, rng).empty());
  }
}

TEST(ProberPacing, VirtualDurationMatchesRate) {
  topo::World world = topo::generate_world(topo::WorldConfig::tiny());
  sim::Fabric fabric(world, {});
  scan::Prober prober(fabric, {net::Ipv4(198, 51, 100, 7), 4444});
  auto targets = world.addresses(net::Family::kIpv4);
  targets.resize(std::min<std::size_t>(targets.size(), 2000));

  scan::ProbeConfig config;
  config.rate_pps = 1000.0;
  config.response_timeout = util::kSecond;
  const auto result = prober.run(targets, config, /*start=*/0);
  const double expected_seconds =
      static_cast<double>(targets.size()) / config.rate_pps;
  EXPECT_NEAR(util::to_seconds(result.end_time - result.start_time),
              expected_seconds + 1.0 /* drain */, 0.1);
}

TEST(FabricLatency, ResponsesArriveWithinConfiguredEnvelope) {
  topo::World world = topo::generate_world(topo::WorldConfig::tiny());
  sim::FabricConfig config;
  config.probe_loss = 0.0;
  config.response_loss = 0.0;
  config.min_rtt = 50 * util::kMillisecond;
  config.max_rtt = 80 * util::kMillisecond;
  sim::Fabric fabric(world, config);
  scan::Prober prober(fabric, {net::Ipv4(198, 51, 100, 7), 4444});
  const auto result = prober.run(world.addresses(net::Family::kIpv4), {}, 0);
  ASSERT_GT(result.responsive(), 0u);
  for (const auto& record : result.materialize_records()) {
    if (record.response_count > 1) continue;  // amplified copies trickle
    const auto rtt = record.receive_time - record.send_time;
    EXPECT_GE(rtt, config.min_rtt);
    EXPECT_LE(rtt, config.max_rtt + util::kMillisecond);
  }
}

// The production world configs must be self-consistent (fast sanity: we
// only generate, never scan, the bigger worlds here).
TEST(WorldConfigs, FullInternetGeneratesConsistently) {
  auto config = topo::WorldConfig::full_internet();
  // Shrink heavy knobs so the test stays fast while exercising the same
  // code paths (mega pinning, populations, eyeball assignment).
  config.tail_as_count = 200;
  config.device_scale = 500.0;
  config.mega_scale = 100.0;
  const auto world = topo::generate_world(config);
  EXPECT_GT(world.devices.size(), 10000u);
  EXPECT_EQ(world.ases.size(), 200u + config.mega_ases.size());
  // Every region present; Huawei absent from NA routers.
  std::set<std::string> regions;
  for (const auto& as : world.ases) regions.insert(as.region);
  EXPECT_EQ(regions.size(), 6u);
  // Some devices of each kind.
  std::size_t routers = 0, cpe = 0, servers = 0;
  for (const auto& device : world.devices) {
    routers += device.kind == topo::DeviceKind::kRouter;
    cpe += device.kind == topo::DeviceKind::kCpe;
    servers += device.kind == topo::DeviceKind::kServer;
  }
  EXPECT_GT(routers, 0u);
  EXPECT_GT(cpe, 0u);
  EXPECT_GT(servers, 0u);
}

TEST(WorldConfigs, LoadBalancersAndNatFrontendsExist) {
  auto config = topo::WorldConfig::tiny();
  config.load_balancer_rate = 0.05;  // force plenty in the tiny world
  config.nat_frontend_rate = 0.05;
  const auto world = topo::generate_world(config);
  std::size_t lbs = 0, nats = 0;
  for (const auto& device : world.devices) {
    lbs += !device.backend_engines.empty();
    if (device.kind == topo::DeviceKind::kRouter && device.interfaces.size() >= 2) {
      std::set<std::uint32_t> prefixes;
      for (const auto& itf : device.interfaces)
        if (itf.v4) prefixes.insert(itf.v4->value() >> 16);
      nats += prefixes.size() >= 2;
    }
  }
  EXPECT_GT(lbs, 0u);
  EXPECT_GT(nats, 0u);
}

}  // namespace
}  // namespace snmpv3fp
