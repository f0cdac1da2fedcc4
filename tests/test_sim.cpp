#include <gtest/gtest.h>

#include <set>

#include "sim/agent.hpp"
#include "sim/fabric.hpp"
#include "sim/stack.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp::sim {
namespace {

using snmp::EngineId;
using snmp::PduType;
using snmp::V3Message;

topo::OwnedDevice make_device() {
  topo::OwnedDevice device;
  device.kind = topo::DeviceKind::kRouter;
  device.vendor = &topo::vendor_profile("Cisco");
  topo::Interface itf;
  itf.mac = net::MacAddress::from_oui(0x00000c, 0x31db80);
  itf.v4 = net::Ipv4(192, 0, 2, 1);
  device.set_interfaces({itf});
  device.snmpv3_enabled = true;
  device.snmpv2_enabled = true;
  device.engine_id = EngineId::make_mac(9, itf.mac);
  device.set_reboots({-10 * util::kDay});
  device.boots_before_history = 4;
  return device;
}

util::Bytes discovery() {
  return snmp::make_discovery_request(1000, 2000).encode();
}

// ---------------------------------------------------------------------------
// Agent behaviour
// ---------------------------------------------------------------------------

TEST(Agent, DiscoveryGetsReportWithEngineTriple) {
  const auto device = make_device();
  util::Rng rng(1);
  const auto responses = handle_udp(device, discovery(), 0, rng);
  ASSERT_EQ(responses.size(), 1u);
  const auto report = V3Message::decode(responses.front());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().scoped_pdu.pdu.type, PduType::kReport);
  EXPECT_EQ(report.value().usm.authoritative_engine_id, device.engine_id);
  EXPECT_EQ(report.value().usm.engine_boots, 5u);  // 4 prior + 1 in history
  EXPECT_EQ(report.value().usm.engine_time, 10u * 86400u);
}

TEST(Agent, DisabledEngineStaysSilent) {
  auto device = make_device();
  device.snmpv3_enabled = false;
  util::Rng rng(1);
  EXPECT_TRUE(handle_udp(device, discovery(), 0, rng).empty());
}

TEST(Agent, GarbageBytesIgnored) {
  const auto device = make_device();
  util::Rng rng(1);
  EXPECT_TRUE(handle_udp(device, util::Bytes{0xde, 0xad}, 0, rng).empty());
  EXPECT_TRUE(handle_udp(device, util::Bytes{}, 0, rng).empty());
}

TEST(Agent, NonReportableRequestIgnored) {
  const auto device = make_device();
  auto request = snmp::make_discovery_request(1, 2);
  request.header.msg_flags = 0;  // reportable bit clear
  util::Rng rng(1);
  EXPECT_TRUE(handle_udp(device, request.encode(), 0, rng).empty());
}

TEST(Agent, EmptyEngineIdBug) {
  auto device = make_device();
  device.empty_engine_id_bug = true;
  util::Rng rng(1);
  const auto responses = handle_udp(device, discovery(), 0, rng);
  ASSERT_EQ(responses.size(), 1u);
  const auto report = V3Message::decode(responses.front());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().usm.authoritative_engine_id.empty());
}

TEST(Agent, ZeroTimeBug) {
  auto device = make_device();
  device.zero_time_bug = true;
  util::Rng rng(1);
  const auto report =
      V3Message::decode(handle_udp(device, discovery(), 0, rng).front());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().usm.engine_boots, 0u);
  EXPECT_EQ(report.value().usm.engine_time, 0u);
}

TEST(Agent, FutureTimeBugReportsHugeEngineTime) {
  auto device = make_device();
  device.future_time_bug = true;
  util::Rng rng(1);
  const auto report =
      V3Message::decode(handle_udp(device, discovery(), 0, rng).front());
  ASSERT_TRUE(report.ok());
  // Larger than the seconds between 1970 and the simulated 2021 epoch.
  EXPECT_GT(report.value().usm.engine_time, 1618531200u);
}

TEST(Agent, AmplifierSendsManyIdenticalCopies) {
  auto device = make_device();
  device.amplification = 7;
  util::Rng rng(1);
  const auto responses = handle_udp(device, discovery(), 0, rng);
  ASSERT_EQ(responses.size(), 7u);
  for (const auto& copy : responses) EXPECT_EQ(copy, responses.front());
}

TEST(Agent, TimeJitterVariesPerResponse) {
  auto device = make_device();
  device.time_jitter_s = 20.0;
  util::Rng rng(1);
  std::set<std::uint32_t> times;
  for (int i = 0; i < 10; ++i) {
    const auto report =
        V3Message::decode(handle_udp(device, discovery(), 0, rng).front());
    times.insert(report.value().usm.engine_time);
  }
  EXPECT_GT(times.size(), 3u);  // fresh jitter each response
}

TEST(Agent, UnknownUserStillLeaksEngineId) {
  const auto device = make_device();
  auto request = snmp::make_discovery_request(5, 6);
  request.usm.authoritative_engine_id = device.engine_id;
  request.usm.user_name = "admin";
  util::Rng rng(1);
  const auto report =
      V3Message::decode(handle_udp(device, request.encode(), 0, rng).front());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().scoped_pdu.pdu.bindings.at(0).oid,
            snmp::kOidUsmStatsUnknownUserNames);
  EXPECT_EQ(report.value().usm.authoritative_engine_id, device.engine_id);
}

TEST(Agent, V2cRequiresCommunityAndV2Enabled) {
  auto device = make_device();
  snmp::V2cMessage get;
  get.community = "pass123";
  get.pdu.type = PduType::kGetRequest;
  get.pdu.bindings = {{snmp::kOidSysDescr, snmp::VarValue::null()}};
  util::Rng rng(1);
  EXPECT_EQ(handle_udp(device, get.encode(), 0, rng).size(), 1u);
  get.community = "wrong";
  EXPECT_TRUE(handle_udp(device, get.encode(), 0, rng).empty());
  get.community = "pass123";
  device.snmpv2_enabled = false;
  EXPECT_TRUE(handle_udp(device, get.encode(), 0, rng).empty());
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : world_(topo::generate_world(topo::WorldConfig::tiny())) {}

  net::Datagram probe_to(const net::IpAddress& target) {
    net::Datagram dg;
    dg.source = {net::Ipv4(198, 51, 100, 7), 4444};
    dg.destination = {target, net::kSnmpPort};
    dg.payload = discovery();
    return dg;
  }

  // Finds an address whose device answers SNMPv3.
  net::IpAddress responsive_address() const {
    for (const auto& device : world_.devices) {
      if (!device.snmpv3_enabled || device.empty_engine_id_bug) continue;
      for (const auto& itf : device.interfaces)
        if (itf.v4) return net::IpAddress(*itf.v4);
    }
    ADD_FAILURE() << "no responsive device in tiny world";
    return net::IpAddress(net::Ipv4(0, 0, 0, 0));
  }

  topo::World world_;
};

TEST_F(FabricTest, RoundTripDeliversResponse) {
  FabricConfig config;
  config.probe_loss = 0.0;
  config.response_loss = 0.0;
  Fabric fabric(world_, config);
  fabric.send(probe_to(responsive_address()));
  EXPECT_FALSE(fabric.receive().has_value());  // nothing before RTT elapses
  fabric.run_until(2 * util::kSecond);
  const auto response = fabric.receive();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->source.address, responsive_address());
  EXPECT_TRUE(V3Message::decode(response->payload).ok());
  EXPECT_EQ(fabric.stats().datagrams_sent, 1u);
  EXPECT_EQ(fabric.stats().responses_received, 1u);
}

TEST_F(FabricTest, DeadAddressIsSilent) {
  Fabric fabric(world_, {});
  fabric.send(probe_to(net::IpAddress(net::Ipv4(203, 0, 114, 200))));
  fabric.run_until(10 * util::kSecond);
  EXPECT_FALSE(fabric.receive().has_value());
}

TEST_F(FabricTest, WrongPortIsSilent) {
  FabricConfig config;
  config.probe_loss = 0.0;
  Fabric fabric(world_, config);
  auto probe = probe_to(responsive_address());
  probe.destination.port = 162;
  fabric.send(std::move(probe));
  fabric.run_until(10 * util::kSecond);
  EXPECT_FALSE(fabric.receive().has_value());
}

TEST_F(FabricTest, FullLossDropsEverything) {
  FabricConfig config;
  config.probe_loss = 1.0;
  Fabric fabric(world_, config);
  for (int i = 0; i < 20; ++i) fabric.send(probe_to(responsive_address()));
  fabric.run_until(10 * util::kSecond);
  EXPECT_FALSE(fabric.receive().has_value());
  EXPECT_EQ(fabric.stats().datagrams_delivered, 0u);
}

TEST_F(FabricTest, DeterministicAcrossRuns) {
  const auto run_once = [&]() {
    topo::World world = topo::generate_world(topo::WorldConfig::tiny());
    FabricConfig config;
    config.seed = 5;
    Fabric fabric(world, config);
    for (const auto& address : world.addresses(net::Family::kIpv4))
      fabric.send(probe_to(address));
    fabric.run_until(util::kMinute);
    std::vector<std::pair<std::string, util::Bytes>> received;
    while (auto dg = fabric.receive())
      received.emplace_back(dg->source.address.to_string(), dg->payload);
    return received;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Stack simulator
// ---------------------------------------------------------------------------

TEST_F(FabricTest, SharedCounterIpIdsIncreaseMonotonically) {
  StackSimulator stack(world_, 3);
  for (const auto& device : world_.devices) {
    if (device.ipid_policy != topo::IpIdPolicy::kSharedCounter) continue;
    std::optional<net::Ipv4> v4;
    for (const auto& itf : device.interfaces)
      if (itf.v4) {
        v4 = itf.v4;
        break;
      }
    if (!v4) continue;
    const auto a = stack.icmp_echo(*v4, 10 * util::kSecond);
    const auto b = stack.icmp_echo(*v4, 20 * util::kSecond);
    if (!a || !b) continue;
    const std::uint16_t delta = b->ip_id - a->ip_id;  // mod 2^16 forward
    EXPECT_GT(delta, 0u);
    return;  // one device suffices
  }
}

TEST_F(FabricTest, TcpSilentForClosedRouters) {
  StackSimulator stack(world_, 3);
  for (const auto& device : world_.devices) {
    if (device.tcp_open) continue;
    for (const auto& itf : device.interfaces) {
      if (!itf.v4) continue;
      const auto reply = stack.tcp_syn(net::IpAddress(*itf.v4), 22, 0);
      EXPECT_EQ(reply.outcome, TcpProbeOutcome::kSilent);
      return;
    }
  }
}

TEST_F(FabricTest, InitialTtlReflectsVendor) {
  StackSimulator stack(world_, 3);
  for (const auto& device : world_.devices) {
    for (const auto& itf : device.interfaces) {
      if (!itf.v4) continue;
      const auto reply = stack.icmp_echo(*itf.v4, 0);
      if (!reply) continue;
      EXPECT_LE(reply->ttl, device.initial_ttl);
      EXPECT_GE(device.initial_ttl - reply->ttl, 10);  // >= 10 hops away
      return;
    }
  }
}

}  // namespace
}  // namespace snmpv3fp::sim
