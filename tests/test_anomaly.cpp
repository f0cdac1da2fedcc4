// NAT / load-balancer / churn classification (paper §9 future work).
#include <gtest/gtest.h>

#include "core/anomaly.hpp"
#include "scan/campaign.hpp"
#include "topo/datasets.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp::core {
namespace {

// Hand-built two-AS world with one specimen of each anomaly class plus a
// well-behaved control device.
topo::World fixture_world() {
  topo::World world;
  for (std::uint32_t i = 0; i < 2; ++i) {
    topo::AutonomousSystem as;
    as.asn = 100 + i;
    as.region = i == 0 ? "EU" : "NA";
    as.v4_prefix = net::Prefix4(net::Ipv4(static_cast<std::uint8_t>(60 + i),
                                          0, 0, 0), 16);
    as.v6_prefix = {0x2001, static_cast<std::uint16_t>(100 + i)};
    world.ases.push_back(std::move(as));
  }
  world.v4_cursor.assign(2, 1000);

  const auto make_device = [](std::vector<topo::Interface> interfaces) {
    topo::OwnedDevice device;
    device.vendor = &topo::vendor_profile("Cisco");
    device.snmpv3_enabled = true;
    device.set_interfaces(std::move(interfaces));
    device.set_reboots({-10 * util::kDay});
    device.boots_before_history = 4;
    return device;
  };
  const auto iface = [](std::uint8_t a, std::uint8_t d) {
    topo::Interface itf;
    itf.mac = net::MacAddress::from_oui(0x00000c, d);
    itf.v4 = net::Ipv4(a, 0, 0, d);
    return itf;
  };

  // 0: control router, two interfaces in AS 0.
  auto control = make_device({iface(60, 1), iface(60, 2)});
  control.engine_id = snmp::EngineId::make_mac(9, control.interfaces[0].mac);
  world.add_device(std::move(control));

  // 1: load-balancer VIP fronting two backends.
  auto lb = make_device({iface(60, 10)});
  lb.kind = topo::DeviceKind::kServer;
  lb.engine_id = snmp::EngineId::make_netsnmp(0x1111);
  lb.set_backend_engines({snmp::EngineId::make_netsnmp(0x2222),
                          snmp::EngineId::make_netsnmp(0x3333)});
  world.add_device(std::move(lb));

  // 2+3: churning CPE pair (addresses recycle between the two of them).
  for (std::uint32_t c = 0; c < 2; ++c) {
    auto cpe = make_device({iface(60, static_cast<std::uint8_t>(20 + c))});
    cpe.kind = topo::DeviceKind::kCpe;
    cpe.engine_id = snmp::EngineId::make_mac(
        4413, net::MacAddress::from_oui(0xd07ab5, 20 + c));
    cpe.churns = true;
    world.add_device(std::move(cpe));
  }

  // 4: NAT'd router — same engine reachable in AS 0 and AS 1.
  auto nat = make_device({iface(60, 30), iface(61, 30)});
  nat.engine_id = snmp::EngineId::make_mac(9, nat.interfaces[0].mac);
  world.add_device(std::move(nat));

  world.reindex();
  return world;
}

class AnomalyTest : public ::testing::Test {
 protected:
  AnomalyTest() : world_(fixture_world()) {
    scan::CampaignOptions options;
    options.seed = 29;
    options.fabric.probe_loss = 0.0;
    options.fabric.response_loss = 0.0;
    pair_ = scan::run_two_scan_campaign(world_, options);
    as_table_ = topo::build_as_table(world_);
  }

  AnomalyReport classify() {
    sim::Fabric fabric(world_, {.seed = 5,
                                .probe_loss = 0.0,
                                .response_loss = 0.0,
                                .faults = {},
                                .agent = {}});
    fabric.clock().advance(20 * util::kDay);
    return classify_anomalies(pair_.scan1, pair_.scan2, fabric,
                              {net::Ipv4(198, 51, 100, 7), 4444}, as_table_);
  }

  topo::World world_;
  scan::CampaignPair pair_;
  net::AsTable as_table_;
};

TEST_F(AnomalyTest, DetectsLoadBalancer) {
  const auto report = classify();
  EXPECT_GE(report.load_balancer_count(), 1u);
  bool found = false;
  for (const auto& anomaly : report.anomalies) {
    if (anomaly.kind != AnomalyKind::kLoadBalancer) continue;
    EXPECT_EQ(anomaly.address, net::IpAddress(net::Ipv4(60, 0, 0, 10)));
    EXPECT_GE(anomaly.engines.size(), 2u);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(AnomalyTest, DetectsAddressChurn) {
  const auto report = classify();
  // The recycled CPE lease shows a different engine in scan 2 whose
  // scan-1 engine reappeared at the partner address.
  EXPECT_GE(report.churn_count(), 1u);
  for (const auto& anomaly : report.anomalies) {
    if (anomaly.kind != AnomalyKind::kAddressChurn) continue;
    EXPECT_EQ(anomaly.engines.size(), 2u);
  }
}

TEST_F(AnomalyTest, DetectsNatFrontend) {
  const auto report = classify();
  EXPECT_GE(report.nat_count(), 2u);  // both frontends flagged
  std::set<std::string> nat_addresses;
  for (const auto& anomaly : report.anomalies)
    if (anomaly.kind == AnomalyKind::kNat)
      nat_addresses.insert(anomaly.address.to_string());
  EXPECT_TRUE(nat_addresses.count("60.0.0.30"));
  EXPECT_TRUE(nat_addresses.count("61.0.0.30"));
}

TEST_F(AnomalyTest, ControlDeviceNotFlagged) {
  const auto report = classify();
  for (const auto& anomaly : report.anomalies) {
    EXPECT_NE(anomaly.address, net::IpAddress(net::Ipv4(60, 0, 0, 1)));
    EXPECT_NE(anomaly.address, net::IpAddress(net::Ipv4(60, 0, 0, 2)));
  }
}

TEST_F(AnomalyTest, KindNames) {
  EXPECT_EQ(to_string(AnomalyKind::kLoadBalancer), "load balancer");
  EXPECT_EQ(to_string(AnomalyKind::kNat), "NAT frontend");
}

}  // namespace
}  // namespace snmpv3fp::core
