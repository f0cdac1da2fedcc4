#include <gtest/gtest.h>

#include "sim/mib.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp {
namespace {

topo::OwnedDevice lab_device() {
  topo::OwnedDevice device;
  device.index = 7;
  device.kind = topo::DeviceKind::kRouter;
  device.vendor = &topo::vendor_profile("Cisco");
  std::vector<topo::Interface> interfaces;
  for (std::uint32_t i = 0; i < 3; ++i) {
    topo::Interface& itf = interfaces.emplace_back();
    itf.mac = net::MacAddress::from_oui(0x00000c, 0x100 + i);
    itf.v4 = net::Ipv4(192, 0, 2, static_cast<std::uint8_t>(10 + i));
  }
  device.set_interfaces(std::move(interfaces));
  device.snmpv2_enabled = true;
  device.snmpv3_enabled = true;
  device.engine_id = snmp::EngineId::make_mac(9, device.interfaces[0].mac);
  device.set_reboots({-util::kDay});
  device.boots_before_history = 1;
  return device;
}

TEST(Mib, TableIsSortedAndComplete) {
  const auto device = lab_device();
  const auto mib = sim::build_mib(device, 0);
  ASSERT_GE(mib.size(), 7u + 3u * 4u);  // system group + 4 cols x 3 ifaces
  EXPECT_TRUE(std::is_sorted(mib.begin(), mib.end(),
                             [](const auto& a, const auto& b) {
                               return a.oid < b.oid;
                             }));
}

TEST(Mib, GetAndNextSemantics) {
  const auto device = lab_device();
  const auto mib = sim::build_mib(device, 0);

  const auto* descr = sim::mib_get(mib, snmp::kOidSysDescr);
  ASSERT_NE(descr, nullptr);
  EXPECT_NE(descr->value.as_string().value_or("").find("Cisco"),
            std::string::npos);

  EXPECT_EQ(sim::mib_get(mib, {1, 3, 6, 1, 9, 9, 9}), nullptr);

  // GetNext from the mib-2 root lands on the first entry (sysDescr.0).
  const auto* first = sim::mib_next(mib, {1, 3, 6, 1, 2, 1});
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->oid, snmp::kOidSysDescr);

  // GetNext past the last entry returns null.
  EXPECT_EQ(sim::mib_next(mib, mib.back().oid), nullptr);
}

TEST(Mib, UptimeTracksEngineTime) {
  const auto device = lab_device();
  const auto mib = sim::build_mib(device, 0);
  const auto* uptime = sim::mib_get(mib, snmp::kOidSysUpTime);
  ASSERT_NE(uptime, nullptr);
  // 1 day in TimeTicks (hundredths of seconds).
  EXPECT_EQ(std::get<std::uint64_t>(uptime->value.data), 86400u * 100u);
}

TEST(Mib, IfPhysAddressRowsCarryRealMacs) {
  const auto device = lab_device();
  const auto mib = sim::build_mib(device, 0);
  const auto* phys = sim::mib_get(mib, {1, 3, 6, 1, 2, 1, 2, 2, 1, 6, 2});
  ASSERT_NE(phys, nullptr);
  const auto* bytes = std::get_if<util::Bytes>(&phys->value.data);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(util::to_hex_colon(*bytes), device.interfaces[1].mac.to_string());
}

}  // namespace
}  // namespace snmpv3fp
