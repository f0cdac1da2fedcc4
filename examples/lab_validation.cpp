// Lab validation (paper §6.2.1): rebuild the controlled experiment.
//
// The paper configured Cisco IOS / IOS XR / Juniper Junos devices in a lab
// and discovered that (a) configuring an SNMPv2c community string
// implicitly enables SNMPv3, (b) the unauthenticated v3 query is rejected
// with "unknown user name" — but the REPORT leaks a MAC-based engine ID,
// (c) the MAC belongs to the device's *first* interface regardless of
// which address was queried. We drive the same three checks against
// vendor-faithful simulated agents.
#include <cassert>
#include <cstdio>

#include "sim/agent.hpp"
#include "topo/generator.hpp"

using namespace snmpv3fp;

namespace {

topo::OwnedDevice make_lab_router(const topo::VendorProfile& vendor,
                                  bool v2c_configured) {
  topo::OwnedDevice device;
  device.kind = topo::DeviceKind::kRouter;
  device.vendor = &vendor;
  // Three interfaces with distinct MACs and addresses.
  std::vector<topo::Interface> interfaces;
  for (std::uint32_t i = 0; i < 3; ++i) {
    topo::Interface& itf = interfaces.emplace_back();
    itf.mac = net::MacAddress::from_oui(0x00000c, 0x31db80 + i);
    itf.v4 = net::Ipv4(192, 0, 2, static_cast<std::uint8_t>(10 + i));
  }
  device.set_interfaces(std::move(interfaces));
  // "snmp-server community pass123 RO": enabling v2c implicitly enables v3.
  device.snmpv2_enabled = v2c_configured;
  device.snmpv3_enabled = v2c_configured;
  // Engine ID from the FIRST interface's MAC (the lab observation).
  device.engine_id = snmp::EngineId::make_mac(vendor.enterprise_pen,
                                              device.interfaces.front().mac);
  device.set_reboots({-30 * util::kDay});
  device.boots_before_history = 147;  // engineBoots = 148 after the reboot
  return device;
}

void check(bool condition, const char* what) {
  std::printf("  [%s] %s\n", condition ? "PASS" : "FAIL", what);
  assert(condition);
}

}  // namespace

int main() {
  const auto& cisco = topo::vendor_profile("Cisco");
  util::Rng rng(1);
  const util::VTime now = 0;

  std::printf("1) Factory default: no SNMP configured -> silence\n");
  {
    const auto router = make_lab_router(cisco, /*v2c_configured=*/false);
    const auto v2 = snmp::V2cMessage{
        "pass123",
        {snmp::PduType::kGetRequest, 1, 0, 0,
         {{snmp::kOidSysDescr, snmp::VarValue::null()}}}};
    check(sim::handle_udp(router, v2.encode(), now, rng).empty(),
          "no SNMPv2c response");
    const auto v3 = snmp::make_discovery_request(1000, 1001);
    check(sim::handle_udp(router, v3.encode(), now, rng).empty(),
          "no SNMPv3 response");
  }

  std::printf("\n2) 'snmp-server community pass123 RO' -> v2c works\n");
  const auto router = make_lab_router(cisco, /*v2c_configured=*/true);
  {
    const auto v2 = snmp::V2cMessage{
        "pass123",
        {snmp::PduType::kGetRequest, 2, 0, 0,
         {{snmp::kOidSysDescr, snmp::VarValue::null()}}}};
    const auto responses = sim::handle_udp(router, v2.encode(), now, rng);
    check(responses.size() == 1, "one SNMPv2c response");
    const auto decoded = snmp::V2cMessage::decode(responses.front());
    check(decoded.ok(), "response decodes");
    const auto sys_descr = decoded.value().pdu.bindings.at(0).value.as_string();
    check(sys_descr.has_value() && sys_descr->find("Cisco") != std::string::npos,
          ("sysDescr mentions the vendor: '" + sys_descr.value_or("") + "'")
              .c_str());
    const auto wrong = snmp::V2cMessage{
        "public",
        {snmp::PduType::kGetRequest, 3, 0, 0,
         {{snmp::kOidSysDescr, snmp::VarValue::null()}}}};
    check(sim::handle_udp(router, wrong.encode(), now, rng).empty(),
          "wrong community silently dropped");
  }

  std::printf("\n3) Unauthenticated SNMPv3 towards EVERY interface\n");
  for (std::size_t i = 0; i < router.interfaces.size(); ++i) {
    const auto request = snmp::make_discovery_request(
        4000 + static_cast<std::int32_t>(i), 5000);
    const auto responses = sim::handle_udp(router, request.encode(), now, rng);
    check(responses.size() == 1, "v3 REPORT despite no v3 configuration");
    const auto report = snmp::V3Message::decode(responses.front());
    check(report.ok(), "REPORT decodes");
    const auto& usm = report.value().usm;
    check(report.value().scoped_pdu.pdu.type == snmp::PduType::kReport,
          "PDU type is report");
    check(report.value().scoped_pdu.pdu.bindings.at(0).oid ==
              snmp::kOidUsmStatsUnknownEngineIds,
          "usmStats varbind present");
    const auto mac = usm.authoritative_engine_id.mac();
    check(mac.has_value() &&
              mac->bytes() == router.interfaces.front().mac.bytes(),
          ("engine ID carries the FIRST interface's MAC (" +
           mac.value_or(net::MacAddress()).to_string() + ")")
              .c_str());
    check(usm.engine_boots == 148, "engineBoots = 148 (paper Fig. 3 value)");
  }

  std::printf("\n4) Authenticated-looking request with unknown user\n");
  {
    auto request = snmp::make_discovery_request(6000, 6001);
    request.usm.authoritative_engine_id = router.engine_id;
    request.usm.user_name = "noAuthUser";
    const auto responses = sim::handle_udp(router, request.encode(), now, rng);
    check(responses.size() == 1, "rejected but answered");
    const auto report = snmp::V3Message::decode(responses.front());
    check(report.ok() && report.value().scoped_pdu.pdu.bindings.at(0).oid ==
                             snmp::kOidUsmStatsUnknownUserNames,
          "'unknown user name' REPORT — still leaks engine ID/boots/time");
  }

  std::printf("\nAll lab-validation checks passed.\n");
  return 0;
}
