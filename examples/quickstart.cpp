// Quickstart: craft one unauthenticated SNMPv3 discovery probe, fire it at
// a simulated agent, and read back the engine ID / boots / time — the
// whole trick of the paper in ~60 lines of API use.
//
// With --live <ip>, the same 60-byte probe is sent over a real UDP socket
// to the given address instead (only do this against devices you are
// authorized to probe).
#include <cstdio>
#include <cstring>
#include <iostream>

#include "core/fingerprint.hpp"
#include "net/udp_socket.hpp"
#include "scan/prober.hpp"
#include "sim/fabric.hpp"
#include "topo/generator.hpp"

using namespace snmpv3fp;

namespace {

int run_simulated() {
  // 1. A tiny simulated Internet.
  topo::World world = topo::generate_world(topo::WorldConfig::tiny());
  std::printf("simulated world: %zu devices across %zu ASes\n",
              world.devices.size(), world.ases.size());

  // 2. A transport over it, and a prober bound to our vantage point.
  sim::Fabric fabric(world, {});
  scan::Prober prober(fabric, {net::Ipv4(198, 51, 100, 7), 54321});

  // 3. Probe every assigned IPv4 address once (one 60-byte UDP packet per
  //    target: 88 bytes on the wire, exactly like the paper's ZMap probe).
  scan::ProbeConfig config;
  config.label = "quickstart";
  const auto result =
      prober.run(world.addresses(net::Family::kIpv4), config, /*start=*/0);
  std::printf("probed %zu targets, %zu responded\n", result.targets_probed,
              result.responsive());

  // 4. Every response already carries the identifier triple.
  std::size_t shown = 0;
  (void)result.for_each_record([&shown](const scan::ScanRecord& record) {
    if (shown == 10 || record.engine_id.format() != snmp::EngineIdFormat::kMac)
      return;
    const auto fp = core::fingerprint_engine_id(record.engine_id);
    std::printf(
        "  %-15s engineID=%-26s boots=%-3u uptime=%us vendor=%s (%s)\n",
        record.target.to_string().c_str(),
        record.engine_id.to_hex().c_str(), record.engine_boots,
        record.engine_time, fp.vendor.c_str(),
        std::string(core::to_string(fp.source)).c_str());
    ++shown;
  });
  return 0;
}

int run_live(const char* target_text) {
  const auto target = net::IpAddress::parse(target_text);
  if (!target) {
    std::fprintf(stderr, "bad address: %s\n", target.error().c_str());
    return 1;
  }
  auto socket = net::UdpSocket::open(target.value().family());
  if (!socket) {
    std::fprintf(stderr, "socket: %s\n", socket.error().c_str());
    return 1;
  }
  // Connected sockets get ICMP port-unreachable reported back as
  // SendOutcome::kRefused / RecvOutcome::refused instead of silence.
  const net::Endpoint peer{target.value(), net::kSnmpPort};
  if (auto connected = socket.value().connect_to(peer); !connected.ok()) {
    std::fprintf(stderr, "connect: %s\n", connected.error().c_str());
    return 1;
  }
  const auto probe = snmp::make_discovery_request(0x4a69, 0x37f0).encode();
  const auto sent = socket.value().send_to(peer, probe);
  if (!sent || sent.value() != net::SendOutcome::kSent) {
    std::fprintf(stderr, "send failed%s\n",
                 sent && sent.value() == net::SendOutcome::kRefused
                     ? " (port unreachable)"
                     : "");
    return 1;
  }
  std::printf("sent %zu-byte discovery probe to %s:161\n", probe.size(),
              target.value().to_string().c_str());
  auto reply = socket.value().receive(/*timeout_ms=*/3000);
  if (!reply) {
    std::fprintf(stderr, "receive: %s\n", reply.error().c_str());
    return 1;
  }
  if (reply.value().refused) {
    std::printf("target refused the probe (ICMP port unreachable)\n");
    return 0;
  }
  if (!reply.value().datagram.has_value()) {
    std::printf("no response within 3 s\n");
    return 0;
  }
  const auto message = snmp::V3Message::decode(reply.value().datagram->payload);
  if (!message) {
    std::printf("response did not parse as SNMPv3: %s\n",
                message.error().c_str());
    return 0;
  }
  const auto& usm = message.value().usm;
  const auto fp = core::fingerprint_engine_id(usm.authoritative_engine_id);
  std::printf("engineID=%s format=%s boots=%u time=%us vendor=%s\n",
              usm.authoritative_engine_id.to_hex().c_str(),
              std::string(snmp::to_string(usm.authoritative_engine_id.format()))
                  .c_str(),
              usm.engine_boots, usm.engine_time, fp.vendor.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--live") == 0)
    return run_live(argv[2]);
  return run_simulated();
}
