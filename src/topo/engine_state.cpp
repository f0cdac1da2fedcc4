#include "topo/engine_state.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <string>

namespace snmpv3fp::topo {

namespace {

using net::Ipv4;
using net::MacAddress;
using snmp::EngineId;
using util::Rng;
using util::VTime;

constexpr double kPromiscuousRate = 0.004;
constexpr double kUnregisteredMacRate = 0.003;
constexpr double kShortNonconformingRate = 0.30;  // within non-conforming
constexpr double kPrivateIpv4EngineRate = 0.25;   // within the IPv4 format

// Payloads reused verbatim across vendors — the "promiscuous" filter prey.
util::ByteView promiscuous_payload(Rng& rng) {
  static constexpr std::uint8_t kDefault[] = {0x64, 0x65, 0x66, 0x61,
                                              0x75, 0x6c, 0x74};  // "default"
  static constexpr std::uint8_t kAllOnes[] = {0xff, 0xff, 0xff,
                                              0xff, 0xff, 0xff};  // MAC
  static constexpr std::uint8_t kDocExample[] = {0x12, 0x34, 0x56,
                                                 0x78, 0x9a, 0xbc};
  static constexpr util::ByteView kTemplates[] = {kDefault, kAllOnes,
                                                  kDocExample};
  return kTemplates[rng.next_below(std::size(kTemplates))];
}

// Uptime draw calibrated against Figure 13: ~20% rebooted within a month,
// ~50% within ~3.5 months, ~75% within a year (router baseline, scaled by
// the vendor's mean time between reboots).
double draw_uptime_days(Rng& rng, double mtbr_days) {
  const double scale = mtbr_days / 300.0;
  if (rng.chance(0.72)) return rng.exponential(100.0 * scale);
  return rng.uniform(0.0, 2500.0 * scale);
}

}  // namespace

MacAddress vendor_mac(Rng& rng, std::span<const std::uint32_t> ouis,
                      bool unregistered) {
  if (unregistered) {
    // An OUI absent from the registry; locally-administered style.
    const std::uint32_t oui = 0x020000 | (rng.next() & 0x00ff00) | 0x42;
    return MacAddress::from_oui(oui, static_cast<std::uint32_t>(rng.next()) &
                                         0xffffff);
  }
  const std::uint32_t oui =
      ouis.empty() ? 0x001b21 : ouis[rng.next_below(ouis.size())];
  return MacAddress::from_oui(oui,
                              static_cast<std::uint32_t>(rng.next()) & 0xffffff);
}

// 0x800000090300000000000000 byte for byte: enterprise 9 (Cisco), format
// byte 3 (MAC) followed by SEVEN zero bytes (one more than a MAC holds; the
// strict classifier therefore degrades it to Octets, and fingerprinting
// falls back on the enterprise number, which still says Cisco).
const EngineId& constant_bug_engine_id() {
  static const EngineId id(util::from_hex("800000090300000000000000").value());
  return id;
}

EngineId skewed_nonconforming_id(Rng& rng, std::size_t len) {
  std::array<std::uint8_t, 12> raw{};
  assert(len <= raw.size());
  for (std::size_t i = 0; i < len; ++i) {
    std::uint8_t b = 0;
    for (int bit = 0; bit < 8; ++bit)
      b = static_cast<std::uint8_t>((b << 1) | (rng.chance(0.35) ? 1 : 0));
    raw[i] = b;
  }
  return EngineId::make_nonconforming(util::ByteView(raw.data(), len));
}

EngineId synthesize_engine_id(Rng& rng, const Device& device,
                              const VendorProfile& vendor,
                              std::string_view host, std::string_view domain) {
  const auto& p = vendor.engine_id_policy;
  if (rng.chance(kPromiscuousRate))
    return EngineId::make_octets(vendor.enterprise_pen,
                                 promiscuous_payload(rng));
  const std::array<double, 7> weights = {p.mac,    p.ipv4,       p.text,
                                         p.octets, p.enterprise, p.net_snmp,
                                         p.non_conforming};
  switch (rng.weighted_index(weights)) {
    case 0: {  // MAC
      // Per the lab experiment (§6.2.1): the MAC of the "first" interface.
      MacAddress mac = device.interfaces.front().mac;
      if (rng.chance(kUnregisteredMacRate))
        mac = vendor_mac(rng, {}, /*unregistered=*/true);
      return EngineId::make_mac(vendor.enterprise_pen, mac);
    }
    case 1: {  // IPv4
      if (rng.chance(kPrivateIpv4EngineRate)) {
        // Management loopback in RFC 1918 space: unroutable filter food.
        // Named draws, last octet first: argument order is unspecified.
        const auto octet4 = static_cast<std::uint8_t>(rng.next());
        const auto octet3 = static_cast<std::uint8_t>(rng.next());
        const auto octet2 = static_cast<std::uint8_t>(rng.next());
        return EngineId::make_ipv4(vendor.enterprise_pen,
                                   Ipv4(10, octet2, octet3, octet4));
      }
      for (const auto& itf : device.interfaces)
        if (itf.v4) return EngineId::make_ipv4(vendor.enterprise_pen, *itf.v4);
      return EngineId::make_ipv4(vendor.enterprise_pen,
                                 Ipv4(10, 0, 0, 1));  // v6-only device
    }
    case 2: {  // Text: the device's FQDN — unique-ish, as in the wild
      std::string fqdn;
      fqdn.reserve(host.size() + 1 + domain.size());
      fqdn.append(host).append(".").append(domain);
      return EngineId::make_text(vendor.enterprise_pen, fqdn);
    }
    case 3: {  // Octets: random bytes, Hamming weight ~0.5 (Figure 6)
      std::array<std::uint8_t, 12> payload{};
      const std::size_t len = 6 + rng.next_below(7);
      for (std::size_t i = 0; i < len; ++i)
        payload[i] = static_cast<std::uint8_t>(rng.next());
      return EngineId::make_octets(vendor.enterprise_pen,
                                   util::ByteView(payload.data(), len));
    }
    case 4: {  // enterprise-specific format
      const auto format = static_cast<std::uint8_t>(128 + rng.next_below(4));
      const std::size_t len = 4 + rng.next_below(8);
      util::Bytes raw;
      raw.reserve(5 + len);
      util::append_be(raw, (vendor.enterprise_pen & 0x7fffffffu) | 0x80000000u,
                      4);
      raw.push_back(format);
      for (std::size_t i = 0; i < len; ++i)
        raw.push_back(static_cast<std::uint8_t>(rng.next()));
      return EngineId(std::move(raw));
    }
    case 5:  // Net-SNMP scheme
      return EngineId::make_netsnmp(rng.next());
    default: {  // non-conforming: raw bytes, positively-skewed Hamming weight
      std::size_t len = 8 + rng.next_below(5);
      if (rng.chance(kShortNonconformingRate)) len = 1 + rng.next_below(3);
      return skewed_nonconforming_id(rng, len);
    }
  }
}

std::uint32_t synthesize_reboot_history(Rng& rng, double mtbr_days,
                                        VTime horizon,
                                        std::vector<VTime>& reboots) {
  const double age_days = rng.uniform(360.0, 3600.0);
  const double uptime_days =
      std::min(draw_uptime_days(rng, mtbr_days), age_days);
  reboots.push_back(-util::from_seconds(uptime_days * 86400.0));
  // Forward reboots over the measurement horizon (causes the
  // "inconsistent engine boots" filter drops between scans).
  VTime t = 0;
  while (true) {
    t += util::from_seconds(rng.exponential(mtbr_days * 86400.0));
    if (t >= horizon) break;
    reboots.push_back(t);
  }
  const double prior = age_days / std::max(mtbr_days, 1.0);
  return 1 + static_cast<std::uint32_t>(
                 std::max(0.0, rng.normal(prior, prior * 0.2)));
}

}  // namespace snmpv3fp::topo
