#include "snmp/engine_id.hpp"

#include "net/registry.hpp"
#include "util/rng.hpp"

namespace snmpv3fp::snmp {

std::string_view to_string(EngineIdFormat format) {
  switch (format) {
    case EngineIdFormat::kEmpty: return "Empty";
    case EngineIdFormat::kIpv4: return "IPv4";
    case EngineIdFormat::kIpv6: return "IPv6";
    case EngineIdFormat::kMac: return "MAC";
    case EngineIdFormat::kText: return "Text";
    case EngineIdFormat::kOctets: return "Octets";
    case EngineIdFormat::kNetSnmp: return "Net-SNMP";
    case EngineIdFormat::kEnterpriseSpecific: return "Enterprise-specific";
    case EngineIdFormat::kNonConforming: return "Non-conforming";
  }
  return "?";
}

Bytes EngineId::prefix(std::uint32_t enterprise, std::uint8_t format_byte,
                       std::size_t payload_size) {
  Bytes out;
  out.reserve(5 + payload_size);
  util::append_be(out, (enterprise & 0x7fffffffu) | 0x80000000u, 4);
  out.push_back(format_byte);
  return out;
}

EngineId EngineId::make_mac(std::uint32_t enterprise, const net::MacAddress& mac) {
  const auto& mac_bytes = mac.bytes();
  Bytes raw = prefix(enterprise, 3, mac_bytes.size());
  raw.insert(raw.end(), mac_bytes.begin(), mac_bytes.end());
  return EngineId(std::move(raw));
}

EngineId EngineId::make_ipv4(std::uint32_t enterprise, net::Ipv4 address) {
  Bytes raw = prefix(enterprise, 1, 4);
  util::append_be(raw, address.value(), 4);
  return EngineId(std::move(raw));
}

EngineId EngineId::make_ipv6(std::uint32_t enterprise, const net::Ipv6& address) {
  const auto& addr_bytes = address.bytes();
  Bytes raw = prefix(enterprise, 2, addr_bytes.size());
  raw.insert(raw.end(), addr_bytes.begin(), addr_bytes.end());
  return EngineId(std::move(raw));
}

EngineId EngineId::make_text(std::uint32_t enterprise, std::string_view text) {
  Bytes raw = prefix(enterprise, 4, text.size());
  raw.insert(raw.end(), text.begin(), text.end());
  return EngineId(std::move(raw));
}

EngineId EngineId::make_octets(std::uint32_t enterprise, ByteView octets) {
  Bytes raw = prefix(enterprise, 5, octets.size());
  raw.insert(raw.end(), octets.begin(), octets.end());
  return EngineId(std::move(raw));
}

EngineId EngineId::make_netsnmp(std::uint64_t random_payload) {
  // Net-SNMP default: PEN 8072, enterprise-specific format 0x80 followed by
  // a method byte and random data (here: 8 random bytes).
  Bytes raw = prefix(net::kPenNetSnmp, 0x80, 8);
  util::append_be(raw, random_payload, 8);
  return EngineId(std::move(raw));
}

EngineId EngineId::make_nonconforming(ByteView raw) {
  Bytes bytes(raw.begin(), raw.end());
  if (!bytes.empty()) bytes[0] &= 0x7f;  // ensure the conformance bit is clear
  return EngineId(std::move(bytes));
}

EngineIdFormat EngineId::format() const {
  if (raw_.empty()) return EngineIdFormat::kEmpty;
  if (!is_conforming()) return EngineIdFormat::kNonConforming;
  if (raw_.size() < 5) return EngineIdFormat::kNonConforming;
  const std::uint8_t fmt = raw_[4];
  const std::size_t payload_len = raw_.size() - 5;
  switch (fmt) {
    case 1:
      return payload_len == 4 ? EngineIdFormat::kIpv4
                              : EngineIdFormat::kOctets;
    case 2:
      return payload_len == 16 ? EngineIdFormat::kIpv6
                               : EngineIdFormat::kOctets;
    case 3:
      return payload_len == 6 ? EngineIdFormat::kMac : EngineIdFormat::kOctets;
    case 4:
      return EngineIdFormat::kText;
    case 5:
      return EngineIdFormat::kOctets;
    default:
      if (fmt >= 128) {
        return enterprise() == net::kPenNetSnmp
                   ? EngineIdFormat::kNetSnmp
                   : EngineIdFormat::kEnterpriseSpecific;
      }
      return EngineIdFormat::kOctets;  // reserved format values
  }
}

std::optional<std::uint32_t> EngineId::enterprise() const {
  if (!is_conforming() || raw_.size() < 5) return std::nullopt;
  return static_cast<std::uint32_t>(util::read_be(ByteView(raw_).first(4))) &
         0x7fffffffu;
}

std::optional<ByteView> EngineId::payload() const {
  if (!is_conforming() || raw_.size() < 5) return std::nullopt;
  return ByteView(raw_).subspan(5);
}

std::optional<net::MacAddress> EngineId::mac() const {
  if (format() != EngineIdFormat::kMac) return std::nullopt;
  auto mac = net::MacAddress::from_bytes(*payload());
  if (!mac) return std::nullopt;
  return mac.value();
}

std::optional<net::Ipv4> EngineId::ipv4() const {
  if (format() != EngineIdFormat::kIpv4) return std::nullopt;
  auto addr = net::Ipv4::from_bytes(*payload());
  if (!addr) return std::nullopt;
  return addr.value();
}

std::optional<net::Ipv6> EngineId::ipv6() const {
  if (format() != EngineIdFormat::kIpv6) return std::nullopt;
  auto addr = net::Ipv6::from_bytes(*payload());
  if (!addr) return std::nullopt;
  return addr.value();
}

std::optional<std::string> EngineId::text() const {
  if (format() != EngineIdFormat::kText) return std::nullopt;
  const auto view = *payload();
  return std::string(view.begin(), view.end());
}

}  // namespace snmpv3fp::snmp

std::size_t std::hash<snmpv3fp::snmp::EngineId>::operator()(
    const snmpv3fp::snmp::EngineId& id) const noexcept {
  const auto& raw = id.raw();
  return snmpv3fp::util::fnv1a64(
      std::string_view(reinterpret_cast<const char*>(raw.data()), raw.size()));
}
