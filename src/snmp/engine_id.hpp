// SNMP engine IDs (RFC 3411 §5, SnmpEngineID TEXTUAL-CONVENTION).
//
// The engine ID is the identifier this whole system is built on. An
// RFC 3411-conforming engine ID sets the top bit of the first byte; the
// first four bytes (top bit masked) carry the vendor's IANA enterprise
// number, byte 5 selects the format of the remainder:
//
//   1 = IPv4 address (4 bytes)      4 = administratively assigned text
//   2 = IPv6 address (16 bytes)     5 = administratively assigned octets
//   3 = MAC address (6 bytes)       >= 128 = enterprise-specific scheme
//
// Devices in the wild also emit *non-conforming* IDs (top bit clear, raw
// bytes — paper §4.2) and Net-SNMP's enterprise-specific scheme under
// PEN 8072. EngineId parses, classifies and builds all of these.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/ip.hpp"
#include "net/mac.hpp"
#include "util/bytes.hpp"

namespace snmpv3fp::snmp {

using util::Bytes;
using util::ByteView;

enum class EngineIdFormat : std::uint8_t {
  kEmpty,               // zero-length (discovery request, broken agents)
  kIpv4,                // RFC 3411 format 1
  kIpv6,                // RFC 3411 format 2
  kMac,                 // RFC 3411 format 3
  kText,                // RFC 3411 format 4
  kOctets,              // RFC 3411 format 5
  kNetSnmp,             // enterprise-specific scheme under PEN 8072
  kEnterpriseSpecific,  // other enterprise-specific schemes (format >= 128)
  kNonConforming,       // top bit clear: raw bytes, no format information
};

std::string_view to_string(EngineIdFormat format);

class EngineId {
 public:
  EngineId() = default;  // empty
  explicit EngineId(Bytes raw) : raw_(std::move(raw)) {}

  // ---- builders (all produce RFC 3411-conforming IDs unless noted) ----
  static EngineId make_mac(std::uint32_t enterprise, const net::MacAddress& mac);
  static EngineId make_ipv4(std::uint32_t enterprise, net::Ipv4 address);
  static EngineId make_ipv6(std::uint32_t enterprise, const net::Ipv6& address);
  static EngineId make_text(std::uint32_t enterprise, std::string_view text);
  static EngineId make_octets(std::uint32_t enterprise, ByteView octets);
  // Net-SNMP default scheme: PEN 8072, format 0x80, random 8-byte payload.
  static EngineId make_netsnmp(std::uint64_t random_payload);
  // Raw bytes with the conformance bit clear (vendor bug / legacy style).
  static EngineId make_nonconforming(ByteView raw);

  const Bytes& raw() const { return raw_; }
  bool empty() const { return raw_.empty(); }
  std::size_t size() const { return raw_.size(); }
  std::string to_hex() const { return util::to_hex(raw_); }

  bool is_conforming() const { return !raw_.empty() && (raw_[0] & 0x80) != 0; }

  EngineIdFormat format() const;

  // Enterprise number for conforming IDs.
  std::optional<std::uint32_t> enterprise() const;

  // Format-specific payload (bytes after the 5-byte RFC 3411 prefix);
  // nullopt for empty/non-conforming IDs.
  std::optional<ByteView> payload() const;

  // Typed payload accessors; nullopt when the format does not match.
  std::optional<net::MacAddress> mac() const;
  std::optional<net::Ipv4> ipv4() const;
  std::optional<net::Ipv6> ipv6() const;
  std::optional<std::string> text() const;

  auto operator<=>(const EngineId&) const = default;

 private:
  // The 5-byte RFC 3411 prefix in a buffer sized for the whole ID, so the
  // payload appends without reallocating.
  static Bytes prefix(std::uint32_t enterprise, std::uint8_t format_byte,
                      std::size_t payload_size);
  Bytes raw_;
};

}  // namespace snmpv3fp::snmp

template <>
struct std::hash<snmpv3fp::snmp::EngineId> {
  std::size_t operator()(const snmpv3fp::snmp::EngineId& id) const noexcept;
};
