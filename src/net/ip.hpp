// IPv4/IPv6 address value types.
//
// Strongly-typed addresses (Core Guidelines I.4) instead of raw integers:
// the filtering pipeline needs routability classification (the paper's
// "Unroutable IPv4 engine IDs" filter) and the alias resolver uses
// addresses as ordered map keys across both families.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <variant>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace snmpv3fp::net {

using util::Bytes;
using util::ByteView;
using util::Result;

class Ipv4 {
 public:
  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t host_order) : value_(host_order) {}
  constexpr Ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | d) {}

  static Result<Ipv4> parse(std::string_view text);
  // From 4 raw big-endian bytes (e.g. an IPv4-format engine ID payload).
  static Result<Ipv4> from_bytes(ByteView bytes);

  std::uint32_t value() const { return value_; }
  std::string to_string() const;
  Bytes to_bytes() const;

  std::uint8_t octet(int i) const {
    return static_cast<std::uint8_t>(value_ >> (8 * (3 - i)));
  }

  // True for globally routable unicast space: excludes RFC 1918 private,
  // loopback, link-local, multicast, reserved (240/4), 0/8 and broadcast.
  bool is_routable() const;

  auto operator<=>(const Ipv4&) const = default;

 private:
  std::uint32_t value_ = 0;
};

class Ipv6 {
 public:
  constexpr Ipv6() = default;
  explicit Ipv6(const std::array<std::uint8_t, 16>& bytes) : bytes_(bytes) {}

  static Result<Ipv6> parse(std::string_view text);
  static Result<Ipv6> from_bytes(ByteView bytes);
  // Convenience builder from eight 16-bit groups.
  static Ipv6 from_groups(const std::array<std::uint16_t, 8>& groups);
  // From the two big-endian 64-bit halves that high64/low64 return.
  static Ipv6 from_halves(std::uint64_t high, std::uint64_t low) {
    Ipv6 out;
    for (int i = 0; i < 8; ++i) {
      out.bytes_[i] = static_cast<std::uint8_t>(high >> (56 - 8 * i));
      out.bytes_[8 + i] = static_cast<std::uint8_t>(low >> (56 - 8 * i));
    }
    return out;
  }

  const std::array<std::uint8_t, 16>& bytes() const { return bytes_; }
  // The address as two big-endian 64-bit halves (the /64 network part and
  // the interface identifier): fixed-width keys that order like bytes().
  std::uint64_t high64() const { return half64(0); }
  std::uint64_t low64() const { return half64(8); }
  std::uint16_t group(int i) const {
    return static_cast<std::uint16_t>((bytes_[2 * i] << 8) | bytes_[2 * i + 1]);
  }
  // RFC 5952 canonical text (lower-case, longest zero run compressed).
  std::string to_string() const;
  Bytes to_bytes() const;

  bool is_routable() const;  // excludes ::, ::1, fe80::/10, fc00::/7, ff00::/8

  auto operator<=>(const Ipv6&) const = default;

 private:
  std::uint64_t half64(int offset) const {
    std::uint64_t half = 0;
    for (int i = offset; i < offset + 8; ++i) half = (half << 8) | bytes_[i];
    return half;
  }

  std::array<std::uint8_t, 16> bytes_{};
};

enum class Family : std::uint8_t { kIpv4, kIpv6 };

// Either family; ordered with all IPv4 before all IPv6 so mixed containers
// iterate deterministically.
class IpAddress {
 public:
  IpAddress() : addr_(Ipv4{}) {}
  IpAddress(Ipv4 v4) : addr_(v4) {}  // NOLINT(google-explicit-constructor)
  IpAddress(Ipv6 v6) : addr_(v6) {}  // NOLINT(google-explicit-constructor)

  static Result<IpAddress> parse(std::string_view text);

  Family family() const {
    return std::holds_alternative<Ipv4>(addr_) ? Family::kIpv4 : Family::kIpv6;
  }
  bool is_v4() const { return family() == Family::kIpv4; }
  bool is_v6() const { return family() == Family::kIpv6; }
  const Ipv4& v4() const { return std::get<Ipv4>(addr_); }
  const Ipv6& v6() const { return std::get<Ipv6>(addr_); }

  std::string to_string() const;
  bool is_routable() const;

  auto operator<=>(const IpAddress&) const = default;

 private:
  std::variant<Ipv4, Ipv6> addr_;
};

// CIDR prefix over IPv4, used by the topology generator to carve AS space.
class Prefix4 {
 public:
  Prefix4(Ipv4 base, int length);
  static Result<Prefix4> parse(std::string_view text);  // "10.0.0.0/8"

  Ipv4 base() const { return base_; }
  int length() const { return length_; }
  std::uint64_t size() const { return 1ULL << (32 - length_); }
  bool contains(Ipv4 addr) const;
  Ipv4 at(std::uint64_t offset) const;  // offset-th address in the prefix
  std::string to_string() const;

 private:
  Ipv4 base_;
  int length_;
};

}  // namespace snmpv3fp::net

template <>
struct std::hash<snmpv3fp::net::IpAddress> {
  std::size_t operator()(const snmpv3fp::net::IpAddress& a) const noexcept;
};
