// Embedded IEEE OUI and IANA Private Enterprise Number registries.
//
// The paper maps MAC-based engine IDs to vendors via the IEEE OUI file and
// uses the engine ID's enterprise number (RFC 3411) as a fallback / cross
// check. The live registries are external data we cannot ship, so we embed
// a representative subset that covers every vendor in the simulated world
// plus deliberately *unregistered* space used to exercise the
// "Unregistered MAC engine IDs" filter. Lookup semantics match the real
// pipeline: unknown OUI -> no vendor.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/mac.hpp"

namespace snmpv3fp::net {

class OuiRegistry {
 public:
  // Singleton-style accessor for the embedded table (immutable after build).
  static const OuiRegistry& embedded();

  std::optional<std::string_view> vendor_of(std::uint32_t oui) const;
  std::optional<std::string_view> vendor_of(const MacAddress& mac) const {
    return vendor_of(mac.oui());
  }
  bool contains(std::uint32_t oui) const { return vendor_of(oui).has_value(); }

  // All OUIs registered to `vendor`, ascending (the generator assigns
  // device MACs from these blocks); empty for an unknown vendor. A view
  // into the per-vendor index built with the registry: no allocation.
  std::span<const std::uint32_t> ouis_of(std::string_view vendor) const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint32_t oui;
    std::string_view vendor;
  };
  // One vendor's OUIs: ouis_by_vendor_[first, first + count).
  struct VendorBlock {
    std::string_view vendor;
    std::uint32_t first;
    std::uint32_t count;
  };
  explicit OuiRegistry(std::vector<Entry> entries);
  std::vector<Entry> entries_;  // sorted by oui
  std::vector<std::uint32_t> ouis_by_vendor_;  // grouped by vendor, ascending
  std::vector<VendorBlock> vendors_;           // sorted by vendor name
};

class EnterpriseRegistry {
 public:
  static const EnterpriseRegistry& embedded();

  std::optional<std::string_view> vendor_of(std::uint32_t pen) const;
  // Enterprise number registered to `vendor`, if any.
  std::optional<std::uint32_t> pen_of(std::string_view vendor) const;
  bool contains(std::uint32_t pen) const { return vendor_of(pen).has_value(); }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint32_t pen;
    std::string_view vendor;
  };
  explicit EnterpriseRegistry(std::vector<Entry> entries);
  std::vector<Entry> entries_;  // sorted by pen
};

// Well-known enterprise numbers referenced directly by code/tests.
inline constexpr std::uint32_t kPenCisco = 9;
inline constexpr std::uint32_t kPenHuawei = 2011;
inline constexpr std::uint32_t kPenJuniper = 2636;
inline constexpr std::uint32_t kPenBrocade = 1991;  // Foundry/Brocade
inline constexpr std::uint32_t kPenNetSnmp = 8072;
inline constexpr std::uint32_t kPenH3c = 25506;

}  // namespace snmpv3fp::net
