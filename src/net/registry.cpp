#include "net/registry.hpp"

#include <algorithm>

namespace snmpv3fp::net {

namespace {

// Representative OUI assignments. Values for the vendors that matter to the
// reproduction are real IEEE assignments where well known (e.g. 74:8e:f8 is
// the Brocade block shown in the paper's Figure 3); the remainder are
// representative blocks that are internally consistent with this registry.
struct OuiSeed {
  std::uint32_t oui;
  std::string_view vendor;
};

constexpr OuiSeed kOuiSeeds[] = {
    // Cisco Systems — multiple blocks, as in the real registry.
    {0x00000c, "Cisco"},   {0x001b0d, "Cisco"},   {0x58971e, "Cisco"},
    {0x0023ea, "Cisco"},   {0x7c95f3, "Cisco"},   {0xf8664d, "Cisco"},
    {0x501cbf, "Cisco"},   {0x88f031, "Cisco"},
    // Huawei Technologies.
    {0x00e0fc, "Huawei"},  {0x001882, "Huawei"},  {0x4846fb, "Huawei"},
    {0x286ed4, "Huawei"},  {0xf84abf, "Huawei"},  {0x781dba, "Huawei"},
    // Juniper Networks.
    {0x000585, "Juniper"}, {0x28c0da, "Juniper"}, {0x2c6bf5, "Juniper"},
    {0x80711f, "Juniper"}, {0xf01c2d, "Juniper"},
    // New H3C Technologies.
    {0x3ce5a6, "H3C"},     {0x70baef, "H3C"},     {0x586ab1, "H3C"},
    // Brocade Communications Systems (74:8e:f8 appears in paper Fig. 3).
    {0x748ef8, "Brocade"}, {0x00049f, "Brocade"}, {0x002438, "Brocade"},
    // Broadcom (reference designs inside CPE).
    {0x001018, "Broadcom"}, {0xd07ab5, "Broadcom"}, {0xbcf2af, "Broadcom"},
    // Thomson / Technicolor home gateways.
    {0x001f9f, "Thomson"}, {0x3c81d8, "Thomson"}, {0x88d274, "Thomson"},
    // Netgear.
    {0x00095b, "Netgear"}, {0x204e7f, "Netgear"}, {0xa040a0, "Netgear"},
    // Ambit Microsystems (cable modems).
    {0x00d059, "Ambit"},   {0x001d6b, "Ambit"},
    // Ruijie Networks.
    {0x00749c, "Ruijie"},  {0x58696c, "Ruijie"},
    // OneAccess Networks.
    {0x70fc8c, "OneAccess"}, {0x0030b8, "OneAccess"},
    // Adtran.
    {0x00a0c8, "Adtran"},  {0xe0f6b5, "Adtran"},
    // MikroTik.
    {0x4c5e0c, "MikroTik"}, {0xd4ca6d, "MikroTik"}, {0x6c3b6b, "MikroTik"},
    // ZTE.
    {0x0019c6, "ZTE"},     {0x98f537, "ZTE"},
    // Nokia / Alcatel-Lucent service routers.
    {0x00d0f6, "Nokia"},   {0xa47b2c, "Nokia"},
    // Ericsson.
    {0x0001ec, "Ericsson"}, {0x3c19a4, "Ericsson"},
    // Arista Networks.
    {0x001c73, "Arista"},  {0x28993a, "Arista"},
    // Fortinet.
    {0x00090f, "Fortinet"}, {0x085b0e, "Fortinet"},
    // Zyxel.
    {0x00a0c5, "Zyxel"},   {0x5cf4ab, "Zyxel"},
    // D-Link.
    {0x14d64d, "D-Link"},  {0x340804, "D-Link"},
    // TP-Link.
    {0xf4f26d, "TP-Link"}, {0x50c7bf, "TP-Link"},
    // Ubiquiti.
    {0x24a43c, "Ubiquiti"}, {0xdc9fdb, "Ubiquiti"},
    // Sagemcom (ISP-supplied CPE).
    {0x68a378, "Sagemcom"}, {0x7c03ab, "Sagemcom"},
    // AVM (Fritz!Box).
    {0x3ca62f, "AVM"},     {0xc80e14, "AVM"},
    // Calix access gear.
    {0x000631, "Calix"},   {0xd0768f, "Calix"},
    // Extreme Networks.
    {0x00e02b, "Extreme"}, {0xb85d0a, "Extreme"},
    // Hewlett Packard Enterprise.
    {0x001b78, "HPE"},     {0x9457a5, "HPE"},
    // Dell.
    {0x001422, "Dell"},    {0xf8bc12, "Dell"},
    // Intel NICs (servers running Net-SNMP usually expose an Intel MAC).
    {0x001b21, "Intel"},   {0xa0369f, "Intel"},   {0x3cfdfe, "Intel"},
    // Super Micro (servers).
    {0x002590, "Supermicro"}, {0xac1f6b, "Supermicro"},
    // 00:00:00 is registered (historically Xerox). The Cisco constant
    // engine-ID bug (paper §4.3) embeds a zero MAC, which therefore
    // *survives* the unregistered-OUI filter — as it did in the paper.
    {0x000000, "Xerox"},
};

struct PenSeed {
  std::uint32_t pen;
  std::string_view vendor;
};

// IANA Private Enterprise Numbers: major ones are the real assignments
// (9 = Cisco, 2011 = Huawei, 2636 = Juniper, 1991 = Foundry/Brocade,
// 8072 = Net-SNMP, 25506 = H3C, 14988 = MikroTik, 4526 = Netgear, ...).
constexpr PenSeed kPenSeeds[] = {
    {9, "Cisco"},        {2011, "Huawei"},    {2636, "Juniper"},
    {25506, "H3C"},      {1991, "Brocade"},   {4413, "Broadcom"},
    {2863, "Thomson"},   {4526, "Netgear"},   {6889, "Ambit"},
    {4881, "Ruijie"},    {13191, "OneAccess"},{664, "Adtran"},
    {14988, "MikroTik"}, {3902, "ZTE"},       {6527, "Nokia"},
    {193, "Ericsson"},   {30065, "Arista"},   {12356, "Fortinet"},
    {890, "Zyxel"},      {171, "D-Link"},     {11863, "TP-Link"},
    {41112, "Ubiquiti"}, {4329, "Sagemcom"},  {872, "AVM"},
    {6321, "Calix"},     {1916, "Extreme"},   {11, "HPE"},
    {674, "Dell"},       {343, "Intel"},      {10876, "Supermicro"},
    {8072, "Net-SNMP"},
};

}  // namespace

OuiRegistry::OuiRegistry(std::vector<Entry> entries) : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.oui < b.oui; });
  // The per-vendor index: a stable sort by name keeps each vendor's OUIs
  // in ascending order.
  std::vector<Entry> by_vendor = entries_;
  std::stable_sort(by_vendor.begin(), by_vendor.end(),
                   [](const Entry& a, const Entry& b) { return a.vendor < b.vendor; });
  ouis_by_vendor_.reserve(by_vendor.size());
  for (const Entry& e : by_vendor) {
    if (vendors_.empty() || vendors_.back().vendor != e.vendor)
      vendors_.push_back(
          {e.vendor, static_cast<std::uint32_t>(ouis_by_vendor_.size()), 0});
    ouis_by_vendor_.push_back(e.oui);
    ++vendors_.back().count;
  }
}

const OuiRegistry& OuiRegistry::embedded() {
  static const OuiRegistry registry = [] {
    std::vector<Entry> entries;
    entries.reserve(std::size(kOuiSeeds));
    for (const auto& seed : kOuiSeeds) entries.push_back({seed.oui, seed.vendor});
    return OuiRegistry(std::move(entries));
  }();
  return registry;
}

std::optional<std::string_view> OuiRegistry::vendor_of(std::uint32_t oui) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), oui,
      [](const Entry& e, std::uint32_t v) { return e.oui < v; });
  if (it == entries_.end() || it->oui != oui) return std::nullopt;
  return it->vendor;
}

std::span<const std::uint32_t> OuiRegistry::ouis_of(
    std::string_view vendor) const {
  const auto it = std::lower_bound(
      vendors_.begin(), vendors_.end(), vendor,
      [](const VendorBlock& b, std::string_view v) { return b.vendor < v; });
  if (it == vendors_.end() || it->vendor != vendor) return {};
  return std::span<const std::uint32_t>(ouis_by_vendor_).subspan(it->first,
                                                                it->count);
}

EnterpriseRegistry::EnterpriseRegistry(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.pen < b.pen; });
}

const EnterpriseRegistry& EnterpriseRegistry::embedded() {
  static const EnterpriseRegistry registry = [] {
    std::vector<Entry> entries;
    entries.reserve(std::size(kPenSeeds));
    for (const auto& seed : kPenSeeds) entries.push_back({seed.pen, seed.vendor});
    return EnterpriseRegistry(std::move(entries));
  }();
  return registry;
}

std::optional<std::string_view> EnterpriseRegistry::vendor_of(
    std::uint32_t pen) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), pen,
      [](const Entry& e, std::uint32_t v) { return e.pen < v; });
  if (it == entries_.end() || it->pen != pen) return std::nullopt;
  return it->vendor;
}

std::optional<std::uint32_t> EnterpriseRegistry::pen_of(
    std::string_view vendor) const {
  for (const auto& e : entries_)
    if (e.vendor == vendor) return e.pen;
  return std::nullopt;
}

}  // namespace snmpv3fp::net
