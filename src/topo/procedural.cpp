#include "topo/procedural.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <list>
#include <stdexcept>
#include <unordered_map>

#include "net/registry.hpp"
#include "topo/datasets.hpp"
#include "topo/generator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace snmpv3fp::topo {

namespace {

using net::Ipv4;
using net::Ipv6;
using net::MacAddress;
using snmp::EngineId;
using util::hash_combine;
using util::Rng;
using util::VTime;

// Derivation-domain salts: every lazily derived quantity draws from its own
// Rng seeded by a hash chain (world seed, salt, region, ordinal), so the
// streams never collide and — crucially — never touch the fabric's RNG.
constexpr std::uint64_t kBlockSalt = 0xb10c0f5e75eed011ull;   // responder offsets
constexpr std::uint64_t kDeviceSalt = 0xdeb1ce5eed5a1701ull;  // device identity
constexpr std::uint64_t kSiteSalt = 0xa11cca575a170002ull;    // anycast sites
constexpr std::uint64_t kIidSalt = 0x11d5a170ddf00d03ull;     // aliased-/64 IIDs

constexpr VTime kHorizon = 30 * util::kDay;

// Engine-state synthesis below mirrors topo/generator.cpp's calibration
// (the rates and draw shapes that reproduce the paper's figures) but runs
// against an independent per-device seed; the two backends share numbers,
// not RNG streams.
constexpr double kPromiscuousRate = 0.004;
constexpr double kUnregisteredMacRate = 0.003;
constexpr double kShortNonconformingRate = 0.30;
constexpr double kPrivateIpv4EngineRate = 0.25;

void check(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(std::string("ProceduralWorld: ") + message);
}

bool is_sparse(ScenarioKind kind) {
  return kind == ScenarioKind::kPlain || kind == ScenarioKind::kLoadBalancer ||
         kind == ScenarioKind::kAnycast || kind == ScenarioKind::kMiddlebox;
}

bool is_v4_kind(ScenarioKind kind) {
  return kind != ScenarioKind::kAliasedPrefix;
}

DeviceKind device_kind_of(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kCgnatChurn:
      return DeviceKind::kCpe;
    case ScenarioKind::kLoadBalancer:
    case ScenarioKind::kAliasedPrefix:
      return DeviceKind::kServer;
    default:
      return DeviceKind::kRouter;
  }
}

MacAddress vendor_mac(Rng& rng, const VendorProfile& vendor, bool unregistered) {
  if (unregistered) {
    const std::uint32_t oui = 0x020000 | (rng.next() & 0x00ff00) | 0x42;
    return MacAddress::from_oui(
        oui, static_cast<std::uint32_t>(rng.next()) & 0xffffff);
  }
  const auto ouis = net::OuiRegistry::embedded().ouis_of(vendor.name);
  const std::uint32_t oui =
      ouis.empty() ? 0x001b21 : ouis[rng.next_below(ouis.size())];
  return MacAddress::from_oui(oui,
                              static_cast<std::uint32_t>(rng.next()) & 0xffffff);
}

// The paper's Cisco constant-engine-ID bug value (§4.3).
EngineId constant_bug_engine_id() {
  return EngineId(util::from_hex("800000090300000000000000").value());
}

util::Bytes promiscuous_payload(Rng& rng) {
  static const util::Bytes kTemplates[] = {
      {0x64, 0x65, 0x66, 0x61, 0x75, 0x6c, 0x74},  // "default"
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff},        // all-ones MAC
      {0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc},        // doc example
  };
  return kTemplates[rng.next_below(std::size(kTemplates))];
}

// Raw skewed-Hamming-weight bytes for non-conforming IDs (Figure 6 tail).
util::Bytes skewed_bytes(Rng& rng, std::size_t len) {
  util::Bytes raw;
  for (std::size_t i = 0; i < len; ++i) {
    std::uint8_t b = 0;
    for (int bit = 0; bit < 8; ++bit)
      b = static_cast<std::uint8_t>((b << 1) | (rng.chance(0.35) ? 1 : 0));
    raw.push_back(b);
  }
  return raw;
}

EngineId synthesize_engine_id(Rng& rng, const Device& device,
                              const VendorProfile& vendor,
                              const std::string& router_name) {
  const auto& p = vendor.engine_id_policy;
  if (rng.chance(kPromiscuousRate))
    return EngineId::make_octets(vendor.enterprise_pen,
                                 promiscuous_payload(rng));
  const std::vector<double> weights = {p.mac,    p.ipv4,       p.text,
                                       p.octets, p.enterprise, p.net_snmp,
                                       p.non_conforming};
  switch (rng.weighted_index(weights)) {
    case 0: {  // MAC: the first interface's, per the lab finding (§6.2.1)
      MacAddress mac = device.interfaces.front().mac;
      if (rng.chance(kUnregisteredMacRate))
        mac = vendor_mac(rng, vendor, /*unregistered=*/true);
      return EngineId::make_mac(vendor.enterprise_pen, mac);
    }
    case 1: {  // IPv4
      if (rng.chance(kPrivateIpv4EngineRate)) {
        return EngineId::make_ipv4(
            vendor.enterprise_pen,
            Ipv4(10, static_cast<std::uint8_t>(rng.next()),
                 static_cast<std::uint8_t>(rng.next()),
                 static_cast<std::uint8_t>(rng.next())));
      }
      for (const auto& itf : device.interfaces)
        if (itf.v4) return EngineId::make_ipv4(vendor.enterprise_pen, *itf.v4);
      return EngineId::make_ipv4(vendor.enterprise_pen, Ipv4(10, 0, 0, 1));
    }
    case 2:
      return EngineId::make_text(
          vendor.enterprise_pen,
          router_name.empty() ? "snmp-agent" : router_name);
    case 3: {  // Octets: random bytes, Hamming weight ~0.5
      util::Bytes payload;
      const std::size_t len = 6 + rng.next_below(7);
      for (std::size_t i = 0; i < len; ++i)
        payload.push_back(static_cast<std::uint8_t>(rng.next()));
      return EngineId::make_octets(vendor.enterprise_pen, payload);
    }
    case 4: {  // enterprise-specific format
      util::Bytes raw;
      util::append_be(raw, (vendor.enterprise_pen & 0x7fffffffu) | 0x80000000u,
                      4);
      raw.push_back(static_cast<std::uint8_t>(128 + rng.next_below(4)));
      const std::size_t len = 4 + rng.next_below(8);
      for (std::size_t i = 0; i < len; ++i)
        raw.push_back(static_cast<std::uint8_t>(rng.next()));
      return EngineId(std::move(raw));
    }
    case 5:
      return EngineId::make_netsnmp(rng.next());
    default: {  // non-conforming
      std::size_t len = 8 + rng.next_below(5);
      if (rng.chance(kShortNonconformingRate)) len = 1 + rng.next_below(3);
      return EngineId::make_nonconforming(skewed_bytes(rng, len));
    }
  }
}

double draw_uptime_days(Rng& rng, double mtbr_days) {
  const double scale = mtbr_days / 300.0;
  if (rng.chance(0.72)) return rng.exponential(100.0 * scale);
  return rng.uniform(0.0, 2500.0 * scale);
}

void synthesize_reboot_history(Rng& rng, Device& device, double mtbr_days) {
  const double age_days = rng.uniform(360.0, 3600.0);
  const double uptime_days =
      std::min(draw_uptime_days(rng, mtbr_days), age_days);
  device.reboots.push_back(-util::from_seconds(uptime_days * 86400.0));
  VTime t = 0;
  while (true) {
    t += util::from_seconds(rng.exponential(mtbr_days * 86400.0));
    if (t >= kHorizon) break;
    device.reboots.push_back(t);
  }
  const double prior = age_days / std::max(mtbr_days, 1.0);
  device.boots_before_history =
      1 + static_cast<std::uint32_t>(
              std::max(0.0, rng.normal(prior, prior * 0.2)));
}

Ipv6 v6_from_parts(std::uint64_t net64, std::uint64_t iid) {
  std::array<std::uint8_t, 16> bytes{};
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<std::uint8_t>(net64 >> (8 * (7 - i)));
  for (int i = 0; i < 8; ++i)
    bytes[8 + i] = static_cast<std::uint8_t>(iid >> (8 * (7 - i)));
  return Ipv6(bytes);
}

}  // namespace

std::string_view to_string(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kPlain:
      return "plain";
    case ScenarioKind::kNatPool:
      return "nat_pool";
    case ScenarioKind::kLoadBalancer:
      return "load_balancer";
    case ScenarioKind::kAnycast:
      return "anycast";
    case ScenarioKind::kCgnatChurn:
      return "cgnat_churn";
    case ScenarioKind::kAliasedPrefix:
      return "aliased_prefix";
    case ScenarioKind::kMiddlebox:
      return "middlebox";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Construction and validation
// ---------------------------------------------------------------------------

ProceduralWorld::ProceduralWorld(ProceduralConfig config)
    : config_(std::move(config)) {
  check(!config_.regions.empty(), "config has no scenario regions");
  check(config_.cache_capacity > 0, "cache_capacity must be positive");

  std::uint64_t device_base = 0;
  for (std::size_t i = 0; i < config_.regions.size(); ++i) {
    const ScenarioRegion& spec = config_.regions[i];
    RegionInfo info;
    info.spec = spec;
    info.device_base = device_base;

    if (is_v4_kind(spec.kind)) {
      info.v4_base = spec.v4.base().value();
      info.v4_size = spec.v4.size();
      const std::uint32_t host_bits =
          static_cast<std::uint32_t>(32 - spec.v4.length());
      if (is_sparse(spec.kind)) {
        check(spec.block_bits >= 1 && spec.block_bits <= host_bits,
              "block_bits must be in [1, prefix host bits]");
        const std::uint64_t block_size = std::uint64_t{1} << spec.block_bits;
        check(spec.responders_per_block >= 1 &&
                  spec.responders_per_block <= kMaxRespondersPerBlock &&
                  std::uint64_t{spec.responders_per_block} * 2 <= block_size,
              "responders_per_block must be in [1, min(64, block size / 2)]");
        info.block_seed =
            hash_combine(hash_combine(config_.seed, kBlockSalt), i);
        info.device_count =
            (info.v4_size >> spec.block_bits) * spec.responders_per_block;
      } else if (spec.kind == ScenarioKind::kNatPool) {
        check(spec.pool_bits >= 1 && spec.pool_bits <= 8 &&
                  spec.pool_bits <= host_bits,
              "pool_bits must be in [1, min(8, prefix host bits)]");
        info.device_count = info.v4_size >> spec.pool_bits;
      } else {  // kCgnatChurn
        info.device_count = info.v4_size;
      }
      if (spec.kind == ScenarioKind::kLoadBalancer)
        check(spec.backends >= 1 && spec.backends <= 16,
              "backends must be in [1, 16]");
      if (spec.kind == ScenarioKind::kAnycast)
        check(spec.sites >= 1 && spec.sites <= 256,
              "sites must be in [1, 256]");
    } else {  // kAliasedPrefix
      check(spec.v6_prefix_len >= 44 && spec.v6_prefix_len <= 63,
            "v6_prefix_len must be in [44, 63]");
      check(spec.v6_iids_per_pool >= 1 && spec.v6_iids_per_pool <= 64,
            "v6_iids_per_pool must be in [1, 64]");
      info.v6_base64 = World::v6_prefix64(spec.v6_base);
      info.pool_count = std::uint64_t{1} << (64 - spec.v6_prefix_len);
      info.device_count = info.pool_count;
    }
    check(info.device_count > 0, "region derives no devices");
    check(info.device_count < (std::uint64_t{1} << 48),
          "region derives too many devices");

    // Resolve the vendor market once; weights follow the generator's
    // regional share table (responders only, so raw shares suffice).
    for (const auto& [name, share] : router_vendor_weights(spec.market_region)) {
      info.vendor_weights.push_back(share);
      info.vendor_profiles.push_back(&vendor_profile(name));
    }

    device_base += info.device_count;
    regions_.push_back(std::move(info));
  }
  total_devices_ = device_base;
  check(total_devices_ < kNoDevice, "world exceeds the device index space");

  for (std::uint32_t i = 0; i < regions_.size(); ++i) {
    if (is_v4_kind(regions_[i].spec.kind))
      v4_order_.push_back(i);
    else
      v6_order_.push_back(i);
  }
  std::sort(v4_order_.begin(), v4_order_.end(), [&](auto a, auto b) {
    return regions_[a].v4_base < regions_[b].v4_base;
  });
  std::sort(v6_order_.begin(), v6_order_.end(), [&](auto a, auto b) {
    return regions_[a].v6_base64 < regions_[b].v6_base64;
  });
  for (std::size_t i = 1; i < v4_order_.size(); ++i) {
    const auto& prev = regions_[v4_order_[i - 1]];
    check(prev.v4_base + prev.v4_size <= regions_[v4_order_[i]].v4_base,
          "v4 scenario regions overlap");
  }
  for (std::size_t i = 1; i < v6_order_.size(); ++i) {
    const auto& prev = regions_[v6_order_[i - 1]];
    check(prev.v6_base64 + prev.pool_count <= regions_[v6_order_[i]].v6_base64,
          "v6 scenario regions overlap");
  }
}

// ---------------------------------------------------------------------------
// Address resolution (rank computation)
// ---------------------------------------------------------------------------

ProceduralWorld::BlockOffsets ProceduralWorld::block_offsets(
    std::uint32_t region, std::uint64_t block) const {
  const RegionInfo& info = regions_[region];
  const std::uint64_t block_size = std::uint64_t{1} << info.spec.block_bits;
  Rng rng(hash_combine(info.block_seed, block));
  BlockOffsets offsets;
  while (offsets.count < info.spec.responders_per_block) {
    const auto candidate = static_cast<std::uint32_t>(rng.next_below(block_size));
    if (std::find(offsets.begin(), offsets.end(), candidate) == offsets.end())
      offsets.value[offsets.count++] = candidate;
  }
  return offsets;
}

std::vector<net::Ipv6> ProceduralWorld::pool_iids(std::uint32_t region,
                                                  std::uint64_t member) const {
  const RegionInfo& info = regions_[region];
  Rng rng(hash_combine(hash_combine(hash_combine(config_.seed, kIidSalt),
                                    region),
                       member));
  const std::uint64_t net64 = info.v6_base64 + member;
  std::vector<net::Ipv6> iids;
  iids.reserve(info.spec.v6_iids_per_pool);
  while (iids.size() < info.spec.v6_iids_per_pool) {
    const std::uint64_t iid = rng.next();
    if (iid == 0) continue;  // reserve the anycast-zero IID
    const Ipv6 address = v6_from_parts(net64, iid);
    if (std::find(iids.begin(), iids.end(), address) == iids.end())
      iids.push_back(address);
  }
  return iids;
}

std::optional<ProceduralWorld::Resolved> ProceduralWorld::resolve(
    const net::IpAddress& address) const {
  if (address.is_v4()) {
    const std::uint64_t value = address.v4().value();
    // Last region whose base <= value.
    auto it = std::upper_bound(
        v4_order_.begin(), v4_order_.end(), value,
        [&](std::uint64_t v, std::uint32_t r) { return v < regions_[r].v4_base; });
    if (it == v4_order_.begin()) return std::nullopt;
    const std::uint32_t region = *(it - 1);
    const RegionInfo& info = regions_[region];
    if (value >= info.v4_base + info.v4_size) return std::nullopt;
    const std::uint64_t offset = value - info.v4_base;
    const ScenarioRegion& spec = info.spec;
    switch (spec.kind) {
      case ScenarioKind::kNatPool:
        return Resolved{region, offset >> spec.pool_bits};
      case ScenarioKind::kCgnatChurn:
        return Resolved{region, offset};
      default: {  // sparse kinds
        const std::uint64_t block = offset >> spec.block_bits;
        const auto within = static_cast<std::uint32_t>(
            offset & ((std::uint64_t{1} << spec.block_bits) - 1));
        // The offsets are distinct, so the number below `within` is its
        // rank in sorted order.
        std::uint64_t rank = 0;
        bool hit = false;
        for (const std::uint32_t responder : block_offsets(region, block)) {
          rank += responder < within;
          hit |= responder == within;
        }
        if (!hit) return std::nullopt;
        return Resolved{region, block * spec.responders_per_block + rank};
      }
    }
  }
  const std::uint64_t p64 = World::v6_prefix64(address.v6());
  auto it = std::upper_bound(
      v6_order_.begin(), v6_order_.end(), p64,
      [&](std::uint64_t v, std::uint32_t r) { return v < regions_[r].v6_base64; });
  if (it == v6_order_.begin()) return std::nullopt;
  const std::uint32_t region = *(it - 1);
  const RegionInfo& info = regions_[region];
  if (p64 >= info.v6_base64 + info.pool_count) return std::nullopt;
  // The whole /64 answers: any IID resolves to the pool device.
  return Resolved{region, p64 - info.v6_base64};
}

net::IpAddress ProceduralWorld::primary_address(std::uint32_t region,
                                                std::uint64_t member) const {
  const RegionInfo& info = regions_[region];
  const ScenarioRegion& spec = info.spec;
  switch (spec.kind) {
    case ScenarioKind::kAliasedPrefix:
      return pool_iids(region, member).front();
    case ScenarioKind::kNatPool:
      return spec.v4.at(member << spec.pool_bits);
    case ScenarioKind::kCgnatChurn:
      return spec.v4.at(member);
    default: {
      const std::uint64_t block = member / spec.responders_per_block;
      const std::uint64_t rank = member % spec.responders_per_block;
      auto offsets = block_offsets(region, block);
      std::sort(offsets.begin(), offsets.end());
      return spec.v4.at((block << spec.block_bits) + offsets.value[rank]);
    }
  }
}

// ---------------------------------------------------------------------------
// Device derivation
// ---------------------------------------------------------------------------

Device ProceduralWorld::derive_device(std::uint32_t region,
                                      std::uint64_t member) const {
  const RegionInfo& info = regions_[region];
  const ScenarioRegion& spec = info.spec;

  std::uint64_t identity = hash_combine(
      hash_combine(hash_combine(config_.seed, kDeviceSalt), region), member);
  // CGNAT: the subscriber behind the address re-randomizes every churn
  // epoch. The address set itself never moves (resolve/enumeration ignore
  // the epoch), only who answers there.
  if (spec.kind == ScenarioKind::kCgnatChurn)
    identity = hash_combine(identity, epoch_seed_);
  Rng rng(identity);

  Device device;
  device.index = static_cast<DeviceIndex>(info.device_base + member);
  device.as_index = region;
  device.kind = device_kind_of(spec.kind);

  // Anycast: the serving site is re-resolved each epoch, and the engine
  // identity (vendor, clocks, reboots, engine ID) belongs to the *site* —
  // every VIP the site serves presents the same engine.
  std::optional<Rng> site_rng;
  if (spec.kind == ScenarioKind::kAnycast) {
    const std::uint64_t site = hash_combine(identity, epoch_seed_) % spec.sites;
    site_rng.emplace(hash_combine(
        hash_combine(hash_combine(config_.seed, kSiteSalt), region), site));
  }
  Rng& id_rng = site_rng ? *site_rng : rng;

  const VendorProfile* vendor = nullptr;
  if (spec.kind == ScenarioKind::kLoadBalancer ||
      spec.kind == ScenarioKind::kAliasedPrefix)
    vendor = &vendor_profile("Net-SNMP");
  else
    vendor = info.vendor_profiles[id_rng.weighted_index(info.vendor_weights)];
  device.vendor = vendor;

  // ---- interfaces ----
  switch (spec.kind) {
    case ScenarioKind::kAliasedPrefix: {
      for (const auto& iid : pool_iids(region, member)) {
        Interface itf;
        itf.mac = vendor_mac(rng, *vendor, /*unregistered=*/false);
        itf.v6 = iid;
        device.interfaces.push_back(std::move(itf));
      }
      device.answers_whole_v6_prefix = true;
      break;
    }
    case ScenarioKind::kNatPool: {
      // The frontend owns every address of its pool; one engine, many IPs.
      const std::uint64_t pool_size = std::uint64_t{1} << spec.pool_bits;
      const std::uint64_t base_offset = member << spec.pool_bits;
      for (std::uint64_t j = 0; j < pool_size; ++j) {
        Interface itf;
        itf.mac = vendor_mac(rng, *vendor, /*unregistered=*/false);
        itf.v4 = spec.v4.at(base_offset + j);
        device.interfaces.push_back(std::move(itf));
      }
      break;
    }
    default: {
      Interface itf;
      itf.mac = vendor_mac(rng, *vendor, /*unregistered=*/false);
      itf.v4 = primary_address(region, member).v4();
      device.interfaces.push_back(std::move(itf));
      break;
    }
  }

  // ---- engine clocks ----
  device.snmpv3_enabled = true;  // procedural devices exist iff they answer
  device.snmpv2_enabled = false;
  device.clock_skew_ppm = id_rng.normal(0.0, vendor->clock_skew_ppm_sigma);
  if (id_rng.chance(0.22)) device.clock_skew_ppm *= 30.0;
  if (id_rng.chance(config_.time_jitter_rate))
    device.time_jitter_s = id_rng.uniform(-30.0, 30.0);
  const double mtbr =
      vendor->mean_days_between_reboots * std::exp(id_rng.normal(0.0, 0.4));
  synthesize_reboot_history(id_rng, device, mtbr);

  // ---- engine identity ----
  const std::string name = "dev" + std::to_string(device.index) + ".proc" +
                           std::to_string(region) + ".example.net";
  switch (spec.kind) {
    case ScenarioKind::kLoadBalancer: {
      device.engine_id = EngineId::make_netsnmp(rng.next());
      for (std::uint32_t b = 0; b < spec.backends; ++b)
        device.backend_engines.push_back(EngineId::make_netsnmp(rng.next()));
      break;
    }
    case ScenarioKind::kAnycast:
      device.engine_id = EngineId::make_netsnmp(id_rng.next());
      break;
    case ScenarioKind::kMiddlebox:
      // Mangled: short non-conforming ID and zeroed engine timers.
      device.engine_id =
          EngineId::make_nonconforming(skewed_bytes(rng, 1 + rng.next_below(3)));
      device.zero_time_bug = true;
      break;
    default: {  // kPlain, kNatPool, kCgnatChurn, kAliasedPrefix
      if (rng.chance(vendor->constant_engine_id_bug))
        device.engine_id = constant_bug_engine_id();
      else
        device.engine_id = synthesize_engine_id(rng, device, *vendor, name);
      device.empty_engine_id_bug = rng.chance(config_.empty_engine_id_rate);
      device.zero_time_bug = rng.chance(config_.zero_time_rate);
      device.future_time_bug = rng.chance(config_.future_time_rate);
      break;
    }
  }

  // ---- stack personality ----
  device.amplification = 1;
  device.churns = false;  // CGNAT churn is modeled as identity churn above
  device.itdk_eligible = false;
  device.ipid_policy = vendor->ipid_policy;
  device.initial_ttl = vendor->initial_ttl;
  device.tcp_open = false;
  return device;
}

std::optional<Device> ProceduralWorld::derive(
    const net::IpAddress& address) const {
  const auto resolved = resolve(address);
  if (!resolved) return std::nullopt;
  return derive_device(resolved->region, resolved->member);
}

// ---------------------------------------------------------------------------
// Bulk queries
// ---------------------------------------------------------------------------

void ProceduralWorld::apply_churn(std::uint64_t epoch_seed) {
  epoch_seed_ = epoch_seed;
  ++epoch_stamp_;
}

std::uint64_t ProceduralWorld::address_count(net::Family family) const {
  std::uint64_t total = 0;
  for (const auto& info : regions_) {
    if (family == net::Family::kIpv4 && is_v4_kind(info.spec.kind)) {
      // Sparse kinds assign one address per device; pools/CGNAT assign the
      // whole prefix.
      total += is_sparse(info.spec.kind) ? info.device_count : info.v4_size;
    } else if (family == net::Family::kIpv6 && !is_v4_kind(info.spec.kind)) {
      total += info.device_count * info.spec.v6_iids_per_pool;
    }
  }
  return total;
}

std::vector<net::IpAddress> ProceduralWorld::campaign_targets(
    net::Family family, std::uint64_t /*churn_seed*/) const {
  // The assigned-address set is epoch-independent by construction (identity
  // churns, addresses don't), so the cross-epoch union is just the set.
  std::vector<net::IpAddress> out;
  for (std::uint32_t region = 0; region < regions_.size(); ++region) {
    const RegionInfo& info = regions_[region];
    const ScenarioRegion& spec = info.spec;
    if (family == net::Family::kIpv4 && is_v4_kind(spec.kind)) {
      if (is_sparse(spec.kind)) {
        const std::uint64_t blocks = info.v4_size >> spec.block_bits;
        for (std::uint64_t block = 0; block < blocks; ++block) {
          auto offsets = block_offsets(region, block);
          std::sort(offsets.begin(), offsets.end());
          for (const auto offset : offsets)
            out.emplace_back(spec.v4.at((block << spec.block_bits) + offset));
        }
      } else {  // NAT pools and CGNAT assign the whole prefix
        for (std::uint64_t offset = 0; offset < info.v4_size; ++offset)
          out.emplace_back(spec.v4.at(offset));
      }
    } else if (family == net::Family::kIpv6 && !is_v4_kind(spec.kind)) {
      for (std::uint64_t member = 0; member < info.device_count; ++member)
        for (const auto& iid : pool_iids(region, member)) out.emplace_back(iid);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<net::IpAddress> ProceduralWorld::hitlist_v6(
    std::uint64_t seed) const {
  return export_hitlist_v6(materialize(), seed);
}

World ProceduralWorld::materialize() const {
  World world;
  for (std::uint32_t region = 0; region < regions_.size(); ++region) {
    const ScenarioRegion& spec = regions_[region].spec;
    AutonomousSystem as;
    as.asn = 64512 + region;  // private-use ASNs, one per scenario region
    as.region = spec.market_region;
    if (is_v4_kind(spec.kind)) as.v4_prefix = spec.v4;
    as.v6_prefix = {0x2001, static_cast<std::uint16_t>(as.asn & 0xffff)};
    as.domain = "proc" + std::to_string(region) + ".example.net";
    as.naming_scheme = -1;
    world.ases.push_back(std::move(as));
  }
  world.devices.reserve(total_devices_);
  for (std::uint32_t region = 0; region < regions_.size(); ++region) {
    for (std::uint64_t member = 0; member < regions_[region].device_count;
         ++member) {
      Device device = derive_device(region, member);
      world.ases[region].devices.push_back(device.index);
      assert(device.index == world.devices.size());
      world.devices.push_back(std::move(device));
    }
  }
  world.v4_cursor.assign(world.ases.size(), 0);
  world.reindex();
  return world;
}

// ---------------------------------------------------------------------------
// Lazy view
// ---------------------------------------------------------------------------

// LRU of derived devices, keyed by (region, member). Eviction only costs
// re-derivation: the cache can never change an output bit, so its capacity
// and hit pattern are pure execution details (like thread count).
class ProceduralView final : public DeviceView {
 public:
  explicit ProceduralView(const ProceduralWorld& world)
      : world_(world), epoch_stamp_(world.epoch_stamp()) {}

  const Device* device_at(const net::IpAddress& address) override {
    sync_epoch();
    const auto resolved = world_.resolve(address);
    if (!resolved) return nullptr;
    const std::uint64_t key =
        (std::uint64_t{resolved->region} << 48) | resolved->member;
    if (const auto it = index_.find(key); it != index_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return &it->second->device;
    }
    ++stats_.misses;
    if (lru_.size() >= world_.config().cache_capacity) {
      index_.erase(lru_.back().key);
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(Entry{
        key,
        world_.primary_address(resolved->region, resolved->member),
        world_.derive_device(resolved->region, resolved->member),
    });
    index_[key] = lru_.begin();
    return &lru_.front().device;
  }

  WorldCacheStats cache_stats() const override {
    WorldCacheStats stats = stats_;
    stats.resident = lru_.size();
    return stats;
  }

  std::vector<net::IpAddress> cached_addresses() const override {
    std::vector<net::IpAddress> out;
    out.reserve(lru_.size());
    for (const auto& entry : lru_) out.push_back(entry.primary);  // MRU first
    return out;
  }

  void warm(const std::vector<net::IpAddress>& addresses) override {
    // Snapshots are MRU-first; touching in reverse rebuilds the same order.
    for (auto it = addresses.rbegin(); it != addresses.rend(); ++it)
      device_at(*it);
  }

 private:
  struct Entry {
    std::uint64_t key;
    net::IpAddress primary;
    Device device;
  };

  void sync_epoch() {
    if (epoch_stamp_ == world_.epoch_stamp()) return;
    // Identities may have churned; drop everything and re-derive on demand.
    lru_.clear();
    index_.clear();
    epoch_stamp_ = world_.epoch_stamp();
  }

  const ProceduralWorld& world_;
  std::uint64_t epoch_stamp_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  WorldCacheStats stats_;
};

std::unique_ptr<DeviceView> ProceduralWorld::open_view() const {
  return std::make_unique<ProceduralView>(*this);
}

// ---------------------------------------------------------------------------
// Canned configurations
// ---------------------------------------------------------------------------

ProceduralConfig ProceduralConfig::tiny() {
  ProceduralConfig config;
  config.seed = 0x7117;
  config.regions = {
      {.kind = ScenarioKind::kPlain,
       .v4 = net::Prefix4(net::Ipv4(10, 10, 0, 0), 20),
       .block_bits = 6,
       .responders_per_block = 3,
       .market_region = "EU"},
      {.kind = ScenarioKind::kNatPool,
       .v4 = net::Prefix4(net::Ipv4(10, 20, 0, 0), 24),
       .pool_bits = 4,
       .market_region = "NA"},
      {.kind = ScenarioKind::kLoadBalancer,
       .v4 = net::Prefix4(net::Ipv4(10, 30, 0, 0), 22),
       .block_bits = 7,
       .responders_per_block = 2,
       .backends = 3,
       .market_region = "EU"},
      {.kind = ScenarioKind::kAnycast,
       .v4 = net::Prefix4(net::Ipv4(10, 40, 0, 0), 22),
       .block_bits = 7,
       .responders_per_block = 2,
       .sites = 3,
       .market_region = "AS"},
      {.kind = ScenarioKind::kCgnatChurn,
       .v4 = net::Prefix4(net::Ipv4(10, 50, 0, 0), 26),
       .market_region = "NA"},
      {.kind = ScenarioKind::kMiddlebox,
       .v4 = net::Prefix4(net::Ipv4(10, 60, 0, 0), 22),
       .block_bits = 8,
       .responders_per_block = 1,
       .market_region = "EU"},
      {.kind = ScenarioKind::kAliasedPrefix,
       .v6_base = net::Ipv6::from_groups(
           {0x2001, 0x0db8, 0x00aa, 0, 0, 0, 0, 0}),
       .v6_prefix_len = 62,
       .v6_iids_per_pool = 3,
       .market_region = "EU"},
  };
  return config;
}

ProceduralConfig ProceduralConfig::census(std::uint64_t addresses) {
  ProceduralConfig config;
  config.seed = 20210416;
  // Smallest power-of-two prefix covering the request, census responder
  // density (~1/16k — the order of the paper's v3-responsive rate).
  std::uint32_t host_bits = 20;
  while (host_bits < 30 && (std::uint64_t{1} << host_bits) < addresses)
    ++host_bits;
  config.regions = {
      {.kind = ScenarioKind::kPlain,
       .v4 = net::Prefix4(net::Ipv4(0x40000000u),
                          static_cast<int>(32 - host_bits)),
       .block_bits = 14,
       .responders_per_block = 1,
       .market_region = "EU"},
  };
  return config;
}

}  // namespace snmpv3fp::topo
