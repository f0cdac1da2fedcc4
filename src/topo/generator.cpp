#include "topo/generator.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <charconv>
#include <cmath>
#include <map>
#include <optional>

#include "net/registry.hpp"
#include "topo/engine_state.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace snmpv3fp::topo {

namespace {

using net::Ipv4;
using net::Ipv6;
using snmp::EngineId;
using util::Rng;
using util::VTime;

// ---------------------------------------------------------------------------
// Regional structure
// ---------------------------------------------------------------------------

struct RegionSpec {
  std::string_view name;
  double as_weight;        // share of tail ASes
  double size_multiplier;  // scales per-AS router counts
  std::uint8_t v4_octet_base;  // /16 blocks carved from base..base+span-1 /8s
  std::uint8_t v4_octet_span;
};

// AS-count weights chosen so region router totals land near Figure 15's
// (EU 134k, NA 97k, AS 81k, SA 22k, AF 5k, OC 5k) once size multipliers
// are applied. The /8 pools are disjoint, globally routable ranges.
constexpr RegionSpec kRegions[] = {
    {"EU", 0.37, 1.15, 128, 24},  // 128.0.0.0 .. 151.255.255.255
    {"NA", 0.25, 1.05, 64, 36},   // 64/8 .. 99/8
    {"AS", 0.23, 1.00, 200, 24},  // 200/8 .. 223/8
    {"SA", 0.08, 0.80, 32, 28},   // 32/8 .. 59/8
    {"AF", 0.04, 0.35, 102, 8},   // 102/8 .. 109/8
    {"OC", 0.04, 0.35, 110, 8},   // 110/8 .. 117/8
};

const RegionSpec& region_spec(std::string_view name) {
  for (const auto& r : kRegions)
    if (r.name == name) return r;
  std::abort();
}

std::size_t region_index(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kRegions); ++i)
    if (kRegions[i].name == name) return i;
  std::abort();
}

// Observed router-vendor market share per region, per Figure 15 (heatmap)
// calibrated so global totals approximate Figure 12 (Cisco ~240k,
// Huawei ~52k of ~347k routers).
struct RegionalShare {
  std::string_view vendor;
  double share[6];  // EU, NA, AS, SA, AF, OC
};

constexpr RegionalShare kRouterShares[] = {
    {"Cisco",     {0.62, 0.75, 0.55, 0.60, 0.60, 0.70}},
    {"Huawei",    {0.09, 0.00, 0.14, 0.10, 0.12, 0.005}},
    {"Net-SNMP",  {0.05, 0.08, 0.04, 0.08, 0.07, 0.10}},
    {"Juniper",   {0.045, 0.085, 0.030, 0.050, 0.050, 0.090}},
    {"H3C",       {0.005, 0.001, 0.050, 0.010, 0.010, 0.001}},
    {"OneAccess", {0.015, 0.002, 0.002, 0.010, 0.020, 0.005}},
    {"Ruijie",    {0.002, 0.001, 0.030, 0.005, 0.010, 0.001}},
    {"Brocade",   {0.008, 0.020, 0.004, 0.010, 0.010, 0.020}},
    {"Adtran",    {0.003, 0.025, 0.001, 0.005, 0.005, 0.010}},
    {"Ambit",     {0.004, 0.008, 0.004, 0.010, 0.010, 0.005}},
    {"Nokia",     {0.005, 0.005, 0.003, 0.005, 0.005, 0.005}},
    {"MikroTik",  {0.005, 0.003, 0.002, 0.015, 0.015, 0.005}},
    {"ZTE",       {0.001, 0.000, 0.008, 0.005, 0.010, 0.001}},
    {"Arista",    {0.004, 0.008, 0.001, 0.002, 0.001, 0.008}},
    {"Extreme",   {0.003, 0.005, 0.001, 0.002, 0.002, 0.005}},
};

// ---------------------------------------------------------------------------
// PTR naming
// ---------------------------------------------------------------------------

constexpr std::string_view kCities[] = {
    "fra", "ams", "lon", "par", "mad", "waw", "nyc", "chi", "dal",
    "sea", "lax", "mia", "sin", "hkg", "tok", "bom", "syd", "akl",
    "gru", "bog", "scl", "jnb", "cai", "lag"};

constexpr std::string_view kIfPrefixes[] = {"xe-0-0-", "ge-0-1-", "eth",
                                            "te1-", "hu0-0-0-"};

void append_number(std::string& out, std::uint64_t value) {
  char digits[20];
  const auto end = std::to_chars(std::begin(digits), std::end(digits), value).ptr;
  out.append(digits, end);
}

// Writes an interface's PTR name into `out`. Naming schemes (paper §5.2 /
// Luckie et al.): 0 and 1 embed a stable router name; 2 embeds only the IP
// (no alias information).
void compose_ptr_name(std::string& out, int scheme, std::string_view router_name,
                      std::string_view if_prefix, std::size_t if_number,
                      const Ipv4& v4, std::string_view domain) {
  out.clear();
  switch (scheme) {
    case 0:
      out.append(if_prefix);
      append_number(out, if_number);
      out.append(".").append(router_name);
      break;
    case 1:
      out.append(router_name).append("-").append(if_prefix);
      append_number(out, if_number);
      break;
    default:
      out.append("ip");
      for (int i = 0; i < 4; ++i) {
        out.append("-");
        append_number(out, v4.octet(i));
      }
      break;
  }
  out.append(".").append(domain);
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

// Deployment weight per router vendor: observed share / responsiveness.
using VendorWeights = std::array<double, std::size(kRouterShares)>;

std::size_t population_size(const WorldConfig& config,
                            const PopulationSpec& pop) {
  return static_cast<std::size_t>(pop.count / config.device_scale);
}

class Generator {
 public:
  explicit Generator(const WorldConfig& config)
      : config_(config), rng_(config.seed) {
    // Vendor tables resolved once, not per AS or per router.
    for (std::size_t vi = 0; vi < std::size(kRouterShares); ++vi)
      router_profiles_[vi] = &vendor_profile(kRouterShares[vi].vendor);
    for (std::size_t ri = 0; ri < std::size(kRegions); ++ri)
      for (std::size_t vi = 0; vi < std::size(kRouterShares); ++vi)
        region_vendor_weights_[ri][vi] =
            kRouterShares[vi].share[ri] /
            std::max(router_profiles_[vi]->snmpv3_responsive, 0.02);
  }

  World build() {
    make_ases();
    std::size_t devices = 0;
    for (const std::size_t routers : router_targets_) devices += routers;
    for (const auto& pop : config_.populations)
      devices += population_size(config_, pop);
    world_.devices.reserve(devices);
    populate_routers();
    populate_extra_devices();
    world_.reindex();
    return std::move(world_);
  }

 private:
  static constexpr VTime kHorizon = 30 * util::kDay;

  void make_ases() {
    std::vector<std::size_t> region_block(std::size(kRegions), 0);
    std::uint32_t next_asn = 174;
    auto add_as = [&](const std::string& region, std::size_t router_target,
                      const std::string& primary = {}) {
      const auto& spec = region_spec(region);
      const std::size_t ri = region_index(region);
      AutonomousSystem as;
      as.asn = next_asn;
      next_asn += 1 + static_cast<std::uint32_t>(rng_.next_below(37));
      as.region = region;
      const std::size_t block = region_block[ri]++;
      const std::size_t max_blocks = std::size_t{spec.v4_octet_span} * 256;
      assert(block < max_blocks);
      (void)max_blocks;
      as.v4_prefix = net::Prefix4(
          Ipv4(static_cast<std::uint8_t>(spec.v4_octet_base + block / 256),
               static_cast<std::uint8_t>(block % 256), 0, 0),
          16);
      as.v6_prefix = {0x2001, static_cast<std::uint16_t>(as.asn & 0xffff)};
      as.domain = "as" + std::to_string(as.asn) + "." +
                  util::to_lower(region) + ".example.net";
      as.naming_scheme = rng_.chance(config_.rdns_as_coverage)
                             ? static_cast<int>(rng_.next_below(3))
                             : -1;
      world_.ases.push_back(std::move(as));
      router_targets_.push_back(router_target);
      pinned_primary_.push_back(primary);
    };

    // Figure 16's mega networks first, at full per-AS fidelity / scale.
    for (const auto& mega : config_.mega_ases)
      add_as(mega.region,
             std::max<std::size_t>(
                 1, static_cast<std::size_t>(static_cast<double>(mega.routers) /
                                             config_.mega_scale)),
             mega.primary_vendor);

    // Heavy-tailed per-AS router counts: P(X >= x) = x^-alpha.
    static constexpr auto kRegionWeights = [] {
      std::array<double, std::size(kRegions)> weights{};
      for (std::size_t ri = 0; ri < weights.size(); ++ri)
        weights[ri] = kRegions[ri].as_weight;
      return weights;
    }();
    for (std::size_t i = 0; i < config_.tail_as_count; ++i) {
      const std::size_t ri = rng_.weighted_index(kRegionWeights);
      const auto& spec = kRegions[ri];
      double u;
      do {
        u = rng_.uniform01();
      } while (u <= 0.0);
      double count = std::pow(u, -1.0 / config_.pareto_alpha);
      count *= spec.size_multiplier;
      const auto routers = std::min<std::size_t>(
          config_.max_tail_as_routers,
          static_cast<std::size_t>(count));
      add_as(std::string(spec.name), std::max<std::size_t>(1, routers));
    }
    world_.v4_cursor.assign(world_.ases.size(), 0);
  }

  void populate_routers() {
    for (std::size_t as_index = 0; as_index < world_.ases.size(); ++as_index) {
      const auto& as = world_.ases[as_index];
      const VendorWeights& weights =
          region_vendor_weights_[region_index(as.region)];
      Rng as_rng = rng_.fork("as" + std::to_string(as.asn));

      // Vendor dominance target (Figures 17/18): group SA/AS/AF runs less
      // homogeneous networks than OC/NA/EU.
      const bool low_dominance_region =
          as.region == "SA" || as.region == "AS" || as.region == "AF";
      const double u = as_rng.uniform01();
      const double dominance =
          low_dominance_region ? 1.0 - 0.75 * std::pow(u, 1.8)
                               : 1.0 - 0.55 * std::pow(u, 2.5);
      std::size_t primary = as_rng.weighted_index(weights);
      if (!pinned_primary_[as_index].empty()) {
        for (std::size_t vi = 0; vi < std::size(kRouterShares); ++vi)
          if (kRouterShares[vi].vendor == pinned_primary_[as_index]) primary = vi;
      }

      const std::size_t count = router_targets_[as_index];
      for (std::size_t i = 0; i < count; ++i) {
        std::size_t vi = primary;
        if (!as_rng.chance(dominance)) vi = as_rng.weighted_index(weights);
        make_device(as_rng, as_index, *router_profiles_[vi], DeviceKind::kRouter,
                    /*itdk_eligible=*/true);
      }
    }
  }

  void populate_extra_devices() {
    if (config_.populations.empty()) return;
    // Eyeball ASes host the CPE/server populations.
    std::vector<std::size_t> eyeballs;
    for (std::size_t i = config_.mega_ases.size(); i < world_.ases.size(); ++i)
      if (rng_.chance(config_.eyeball_as_fraction)) eyeballs.push_back(i);
    if (eyeballs.empty()) eyeballs.push_back(world_.ases.size() - 1);

    for (const auto& pop : config_.populations) {
      const auto& profile = vendor_profile(pop.vendor);
      const std::size_t count = population_size(config_, pop);
      Rng pop_rng = rng_.fork("pop" + pop.vendor);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t as_index =
            eyeballs[pop_rng.next_below(eyeballs.size())];
        // Population devices (CPE, servers, enterprise switches) expose one
        // or two addresses regardless of the vendor's router profile.
        make_device(pop_rng, as_index, profile, pop.kind, pop.itdk_eligible,
                    /*extra_interfaces_override=*/0.15);
      }
    }
  }

  // Builds one device in the scratch arrays, then copies it into the world.
  void make_device(Rng& rng, std::size_t as_index, const VendorProfile& vendor,
                   DeviceKind kind, bool itdk_eligible,
                   std::optional<double> extra_interfaces_override = {}) {
    auto& as = world_.ases[as_index];
    const auto ouis = net::OuiRegistry::embedded().ouis_of(vendor.name);
    Device device;
    device.kind = kind;
    device.vendor = &vendor;
    device.as_index = static_cast<std::uint32_t>(as_index);
    device.itdk_eligible = itdk_eligible && kind == DeviceKind::kRouter;

    // ---- interfaces ----
    const double mean_extra =
        extra_interfaces_override.value_or(vendor.mean_extra_interfaces);
    std::size_t extra = 0;
    if (mean_extra > 0.0)
      extra = static_cast<std::size_t>(rng.exponential(mean_extra));
    const bool dual = rng.chance(vendor.dual_stack);
    if (dual && kind == DeviceKind::kRouter) extra = 1 + extra * 3;  // big boxes
    extra = std::min<std::size_t>(extra, 120);
    const std::size_t if_count = 1 + extra;

    // ~2% of dual-stack routers are observed v6-only (no v4 reachability).
    const bool v6_only = dual && rng.chance(0.08);

    // The serial is drawn before the city: the order every world has
    // been generated in.
    const bool router = kind == DeviceKind::kRouter;
    const std::uint64_t serial = rng.next_below(router ? 400000 : 4000000);
    router_name_.assign(kCities[rng.next_below(std::size(kCities))]);
    router_name_.append(router ? "-cr" : "-host");
    append_number(router_name_, serial);
    const auto if_prefix = kIfPrefixes[rng.next_below(std::size(kIfPrefixes))];

    interfaces_.clear();
    for (std::size_t i = 0; i < if_count; ++i) {
      Interface itf;
      itf.mac = vendor_mac(rng, ouis, /*unregistered=*/false);
      const bool want_v4 = !v6_only && (i == 0 || rng.chance(0.95));
      if (want_v4) {
        const std::uint64_t offset =
            world_.v4_cursor[as_index]++ % as.v4_prefix.size();
        itf.v4 = as.v4_prefix.at(offset);
      }
      if (dual && (v6_only || rng.chance(0.75))) {
        std::array<std::uint16_t, 8> groups{};
        groups[0] = as.v6_prefix[0];
        groups[1] = as.v6_prefix[1];
        for (int g = 4; g < 8; ++g)
          groups[g] = static_cast<std::uint16_t>(rng.next());
        itf.v6 = net::Ipv6::from_groups(groups);
      }
      if (as.naming_scheme >= 0 && itf.v4 &&
          rng.chance(config_.ptr_record_coverage)) {
        compose_ptr_name(ptr_name_, as.naming_scheme, router_name_, if_prefix,
                         i, *itf.v4, as.domain);
        itf.ptr_name = world_.add_ptr_name(ptr_name_);
      }
      interfaces_.push_back(itf);
    }
    device.interfaces = interfaces_;

    // ---- SNMP engine ----
    device.snmpv3_enabled = rng.chance(vendor.snmpv3_responsive);
    // Most responsive engines got v3 implicitly by configuring v2c
    // (lab finding, §6.2.1).
    device.snmpv2_enabled = device.snmpv3_enabled || rng.chance(0.05);
    device.clock_skew_ppm = rng.normal(0.0, vendor.clock_skew_ppm_sigma);
    // A minority of engines keep time badly regardless of vendor class
    // (no discipline on the engine-time counter) — the long tail of
    // Figure 8 and a large share of the "inconsistent last reboot" drops.
    if (rng.chance(0.22)) device.clock_skew_ppm *= 30.0;
    if (rng.chance(config_.time_jitter_rate))
      device.time_jitter_s = rng.uniform(-30.0, 30.0);
    const double mtbr =
        vendor.mean_days_between_reboots * std::exp(rng.normal(0.0, 0.4));
    reboots_.clear();
    device.boots_before_history =
        synthesize_reboot_history(rng, mtbr, kHorizon, reboots_);
    device.reboots = reboots_;

    if (rng.chance(vendor.constant_engine_id_bug)) {
      device.engine_id = constant_bug_engine_id();
    } else if (rng.chance(vendor.cloned_engine_id)) {
      device.engine_id = clone_template(vendor, ouis);
    } else {
      device.engine_id =
          synthesize_engine_id(rng, device, vendor, router_name_, as.domain);
    }
    device.empty_engine_id_bug = rng.chance(config_.empty_engine_id_rate);
    device.zero_time_bug = rng.chance(config_.zero_time_rate);
    device.future_time_bug = rng.chance(config_.future_time_rate);

    device.amplification = 1;
    if (rng.chance(vendor.amplifier))
      device.amplification = 2 + static_cast<int>(rng.next_below(4));
    if (device.snmpv3_enabled && config_.mega_amplifier_inverse > 0 &&
        rng.next_below(config_.mega_amplifier_inverse) == 0)
      device.amplification = 500 + static_cast<int>(rng.next_below(1500));

    device.churns = kind == DeviceKind::kCpe && rng.chance(config_.cpe_churn_rate);

    // Aliased /64s: some server deployments answer on every interface
    // identifier; the hitlist methodology must exclude them (§4.1.1).
    if (kind == DeviceKind::kServer && device.v6_count() > 0 &&
        rng.chance(config_.aliased_prefix_rate))
      device.answers_whole_v6_prefix = true;

    // Load-balancer VIPs (paper §9 future work): a sliver of server
    // addresses front several real engines.
    backend_engines_.clear();
    if (kind == DeviceKind::kServer && rng.chance(config_.load_balancer_rate)) {
      const std::size_t backends = 1 + rng.next_below(3);
      for (std::size_t b = 0; b < backends; ++b)
        backend_engines_.push_back(EngineId::make_netsnmp(rng.next()));
    }
    device.backend_engines = backend_engines_;
    // NAT frontends: the same engine is also reachable via an address
    // translated in a *different* network. Appended after the engine ID,
    // which reads the device's own interfaces.
    if (kind == DeviceKind::kRouter && device.snmpv3_enabled &&
        rng.chance(config_.nat_frontend_rate) && world_.ases.size() > 1) {
      std::size_t other = rng.next_below(world_.ases.size());
      if (other == as_index) other = (other + 1) % world_.ases.size();
      auto& frontend_as = world_.ases[other];
      Interface frontend;
      frontend.mac = vendor_mac(rng, ouis, /*unregistered=*/false);
      const std::uint64_t offset =
          world_.v4_cursor[other]++ % frontend_as.v4_prefix.size();
      frontend.v4 = frontend_as.v4_prefix.at(offset);
      interfaces_.push_back(frontend);
      device.interfaces = interfaces_;
    }

    // ---- stack personality ----
    device.ipid_policy = vendor.ipid_policy;
    // Most current software randomizes the IP-ID even on vendors whose
    // classic stacks used a shared counter — only a minority of deployed
    // boxes still give MIDAR a usable signal (paper §5.3-§5.4).
    if (device.ipid_policy == IpIdPolicy::kSharedCounter && rng.chance(0.78))
      device.ipid_policy = IpIdPolicy::kRandom;
    device.initial_ttl = vendor.initial_ttl;
    device.tcp_open = rng.chance(vendor.tcp_service_open);

    as.devices.push_back(world_.add_device(std::move(device)));
  }

  EngineId clone_template(const VendorProfile& vendor,
                          std::span<const std::uint32_t> ouis) {
    auto& templates = clone_templates_[&vendor];
    if (templates.size() < 3) {
      templates.push_back(EngineId::make_mac(
          vendor.enterprise_pen,
          vendor_mac(rng_, ouis, /*unregistered=*/false)));
    }
    return templates[rng_.next_below(templates.size())];
  }

  const WorldConfig& config_;
  Rng rng_;
  World world_;
  std::array<const VendorProfile*, std::size(kRouterShares)> router_profiles_{};
  std::array<VendorWeights, std::size(kRegions)> region_vendor_weights_{};
  std::vector<std::size_t> router_targets_;
  std::vector<std::string> pinned_primary_;
  std::map<const VendorProfile*, std::vector<EngineId>> clone_templates_;
  // Scratch for the device being built, reused so a device costs no
  // allocation of its own beyond its engine ID.
  std::string router_name_;
  std::string ptr_name_;
  std::vector<Interface> interfaces_;
  std::vector<VTime> reboots_;
  std::vector<EngineId> backend_engines_;
};

}  // namespace

std::vector<std::pair<std::string, double>> router_vendor_weights(
    const std::string& region) {
  const std::size_t ri = region_index(region);
  std::vector<std::pair<std::string, double>> out;
  for (const auto& row : kRouterShares)
    out.emplace_back(std::string(row.vendor), row.share[ri]);
  return out;
}

WorldConfig WorldConfig::full_internet() {
  WorldConfig config;
  config.seed = 20210416;
  config.router_scale = 12.0;
  config.mega_scale = 12.0;
  config.device_scale = 50.0;
  config.tail_as_count = 1900;
  config.mega_ases = {
      {"EU", 9400, "Huawei"}, {"EU", 9000, "Cisco"}, {"EU", 8900, "Cisco"},
      {"EU", 5200, "Huawei"},  {"AS", 7000, "Huawei"}, {"SA", 6400, "Cisco"},
      {"NA", 8000, "Cisco"},  {"NA", 6500, "Cisco"},  {"NA", 5600, "Cisco"},
      {"NA", 4600, ""},   // the mixed Cisco/Huawei/UNIX network: sampled
  };
  // Deployment counts (pre-scale) calibrated so that responsiveness x
  // filtering yields Figure 11's observed device mix.
  config.populations = {
      {"Net-SNMP", DeviceKind::kServer, 3.0e6, false},
      {"Cisco", DeviceKind::kRouter, 4.2e6, false},     // enterprise switches
      {"Broadcom", DeviceKind::kCpe, 3.1e6, false},
      {"Thomson", DeviceKind::kCpe, 3.1e6, false},
      {"Netgear", DeviceKind::kCpe, 2.2e6, false},
      {"Huawei", DeviceKind::kRouter, 0.9e6, false},    // enterprise gear
      {"Ambit", DeviceKind::kCpe, 0.8e6, false},
      {"MikroTik", DeviceKind::kRouter, 0.9e6, false},
      {"Sagemcom", DeviceKind::kCpe, 0.6e6, false},
      {"TP-Link", DeviceKind::kCpe, 0.55e6, false},
      {"Ubiquiti", DeviceKind::kRouter, 0.65e6, false},
      {"Zyxel", DeviceKind::kCpe, 0.45e6, false},
      {"AVM", DeviceKind::kCpe, 0.38e6, false},
      {"D-Link", DeviceKind::kCpe, 0.33e6, false},
      {"ZTE", DeviceKind::kCpe, 0.36e6, false},
      {"H3C", DeviceKind::kRouter, 0.1e6, false},
      {"Ruijie", DeviceKind::kRouter, 0.3e6, false},
  };
  return config;
}

WorldConfig WorldConfig::router_focus() {
  WorldConfig config;
  config.seed = 20210417;
  config.router_scale = 5.0;
  config.mega_scale = 2.0;
  config.device_scale = 1000.0;
  config.tail_as_count = 4500;
  config.mega_ases = {
      {"EU", 9400, "Huawei"}, {"EU", 9000, "Cisco"}, {"EU", 8900, "Cisco"},
      {"EU", 5200, "Huawei"},  {"AS", 7000, "Huawei"}, {"SA", 6400, "Cisco"},
      {"NA", 8000, "Cisco"},  {"NA", 6500, "Cisco"},  {"NA", 5600, "Cisco"},
      {"NA", 4600, ""},   // the mixed Cisco/Huawei/UNIX network: sampled
  };
  // A thin long-tail population keeps the "device vs router" distinction
  // meaningful without dominating runtime.
  config.populations = {
      {"Net-SNMP", DeviceKind::kServer, 3.0e6, false},
      {"Broadcom", DeviceKind::kCpe, 3.1e6, false},
  };
  return config;
}

WorldConfig WorldConfig::tiny() {
  WorldConfig config;
  config.seed = 7;
  config.router_scale = 200.0;
  config.mega_scale = 200.0;
  config.device_scale = 2000.0;
  config.tail_as_count = 60;
  config.mega_ases = {{"EU", 9400, ""}, {"NA", 8000, ""}};
  config.populations = {
      {"Net-SNMP", DeviceKind::kServer, 3.0e6, false},
      {"Broadcom", DeviceKind::kCpe, 3.1e6, false},
      {"Thomson", DeviceKind::kCpe, 3.1e6, false},
  };
  return config;
}

World generate_world(const WorldConfig& config) {
  return Generator(config).build();
}

}  // namespace snmpv3fp::topo
