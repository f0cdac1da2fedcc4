#include "topo/datasets.hpp"

#include <algorithm>
#include <set>

#include "util/rng.hpp"

namespace snmpv3fp::topo {

namespace {

using util::Rng;

RouterDataset export_family(const World& world, const DatasetOptions& options,
                            net::Family family, std::string name,
                            bool with_alias_sets) {
  Rng rng(options.seed ^ util::fnv1a64(name));
  RouterDataset dataset;
  dataset.name = std::move(name);
  for (const auto& device : world.devices) {
    if (!device.itdk_eligible) continue;
    if (!rng.chance(options.router_coverage)) continue;
    std::vector<net::IpAddress> seen;
    for (const auto& itf : device.interfaces) {
      if (family == net::Family::kIpv4 && itf.v4 &&
          rng.chance(options.interface_coverage))
        seen.emplace_back(*itf.v4);
      if (family == net::Family::kIpv6 && itf.v6 &&
          rng.chance(options.interface_coverage))
        seen.emplace_back(*itf.v6);
    }
    if (seen.empty()) continue;
    dataset.addresses.insert(dataset.addresses.end(), seen.begin(), seen.end());
    if (!with_alias_sets) continue;
    // Like MIDAR/Speedtrap, the curated dataset groups only a minority of
    // routers into non-singleton alias sets; the rest remain singletons.
    if (seen.size() > 1 && rng.chance(options.alias_grouping_rate)) {
      dataset.alias_sets.push_back(seen);
    } else {
      for (const auto& addr : seen) dataset.alias_sets.push_back({addr});
    }
  }
  std::sort(dataset.addresses.begin(), dataset.addresses.end());
  dataset.addresses.erase(
      std::unique(dataset.addresses.begin(), dataset.addresses.end()),
      dataset.addresses.end());
  return dataset;
}

}  // namespace

RouterDataset export_itdk_v4(const World& world, const DatasetOptions& options) {
  return export_family(world, options, net::Family::kIpv4, "ITDK",
                       /*with_alias_sets=*/true);
}

RouterDataset export_itdk_v6(const World& world, const DatasetOptions& options) {
  return export_family(world, options, net::Family::kIpv6, "ITDK-Speedtrap",
                       /*with_alias_sets=*/true);
}

RouterDataset export_atlas(const World& world, const DatasetOptions& options) {
  // Atlas traceroutes see routers through probe vantage points: thinner and
  // biased toward well-connected boxes; combine both families.
  DatasetOptions thin = options;
  thin.router_coverage = options.router_coverage * 0.25;
  thin.interface_coverage = options.interface_coverage * 0.55;
  RouterDataset v4 = export_family(world, thin, net::Family::kIpv4,
                                   "RIPE Atlas", /*with_alias_sets=*/false);
  RouterDataset v6 = export_family(world, thin, net::Family::kIpv6,
                                   "RIPE Atlas", /*with_alias_sets=*/false);
  v4.addresses.insert(v4.addresses.end(), v6.addresses.begin(),
                      v6.addresses.end());
  std::sort(v4.addresses.begin(), v4.addresses.end());
  return v4;
}

std::vector<net::IpAddress> export_hitlist_v6(const World& world,
                                              std::uint64_t seed) {
  Rng rng(seed ^ 0x6f1a2b3cULL);
  std::vector<net::IpAddress> out;
  for (const auto& device : world.devices) {
    // The hitlist aggregates traceroute targets over a year: routers are
    // covered well, and a large CPE corpus (routed last hops) dominates.
    const double coverage =
        device.kind == DeviceKind::kRouter ? 0.85 : 0.40;
    for (const auto& itf : device.interfaces)
      if (itf.v6 && rng.chance(coverage)) out.emplace_back(*itf.v6);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<PtrRecord> export_ptr_records(const World& world) {
  std::vector<PtrRecord> out;
  for (const auto& device : world.devices) {
    for (const auto& itf : device.interfaces) {
      const std::string_view name = world.ptr_name(itf);
      if (name.empty()) continue;
      if (itf.v4) out.push_back({net::IpAddress(*itf.v4), std::string(name)});
      // Some dual-stack interfaces publish the same hostname under
      // ip6.arpa — that minority is what gives rDNS its dual-stack
      // resolution power (and why it found far fewer dual-stack aliases
      // than SNMPv3 in the paper's §5.2).
      if (itf.v6 && util::fnv1a64(name) % 16 == 0)
        out.push_back({net::IpAddress(*itf.v6), std::string(name)});
    }
  }
  return out;
}

net::AsTable build_as_table(const World& world) {
  net::AsTable table;
  for (const auto& as : world.ases) {
    net::AsInfo info{as.asn, as.region};
    table.add_v4(as.v4_prefix, info);
    table.add_v6(as.v6_prefix, info);
  }
  return table;
}

std::vector<net::IpAddress> dataset_union(
    const std::vector<const RouterDataset*>& datasets) {
  std::set<net::IpAddress> merged;
  for (const auto* dataset : datasets)
    merged.insert(dataset->addresses.begin(), dataset->addresses.end());
  return {merged.begin(), merged.end()};
}

}  // namespace snmpv3fp::topo
