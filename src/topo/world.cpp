#include "topo/world.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rng.hpp"

namespace snmpv3fp::topo {

std::uint32_t Device::engine_boots_at(util::VTime t) const {
  const auto it = std::upper_bound(reboots.begin(), reboots.end(), t);
  return boots_before_history +
         static_cast<std::uint32_t>(it - reboots.begin());
}

util::VTime Device::last_reboot_before(util::VTime t) const {
  assert(!reboots.empty());
  const auto it = std::upper_bound(reboots.begin(), reboots.end(), t);
  if (it == reboots.begin()) return reboots.front();
  return *(it - 1);
}

std::uint32_t Device::engine_time_at(util::VTime t) const {
  const util::VTime since = t - last_reboot_before(t);
  double seconds = util::to_seconds(std::max<util::VTime>(since, 0));
  seconds *= 1.0 + clock_skew_ppm * 1e-6;
  if (seconds < 0) seconds = 0;
  return static_cast<std::uint32_t>(seconds);
}

bool Device::dual_stack() const { return v4_count() > 0 && v6_count() > 0; }

std::size_t Device::v4_count() const {
  std::size_t n = 0;
  for (const auto& itf : interfaces) n += itf.v4.has_value();
  return n;
}

std::size_t Device::v6_count() const {
  std::size_t n = 0;
  for (const auto& itf : interfaces) n += itf.v6.has_value();
  return n;
}

const Device* World::device_at(const net::IpAddress& address) const {
  const auto index = device_index_at(address);
  return index == kNoDevice ? nullptr : &devices[index];
}

std::uint64_t World::v6_prefix64(const net::Ipv6& address) {
  return address.high64();
}

DeviceIndex World::device_index_at(const net::IpAddress& address) const {
  if (const DeviceIndex* device = address_map_.find(address)) return *device;
  // Aliased /64s answer on every interface identifier.
  if (address.is_v6()) {
    const auto aliased =
        aliased_v6_prefixes_.find(v6_prefix64(address.v6()));
    if (aliased != aliased_v6_prefixes_.end()) return aliased->second;
  }
  return kNoDevice;
}

namespace {

// Sorts and deduplicates typed addresses, then widens them to IpAddress.
// Ipv4/Ipv6 values compare far cheaper than variants, and the orders agree.
template <typename Address>
std::vector<net::IpAddress> sorted_unique(std::vector<Address> typed) {
  std::sort(typed.begin(), typed.end());
  typed.erase(std::unique(typed.begin(), typed.end()), typed.end());
  return {typed.begin(), typed.end()};
}

template <typename Address>
std::vector<net::IpAddress> interface_addresses(
    const std::vector<Device>& devices,
    std::optional<Address> Interface::*field) {
  std::vector<Address> typed;
  for (const auto& device : devices)
    for (const auto& itf : device.interfaces)
      if (itf.*field) typed.push_back(*(itf.*field));
  return sorted_unique(std::move(typed));
}

}  // namespace

std::vector<net::IpAddress> World::addresses(net::Family family) const {
  return family == net::Family::kIpv4
             ? interface_addresses(devices, &Interface::v4)
             : interface_addresses(devices, &Interface::v6);
}

World::ChurnPlan World::plan_churn(std::uint64_t epoch_seed,
                                   std::vector<std::uint64_t>& cursor) const {
  util::Rng rng(epoch_seed);
  // DHCP-style churn: within each AS, the dynamic pool is *recycled* — a
  // churning device usually receives an address another churning device
  // held during the previous epoch. This is what produces the paper's
  // "inconsistent engine ID" filter drops: the same IP answers with a
  // different device's engine ID in the second scan.
  struct Slot {
    DeviceIndex device;
    std::uint32_t interface;
  };
  std::vector<std::vector<Slot>> v4_slots(ases.size());
  std::vector<std::vector<Slot>> v6_slots(ases.size());
  for (const auto& device : devices) {
    if (!device.churns) continue;
    for (std::uint32_t i = 0; i < device.interfaces.size(); ++i) {
      const auto& itf = device.interfaces[i];
      if (itf.v4) v4_slots[device.as_index].push_back({device.index, i});
      if (itf.v6) v6_slots[device.as_index].push_back({device.index, i});
    }
  }
  ChurnPlan plan;
  constexpr double kFreshAddressRate = 0.3;  // leases from outside the pool
  for (std::size_t as_index = 0; as_index < ases.size(); ++as_index) {
    const auto& as = ases[as_index];
    const auto& v4 = v4_slots[as_index];
    if (v4.size() > 1) {
      std::vector<net::Ipv4> pool;
      pool.reserve(v4.size());
      for (const auto& slot : v4)
        pool.push_back(*devices[slot.device].interfaces[slot.interface].v4);
      // Rotation guarantees nobody keeps their own lease.
      const std::size_t shift = 1 + rng.next_below(pool.size() - 1);
      for (std::size_t i = 0; i < v4.size(); ++i) {
        net::Ipv4 address;
        if (rng.chance(kFreshAddressRate)) {
          const std::uint64_t offset = cursor[as_index]++ % as.v4_prefix.size();
          address = as.v4_prefix.at(offset);
        } else {
          address = pool[(i + shift) % pool.size()];
        }
        plan.v4.push_back({v4[i].device, v4[i].interface, address});
      }
    }
    const auto& v6 = v6_slots[as_index];
    if (v6.size() > 1) {
      std::vector<net::Ipv6> pool;
      pool.reserve(v6.size());
      for (const auto& slot : v6)
        pool.push_back(*devices[slot.device].interfaces[slot.interface].v6);
      const std::size_t shift = 1 + rng.next_below(pool.size() - 1);
      for (std::size_t i = 0; i < v6.size(); ++i) {
        net::Ipv6 address;
        if (rng.chance(kFreshAddressRate)) {
          std::array<std::uint16_t, 8> groups{};
          groups[0] = as.v6_prefix[0];
          groups[1] = as.v6_prefix[1];
          for (int g = 4; g < 8; ++g)
            groups[g] = static_cast<std::uint16_t>(rng.next());
          address = net::Ipv6::from_groups(groups);
        } else {
          address = pool[(i + shift) % pool.size()];
        }
        plan.v6.push_back({v6[i].device, v6[i].interface, address});
      }
    }
  }
  return plan;
}

void World::rebind_churning_devices(std::uint64_t epoch_seed) {
  if (v4_cursor.size() < ases.size()) v4_cursor.resize(ases.size(), 0);
  const ChurnPlan plan = plan_churn(epoch_seed, v4_cursor);
  // An aliased device's /64 moves with its lease; only reindex() rebuilds
  // the aliased-prefix map.
  bool patch = unique_holders_ &&
               std::none_of(plan.v6.begin(), plan.v6.end(),
                            [&](const auto& lease) {
                              return devices[lease.device]
                                  .answers_whole_v6_prefix;
                            });
  // Every old lease is unbound before any new one is bound: recycled
  // leases move between churned slots.
  const auto unbind = [&](const auto& leases, auto Interface::*field) {
    for (const auto& lease : leases) {
      auto& address = devices[lease.device].interfaces[lease.interface].*field;
      if (patch) {
        const DeviceIndex* holder = address_map_.find(*address);
        patch = holder != nullptr && *holder == lease.device;
        if (patch) address_map_.erase(*address);
      }
      address = lease.address;
    }
  };
  const auto bind = [&](const auto& leases) {
    for (const auto& lease : leases)
      if (patch)
        patch = address_map_.try_emplace(lease.address, lease.device).second;
  };
  unbind(plan.v4, &Interface::v4);
  unbind(plan.v6, &Interface::v6);
  bind(plan.v4);
  bind(plan.v6);
  if (!patch) reindex();
}

std::vector<net::IpAddress> World::churn_leases(std::uint64_t epoch_seed,
                                                net::Family family) const {
  std::vector<std::uint64_t> cursor = v4_cursor;
  cursor.resize(std::max(cursor.size(), ases.size()), 0);
  const ChurnPlan plan = plan_churn(epoch_seed, cursor);
  const auto leases = [](const auto& slots) {
    std::vector<decltype(slots.front().address)> typed;
    typed.reserve(slots.size());
    for (const auto& slot : slots) typed.push_back(slot.address);
    return sorted_unique(std::move(typed));
  };
  return family == net::Family::kIpv4 ? leases(plan.v4) : leases(plan.v6);
}

void World::reindex() {
  address_map_.clear();
  std::size_t v4_interfaces = 0;
  std::size_t v6_interfaces = 0;
  for (const auto& device : devices) {
    v4_interfaces += device.v4_count();
    v6_interfaces += device.v6_count();
  }
  address_map_.reserve(net::Family::kIpv4, v4_interfaces);
  address_map_.reserve(net::Family::kIpv6, v6_interfaces);
  if (v4_cursor.size() < ases.size()) v4_cursor.resize(ases.size(), 0);
  aliased_v6_prefixes_.clear();
  unique_holders_ = true;
  const auto bind = [&](const auto& address, DeviceIndex device) {
    const auto [held, inserted] = address_map_.try_emplace(address, device);
    if (!inserted) {
      *held = device;
      unique_holders_ = false;
    }
  };
  for (const auto& device : devices) {
    for (const auto& itf : device.interfaces) {
      if (itf.v4) bind(*itf.v4, device.index);
      if (itf.v6) {
        bind(*itf.v6, device.index);
        if (device.answers_whole_v6_prefix)
          aliased_v6_prefixes_[v6_prefix64(*itf.v6)] = device.index;
      }
    }
  }
}

std::vector<std::vector<net::IpAddress>> World::truth_alias_sets() const {
  std::vector<std::vector<net::IpAddress>> sets;
  sets.reserve(devices.size());
  for (const auto& device : devices) {
    std::vector<net::IpAddress> set;
    for (const auto& itf : device.interfaces) {
      if (itf.v4) set.emplace_back(*itf.v4);
      if (itf.v6) set.emplace_back(*itf.v6);
    }
    if (!set.empty()) {
      std::sort(set.begin(), set.end());
      sets.push_back(std::move(set));
    }
  }
  return sets;
}

std::size_t World::router_count() const {
  std::size_t n = 0;
  for (const auto& d : devices) n += d.kind == DeviceKind::kRouter;
  return n;
}

std::size_t World::address_count(net::Family family) const {
  return address_map_.size(family);
}

}  // namespace snmpv3fp::topo
