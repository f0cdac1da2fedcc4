#include "topo/world_model.hpp"

#include <algorithm>
#include <iterator>

#include "topo/datasets.hpp"

namespace snmpv3fp::topo {

WorldCacheStats& WorldCacheStats::operator+=(const WorldCacheStats& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  resident += other.resident;
  return *this;
}

void DeviceView::warm(const std::vector<net::IpAddress>& addresses) {
  for (const auto& address : addresses) device_at(address);
}

namespace {

class MaterializedView final : public DeviceView {
 public:
  explicit MaterializedView(const World& world) : world_(world) {}

  const Device* device_at(const net::IpAddress& address) override {
    return world_.device_at(address);
  }

  // Nothing to persist: every device already exists, so warm() stays the
  // base-class no-op-by-lookup and cached_addresses() stays empty.

 private:
  const World& world_;
};

}  // namespace

std::unique_ptr<DeviceView> make_materialized_view(const World& world) {
  return std::make_unique<MaterializedView>(world);
}

std::unique_ptr<DeviceView> MaterializedWorldModel::open_view() const {
  return make_materialized_view(*world_);
}

void MaterializedWorldModel::apply_churn(std::uint64_t epoch_seed) {
  world_->rebind_churning_devices(epoch_seed);
}

std::vector<net::IpAddress> MaterializedWorldModel::campaign_targets(
    net::Family family, std::uint64_t churn_seed) const {
  // Probe every address assigned in either epoch (probing known-dead space
  // only burns simulated time). A post-churn address is either a current
  // one or a churned slot's new lease, so the union is a linear merge of
  // two sorted lists — no churned copy of the world, no post-churn list.
  const auto current = world_->addresses(family);
  const auto leases = world_->churn_leases(churn_seed, family);
  std::vector<net::IpAddress> targets;
  targets.reserve(current.size() + leases.size());
  std::set_union(current.begin(), current.end(), leases.begin(), leases.end(),
                 std::back_inserter(targets));
  return targets;
}

std::vector<net::IpAddress> MaterializedWorldModel::hitlist_v6(
    std::uint64_t seed) const {
  return export_hitlist_v6(*world_, seed);
}

}  // namespace snmpv3fp::topo
