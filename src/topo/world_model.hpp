// The world abstraction the simulation probes through.
//
// A WorldModel is anything that can answer "which device owns this
// address?" plus the handful of bulk queries the campaign layer needs
// (target enumeration, the IPv6 hitlist, churn between scan epochs). Two
// implementations exist: the materialized topo::World (every device built
// up front — adapted here by MaterializedWorldModel) and the procedural
// backend (topo/procedural.hpp), which derives devices on demand from a
// seeded hash so memory stays O(responders) at census scale.
//
// Probing goes through a DeviceView: a per-consumer handle (one per
// sim::Fabric, i.e. one per scan shard) that may cache lazily derived
// devices. Views are NOT thread-safe — each shard owns its own — and the
// pointer a view returns stays valid only until its next device_at call.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/ip.hpp"
#include "topo/world.hpp"

namespace snmpv3fp::topo {

// Responder-cache accounting for lazy backends. Execution-only telemetry:
// nothing downstream of the fabric reads it, so cache sizing never changes
// an output bit. Materialized views report all-zero stats.
struct WorldCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    // devices derived on demand
  std::uint64_t evictions = 0;
  std::size_t resident = 0;    // devices currently cached

  WorldCacheStats& operator+=(const WorldCacheStats& other);
  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

// One consumer's window onto a world model's device state.
class DeviceView {
 public:
  virtual ~DeviceView() = default;

  // The device answering at `address` in the current epoch, or nullptr for
  // dead space. The pointer is owned by the view and is invalidated by the
  // next device_at call (lazy views may evict), so callers must finish
  // with the device before looking up another.
  virtual const Device* device_at(const net::IpAddress& address) = 0;

  virtual WorldCacheStats cache_stats() const { return {}; }

  // Checkpoint support: the primary addresses of every cached device, most
  // recently used first. warm() re-derives them (least recently used
  // first) so a restored view reproduces the snapshot's cache contents and
  // eviction order. Materialized views have nothing to persist.
  virtual std::vector<net::IpAddress> cached_addresses() const { return {}; }
  virtual void warm(const std::vector<net::IpAddress>& addresses);
};

class WorldModel {
 public:
  virtual ~WorldModel() = default;

  // Opens an independent probing handle. Each sim::Fabric (one per scan
  // shard) holds its own; views must not be shared across threads.
  virtual std::unique_ptr<DeviceView> open_view() const = 0;

  // Advances the model to the next address epoch (the DHCP/CGNAT churn the
  // campaign applies between its two scans). Open views observe the new
  // epoch on their next lookup.
  virtual void apply_churn(std::uint64_t epoch_seed) = 0;

  // Every address of `family` assigned in the current OR the post-churn
  // epoch, sorted and deduplicated — the campaign's default target list.
  // Computed without the caller pre-enumerating or deep-copying anything.
  virtual std::vector<net::IpAddress> campaign_targets(
      net::Family family, std::uint64_t churn_seed) const = 0;

  // The IPv6 hitlist (topo/datasets.hpp semantics), pre-alias-filtering.
  virtual std::vector<net::IpAddress> hitlist_v6(std::uint64_t seed) const = 0;

  // Ground truth: the full World at the current epoch. Lazy backends build
  // it by enumerating every derivable device — bit-identical to what their
  // views answer probe by probe (tests/test_worlds.cpp enforces this).
  virtual World materialize() const = 0;
};

// Adapts a caller-owned World. apply_churn mutates the adapted world (the
// rebind the campaign historically performed itself).
class MaterializedWorldModel final : public WorldModel {
 public:
  explicit MaterializedWorldModel(World& world) : world_(&world) {}

  std::unique_ptr<DeviceView> open_view() const override;
  void apply_churn(std::uint64_t epoch_seed) override;
  std::vector<net::IpAddress> campaign_targets(
      net::Family family, std::uint64_t churn_seed) const override;
  std::vector<net::IpAddress> hitlist_v6(std::uint64_t seed) const override;
  World materialize() const override { return *world_; }

 private:
  World* world_;
};

// A zero-overhead view over an already-materialized World.
std::unique_ptr<DeviceView> make_materialized_view(const World& world);

}  // namespace snmpv3fp::topo
