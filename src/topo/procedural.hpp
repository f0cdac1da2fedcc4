// Procedural world backend: O(responders) topology at census scale.
//
// The paper's campaigns cover the whole routable IPv4 space (~3.7B
// probes), but topo::World materializes every device up front, which caps
// simulated sweeps far below that. ProceduralWorld derives a device the
// first time a probe arrives at its address — vendor, engine ID, reboot
// history, clock skew and fault bugs are all pure functions of a seeded
// hash of (world seed, scenario region, device ordinal) — so a
// billion-address sweep allocates state only for the addresses that
// actually answer.
//
// The address space is a list of disjoint scenario regions, each a v4
// prefix (or v6 aliased-/64 block) with one behavior layer:
//
//   kPlain          sparse routers: k responders per 2^block_bits block
//   kNatPool        every address answers; 2^pool_bits-address pools share
//                   one device (one engine ID) — NAT frontends
//   kLoadBalancer   sparse VIPs fronting several backend engines
//   kAnycast        sparse addresses answered by one of `sites` global
//                   sites; the serving site re-resolves each epoch
//   kCgnatChurn     every address answers, but the subscriber (device
//                   identity) behind it re-randomizes each churn epoch
//   kAliasedPrefix  v6 /64s where one server answers every IID
//   kMiddlebox      sparse boxes answering with mangled (short,
//                   non-conforming) engine IDs and zeroed timers
//
// Everything is rank-computable: a device's global index (which is
// wire-visible through the agent's report counter) is derived in O(1)
// from its region's prefix sums, so lazy derivation and materialize()
// produce byte-identical Devices — a procedural world constrained to a
// small prefix yields a bit-identical PipelineResult to its materialized
// twin (tests/test_worlds.cpp). docs/WORLDS.md walks the whole scheme.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "topo/world_model.hpp"

namespace snmpv3fp::topo {

enum class ScenarioKind : std::uint8_t {
  kPlain,
  kNatPool,
  kLoadBalancer,
  kAnycast,
  kCgnatChurn,
  kAliasedPrefix,
  kMiddlebox,
};

std::string_view to_string(ScenarioKind kind);

// One contiguous slice of address space with one behavior layer. v4 kinds
// use `v4`; kAliasedPrefix carves /64 pools from `v6_base`. Regions must
// not overlap (validated at construction).
struct ScenarioRegion {
  ScenarioKind kind = ScenarioKind::kPlain;

  // ---- v4 kinds ----
  net::Prefix4 v4{net::Ipv4(10, 0, 0, 0), 8};
  // Sparse kinds (kPlain/kLoadBalancer/kAnycast/kMiddlebox): exactly
  // `responders_per_block` (at most 64) responders per 2^block_bits-address
  // block, at hash-chosen offsets. Density = responders_per_block /
  // 2^block_bits.
  std::uint32_t block_bits = 8;
  std::uint32_t responders_per_block = 4;
  // kNatPool: pool size = 2^pool_bits addresses sharing one device.
  std::uint32_t pool_bits = 4;
  // kLoadBalancer: backend engines per VIP.
  std::uint32_t backends = 3;
  // kAnycast: global sites; each address resolves to one per epoch.
  std::uint32_t sites = 4;

  // ---- kAliasedPrefix ----
  net::Ipv6 v6_base{};              // base of the aliased block
  std::uint32_t v6_prefix_len = 60; // 2^(64-len) aliased /64 pools
  std::uint32_t v6_iids_per_pool = 4;  // enumerated (hitlist) IIDs per /64

  // Vendor market the region draws from (generator regional shares).
  std::string market_region = "EU";
};

struct ProceduralConfig {
  std::uint64_t seed = 20210416;
  std::vector<ScenarioRegion> regions;
  // Per-view responder cache capacity (devices). Sized so a census sweep's
  // working set fits; eviction only costs re-derivation, never bits.
  std::size_t cache_capacity = std::size_t{1} << 16;

  // Engine-state fault rates (generator semantics), applied to every kind
  // except the ones that force their own engine state (load balancer,
  // anycast, middlebox).
  double empty_engine_id_rate = 0.0002;
  double zero_time_rate = 0.030;
  double future_time_rate = 0.0008;
  double time_jitter_rate = 0.08;

  // A small multi-layer world exercising every scenario kind; the tests'
  // workhorse and the equivalence fixture.
  static ProceduralConfig tiny();
  // A plain-region sweep covering at least `addresses` targets (power-of-
  // two prefix), at census-like responder density (~1/2^14).
  static ProceduralConfig census(std::uint64_t addresses);
};

class ProceduralWorld final : public WorldModel {
 public:
  explicit ProceduralWorld(ProceduralConfig config);

  // ---- WorldModel ----
  std::unique_ptr<DeviceView> open_view() const override;
  void apply_churn(std::uint64_t epoch_seed) override;
  std::vector<net::IpAddress> campaign_targets(
      net::Family family, std::uint64_t churn_seed) const override;
  std::vector<net::IpAddress> hitlist_v6(std::uint64_t seed) const override;
  World materialize() const override;

  // ---- introspection ----
  const ProceduralConfig& config() const { return config_; }
  // Total derivable devices / addressable probe surface, O(regions).
  std::uint64_t device_count() const { return total_devices_; }
  std::uint64_t address_count(net::Family family) const;
  // Monotone stamp bumped by apply_churn; open views use it to drop stale
  // cached identities.
  std::uint64_t epoch_stamp() const { return epoch_stamp_; }

  // Derives the device behind `address` in the current epoch (nullopt for
  // dead space). Pure: same (config, epoch, address) -> same Device bytes.
  // The result owns the arrays its views point into.
  std::optional<OwnedDevice> derive(const net::IpAddress& address) const;

 private:
  friend class ProceduralView;

  struct RegionInfo {
    ScenarioRegion spec;
    std::uint64_t device_base = 0;   // global index of the region's device 0
    std::uint64_t device_count = 0;
    // v4 kinds: [v4_base, v4_base + v4_size).
    std::uint64_t v4_base = 0;
    std::uint64_t v4_size = 0;
    // kAliasedPrefix: [v6_base64, v6_base64 + pool_count) in /64 units.
    std::uint64_t v6_base64 = 0;
    std::uint64_t pool_count = 0;
    // Sparse kinds: h(h(seed, block salt), region), the key every block's
    // offset draw starts from.
    std::uint64_t block_seed = 0;
    // Vendor market resolved once: parallel weight/profile arrays.
    std::vector<double> vendor_weights;
    std::vector<const VendorProfile*> vendor_profiles;
  };

  struct Resolved {
    std::uint32_t region = 0;
    std::uint64_t member = 0;  // device ordinal within the region
  };

  // The cap on responders_per_block: a block's offsets fit a fixed array,
  // so resolving an address never allocates.
  static constexpr std::uint32_t kMaxRespondersPerBlock = 64;

  // The hash-chosen responder offsets of one sparse block: distinct, in
  // draw order (not sorted).
  struct BlockOffsets {
    // Only [0, count) is ever read. Left uninitialized: zeroing 256 bytes
    // on every dead-space lookup costs as much as the rest of the lookup.
    std::array<std::uint32_t, kMaxRespondersPerBlock> value;
    std::uint32_t count = 0;

    std::uint32_t* begin() { return value.data(); }
    std::uint32_t* end() { return value.data() + count; }
  };

  // Address -> (region, member); nullopt when nothing answers there.
  std::optional<Resolved> resolve(const net::IpAddress& address) const;
  BlockOffsets block_offsets(std::uint32_t region, std::uint64_t block) const;
  // The enumerated (hitlist-visible) IIDs of one aliased /64 pool; the
  // first is the pool device's primary address.
  std::vector<net::Ipv6> pool_iids(std::uint32_t region,
                                   std::uint64_t member) const;
  OwnedDevice derive_device(std::uint32_t region, std::uint64_t member) const;
  // The canonical (first-interface) address of a device — the cache/
  // checkpoint key that resolves back to the same (region, member).
  net::IpAddress primary_address(std::uint32_t region,
                                 std::uint64_t member) const;

  ProceduralConfig config_;
  std::vector<RegionInfo> regions_;
  std::vector<std::uint32_t> v4_order_;  // region indices sorted by v4_base
  std::vector<std::uint32_t> v6_order_;  // aliased regions sorted by base64
  std::uint64_t total_devices_ = 0;
  std::uint64_t epoch_seed_ = 0;
  std::uint64_t epoch_stamp_ = 0;
};

}  // namespace snmpv3fp::topo
