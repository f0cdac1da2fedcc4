// The simulated Internet's ground-truth model.
//
// World owns the autonomous systems, devices and interfaces that the
// SNMPv3 scans probe. Everything the paper must *infer* (alias sets,
// vendors, reboot history, dual-stack pairs) exists here as ground truth,
// which lets the tests measure precision/recall of the inference pipeline —
// the "ground truth" the paper itself lacked (§3.1).
//
// Storage is flat. A World owns one array each for the interfaces, the
// reboot times, the backend engines and the USM users of all its devices
// (each device's run follows the previous device's), plus one arena for
// every PTR name. A Device is fixed-width: its `interfaces`, `reboots` and
// `backend_engines` are views into the arrays of the World that holds it,
// `usm` points into its USM array, and an Interface's `ptr_name` is a
// reference into its arena. The one ownership rule:
//
//   * Building: add_device() copies a device's arrays into the world's and
//     records the length of each run; reindex(), which every builder calls
//     once its devices are in, points every view at its run in one pass.
//     Between an add_device() and that reindex() no view may be read.
//   * A move keeps every view valid: a vector move keeps its buffer.
//   * A copy (copy constructor or assignment) rebases every view onto the
//     copy's own arrays, so a copy outlives its source.
//   * Mutation goes through the world: churn writes addresses into the
//     world's own interface array.
//
// A device that lives outside a World (a procedural derivation, a
// hand-built fixture) owns its arrays as an OwnedDevice.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/address_map.hpp"
#include "net/ip.hpp"
#include "net/mac.hpp"
#include "snmp/engine_id.hpp"
#include "topo/vendor.hpp"
#include "util/vclock.hpp"

namespace snmpv3fp::topo {

using DeviceIndex = std::uint32_t;
inline constexpr DeviceIndex kNoDevice = ~DeviceIndex{0};

// A PTR name's place in its World's name arena (World::ptr_name reads it);
// size 0 = no PTR record.
struct NameRef {
  std::uint32_t offset = 0;
  std::uint32_t size = 0;

  bool empty() const { return size == 0; }
};

struct Interface {
  net::MacAddress mac;
  // v6 before v4: the 17-byte optional packs behind the 6-byte MAC.
  std::optional<net::Ipv6> v6;
  std::optional<net::Ipv4> v4;
  NameRef ptr_name;  // reverse-DNS hostname; empty if no PTR record
};

// A configured USM user. An authenticated GET with the right HMAC under
// this user's localized key is answered; a wrong user or digest still
// leaks the engine triple via a REPORT.
struct UsmUser {
  std::string name;
  std::string auth_password;
  // Non-empty = authPriv: scoped PDUs travel AES-128-CFB encrypted.
  std::string priv_password;
};

// A device's SNMP engine + stack state. Fields that only matter to one
// baseline (IP-ID counters, TTLs) live here too so a single ground-truth
// object drives every measurement technique. The views point into the
// arrays of the owning World or OwnedDevice (see the rule above).
struct Device {
  DeviceIndex index = 0;
  std::uint32_t as_index = 0;
  const VendorProfile* vendor = nullptr;  // points into the builtin tables
  std::span<const Interface> interfaces;

  // --- SNMP engine -------------------------------------------------------
  const UsmUser* usm = nullptr;  // configured USM user; nullptr = none
  snmp::EngineId engine_id;
  // Reboot history: sorted virtual times (typically negative = before the
  // simulated epoch). The engine's last reboot before t defines engineTime.
  std::span<const util::VTime> reboots;
  // Load-balancer VIP: additional backend engines answering behind this
  // device's addresses; the agent picks one engine per request (the NAT/
  // load-balancer inference extension, paper §9 future work).
  std::span<const snmp::EngineId> backend_engines;
  // Engine clock skew: engineTime advances at (1 + skew_ppm * 1e-6) x real.
  double clock_skew_ppm = 0.0;
  // Coarse engine-time counters: the agent adds uniform +-time_jitter_s of
  // fresh jitter to every response (0 = precise counter).
  double time_jitter_s = 0.0;
  std::uint32_t boots_before_history = 0;  // engineBoots before reboots[0]
  int amplification = 1;  // responses sent per request (paper §8)
  DeviceKind kind = DeviceKind::kRouter;
  bool snmpv3_enabled = false;  // answers unauthenticated discovery
  // v2c configured (community string). Vendors that implicitly enable v3
  // when v2c is configured (paper §6.2.1) set both flags together.
  bool snmpv2_enabled = false;
  bool empty_engine_id_bug = false;  // responds with a missing engine ID
  bool zero_time_bug = false;        // reports engineBoots=0, engineTime=0
  bool future_time_bug = false;      // reports an implausibly huge engineTime
  // Aliased IPv6 prefix: the device answers on EVERY address of its /64
  // (server farms with on-link /64 routes). The hitlist methodology must
  // detect and exclude these (paper §4.1.1, Gasser et al. [21]).
  bool answers_whole_v6_prefix = false;
  bool churns = false;    // CPE: address reassigned between epochs

  // Whether this device is part of the router infrastructure that topology
  // datasets (ITDK / RIPE Atlas) could observe.
  bool itdk_eligible = false;

  // --- stack personality (baselines) --------------------------------------
  // Speedtrap: IPv6 fragment-ID counter behaves like ipid_policy.
  IpIdPolicy ipid_policy = IpIdPolicy::kSharedCounter;
  std::uint8_t initial_ttl = 255;
  bool tcp_open = false;

  // Engine boots counter value at virtual time t.
  std::uint32_t engine_boots_at(util::VTime t) const;
  // Time of the last reboot at or before t (falls back to the first known
  // reboot when t precedes all history).
  util::VTime last_reboot_before(util::VTime t) const;
  // engineTime in seconds at t, including skew and truncation to seconds.
  std::uint32_t engine_time_at(util::VTime t) const;

  bool dual_stack() const;
  std::size_t v4_count() const;
  std::size_t v6_count() const;
};

// A Device that owns the arrays its views point into: what
// ProceduralWorld::derive returns and what fixtures build by hand.
// Move-only; a move keeps every view valid. Copying one into a World goes
// through World::add_device.
class OwnedDevice : public Device {
 public:
  OwnedDevice() = default;
  OwnedDevice(OwnedDevice&&) noexcept = default;
  OwnedDevice& operator=(OwnedDevice&&) noexcept = default;
  OwnedDevice(const OwnedDevice&) = delete;
  OwnedDevice& operator=(const OwnedDevice&) = delete;
  ~OwnedDevice() = default;

  // Each setter replaces one owned array and points its view at it.
  void set_interfaces(std::vector<Interface> items);
  void set_reboots(std::vector<util::VTime> times);
  void set_backend_engines(std::vector<snmp::EngineId> engines);
  void set_usm(UsmUser user);

 private:
  std::vector<Interface> owned_interfaces_;
  std::vector<util::VTime> owned_reboots_;
  std::vector<snmp::EngineId> owned_backend_engines_;
  std::unique_ptr<UsmUser> owned_usm_;  // heap-held: a move keeps `usm` valid
};

struct AutonomousSystem {
  std::uint32_t asn = 0;
  std::string region;  // "EU", "NA", "AS", "SA", "AF", "OC"
  net::Prefix4 v4_prefix{net::Ipv4{}, 16};
  // IPv6 allocation: 2001:asn-derived::/32; interfaces get random IIDs.
  std::array<std::uint16_t, 2> v6_prefix{0x2001, 0};
  std::string domain;      // rDNS zone, e.g. "as3320.example.net"
  int naming_scheme = -1;  // PTR template index; -1 = no useful rDNS
  std::vector<DeviceIndex> devices;
};

class World {
 public:
  World() = default;
  World(const World& other);
  World& operator=(const World& other);
  World(World&&) noexcept = default;
  World& operator=(World&&) noexcept = default;
  ~World() = default;

  std::vector<AutonomousSystem> ases;
  // Appended only through add_device(); read freely once indexed.
  std::vector<Device> devices;

  // --- building -------------------------------------------------------------
  // Appends `device` with its index set to its position, copying the
  // arrays its views point into (an OwnedDevice's, another world's) into
  // this world's. Its views, like every device's, are bound by the next
  // reindex(). An interface's ptr_name must come from this world's
  // add_ptr_name().
  DeviceIndex add_device(Device device);

  // Appends `name` to the PTR-name arena; the reference goes in an
  // Interface's ptr_name.
  NameRef add_ptr_name(std::string_view name);

  // The world's own, writable copy of one device's interfaces. Churn
  // writes leases through it; any other address edit must be followed by
  // reindex().
  std::span<Interface> mutable_interfaces(DeviceIndex device);

  // An interface's reverse-DNS hostname ("" when it has no PTR record).
  std::string_view ptr_name(const Interface& itf) const {
    return std::string_view(ptr_names_).substr(itf.ptr_name.offset,
                                               itf.ptr_name.size);
  }

  // --- address mapping (current epoch) ------------------------------------
  const Device* device_at(const net::IpAddress& address) const;
  DeviceIndex device_index_at(const net::IpAddress& address) const;

  // All currently assigned addresses of the given family, sorted and
  // deduplicated. Collected from the interface lists as typed Ipv4/Ipv6
  // values, so the sort never compares IpAddress variants.
  std::vector<net::IpAddress> addresses(net::Family family) const;

  // Re-assigns the addresses of churning (CPE) devices within their AS
  // pool; models the DHCP churn between the paper's two campaigns. Called
  // by the campaign orchestrator between scans. Costs O(churned slots)
  // when every address has exactly one holder: each churned slot's old
  // address is erased from the index and its new lease inserted. A world
  // whose index holds shared addresses, a patch that would create one, or
  // a churning device that answers its whole /64 falls back to reindex(),
  // which keeps the last-writer-wins mapping exact in those cases.
  void rebind_churning_devices(std::uint64_t epoch_seed);

  // The addresses of `family` that rebind_churning_devices(epoch_seed)
  // would hand out, sorted and deduplicated — without mutating the world.
  // Every post-churn address is either a current address or one of these
  // leases, so the two-epoch target union is addresses(family) merged
  // with this list.
  std::vector<net::IpAddress> churn_leases(std::uint64_t epoch_seed,
                                           net::Family family) const;

  // Binds the views of devices appended since the last call (see the
  // ownership rule above), then rebuilds the IP -> device maps from the
  // interface lists (last writer wins on a shared address), sized up front
  // from the interface counts, and records whether every assigned address
  // has exactly one holder, which lets rebind_churning_devices patch the
  // maps instead of rebuilding them. Must be called after construction or
  // any address mutation made outside rebind_churning_devices.
  void reindex();

  // --- ground truth --------------------------------------------------------
  // True alias sets: every assigned address of every device (both
  // families), grouped per device. Devices with a single address yield
  // singleton sets.
  std::vector<std::vector<net::IpAddress>> truth_alias_sets() const;

  // Convenience totals.
  std::size_t router_count() const;
  std::size_t address_count(net::Family family) const;

  // Allocation cursors used by the generator (per-AS next host offset).
  std::vector<std::uint64_t> v4_cursor;

  // The /64 network part of an IPv6 address as a map key.
  static std::uint64_t v6_prefix64(const net::Ipv6& address);

 private:
  // One churn epoch's address re-assignments, keyed by (device, interface).
  template <typename Address>
  struct Lease {
    DeviceIndex device;
    std::uint32_t interface;
    Address address;
  };
  struct ChurnPlan {
    std::vector<Lease<net::Ipv4>> v4;
    std::vector<Lease<net::Ipv6>> v6;
  };
  // Computes the re-assignments rebind_churning_devices(epoch_seed) would
  // apply. `cursor` is the per-AS fresh-lease cursor (advanced in place);
  // rebind passes v4_cursor, the const query passes a copy.
  ChurnPlan plan_churn(std::uint64_t epoch_seed,
                       std::vector<std::uint64_t>& cursor) const;

  // The lengths of one appended device's runs in the arrays; each run
  // starts where the previous device's ended.
  struct PendingViews {
    std::uint32_t interfaces = 0;
    std::uint32_t reboots = 0;
    std::uint32_t backend_engines = 0;
    bool usm = false;
  };

  // Points every device's views at its runs (reindex() calls it).
  void bind_views();
  // Re-points every view from `source`'s arrays at this world's copies.
  void rebase_views(const World& source);
  std::vector<Interface> interfaces_;
  std::vector<util::VTime> reboots_;
  std::vector<snmp::EngineId> backend_engines_;
  std::vector<UsmUser> usm_users_;
  std::string ptr_names_;
  // Non-empty while building: one entry per device, none of whose views
  // may be read until bind_views() runs.
  std::vector<PendingViews> pending_;

  net::AddressMap<DeviceIndex> address_map_;
  // /64s on which one device answers every interface identifier.
  std::unordered_map<std::uint64_t, DeviceIndex> aliased_v6_prefixes_;
  // Set by reindex(): no address is held by two interfaces.
  bool unique_holders_ = false;
};

}  // namespace snmpv3fp::topo
