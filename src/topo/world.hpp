// The simulated Internet's ground-truth model.
//
// World owns the autonomous systems, devices and interfaces that the
// SNMPv3 scans probe. Everything the paper must *infer* (alias sets,
// vendors, reboot history, dual-stack pairs) exists here as ground truth,
// which lets the tests measure precision/recall of the inference pipeline —
// the "ground truth" the paper itself lacked (§3.1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
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

struct Interface {
  net::MacAddress mac;
  std::optional<net::Ipv4> v4;
  std::optional<net::Ipv6> v6;
  std::string ptr_name;  // reverse-DNS hostname; empty if no PTR record
};

// A device's SNMP engine + stack state. Fields that only matter to one
// baseline (IP-ID counters, TTLs) live here too so a single ground-truth
// object drives every measurement technique.
struct Device {
  DeviceIndex index = 0;
  DeviceKind kind = DeviceKind::kRouter;
  const VendorProfile* vendor = nullptr;  // points into the builtin tables
  std::uint32_t as_index = 0;
  std::vector<Interface> interfaces;

  // --- SNMP engine -------------------------------------------------------
  bool snmpv3_enabled = false;  // answers unauthenticated discovery
  // v2c configured (community string). Vendors that implicitly enable v3
  // when v2c is configured (paper §6.2.1) set both flags together.
  bool snmpv2_enabled = false;
  // Configured USM user (empty = none). An authenticated GET with the
  // right HMAC under this user's localized key is answered; a wrong user
  // or digest still leaks the engine triple via a REPORT.
  std::string usm_user;
  std::string usm_auth_password;
  // Non-empty = authPriv: scoped PDUs travel AES-128-CFB encrypted.
  std::string usm_priv_password;
  snmp::EngineId engine_id;
  bool empty_engine_id_bug = false;  // responds with a missing engine ID
  bool zero_time_bug = false;        // reports engineBoots=0, engineTime=0
  bool future_time_bug = false;      // reports an implausibly huge engineTime
  // Engine clock skew: engineTime advances at (1 + skew_ppm * 1e-6) x real.
  double clock_skew_ppm = 0.0;
  // Coarse engine-time counters: the agent adds uniform +-time_jitter_s of
  // fresh jitter to every response (0 = precise counter).
  double time_jitter_s = 0.0;
  // Reboot history: sorted virtual times (typically negative = before the
  // simulated epoch). The engine's last reboot before t defines engineTime.
  std::vector<util::VTime> reboots;
  std::uint32_t boots_before_history = 0;  // engineBoots before reboots[0]
  int amplification = 1;  // responses sent per request (paper §8)
  // Load-balancer VIP: additional backend engines answering behind this
  // device's addresses; the agent picks one engine per request (the NAT/
  // load-balancer inference extension, paper §9 future work).
  std::vector<snmp::EngineId> backend_engines;
  // Aliased IPv6 prefix: the device answers on EVERY address of its /64
  // (server farms with on-link /64 routes). The hitlist methodology must
  // detect and exclude these (paper §4.1.1, Gasser et al. [21]).
  bool answers_whole_v6_prefix = false;
  bool churns = false;    // CPE: address reassigned between epochs

  // Whether this device is part of the router infrastructure that topology
  // datasets (ITDK / RIPE Atlas) could observe.
  bool itdk_eligible = false;

  // --- stack personality (baselines) --------------------------------------
  IpIdPolicy ipid_policy = IpIdPolicy::kSharedCounter;
  std::uint8_t initial_ttl = 255;
  bool tcp_open = false;
  // Speedtrap: IPv6 fragment-ID counter behaves like ipid_policy.

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
  std::vector<AutonomousSystem> ases;
  std::vector<Device> devices;

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

  // Rebuilds the IP -> device maps from the interface lists (last writer
  // wins on a shared address), sized up front from the interface counts,
  // and records whether every assigned address has exactly one holder,
  // which lets rebind_churning_devices patch the maps instead of
  // rebuilding them. Must be called after construction or any address
  // mutation made outside rebind_churning_devices.
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

  net::AddressMap<DeviceIndex> address_map_;
  // /64s on which one device answers every interface identifier.
  std::unordered_map<std::uint64_t, DeviceIndex> aliased_v6_prefixes_;
  // Set by reindex(): no address is held by two interfaces.
  bool unique_holders_ = false;
};

}  // namespace snmpv3fp::topo
