// Scan campaign results.
//
// A ScanRecord is one responsive target of one campaign: the raw SNMPv3
// engine fields plus timing. The derived last-reboot time (receive time
// minus engine time, paper §2.3) is computed here once and reused by the
// filters and the alias resolver. A ScanResult keeps its records in one
// store::RecordStore — the only record container — and callers read them
// through its accessors.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/ip.hpp"
#include "snmp/engine_id.hpp"
#include "util/result.hpp"
#include "util/vclock.hpp"

namespace snmpv3fp::store {
class RecordStore;
}

namespace snmpv3fp::scan {

struct ScanRecord {
  net::IpAddress target;
  snmp::EngineId engine_id;          // may be empty (missing)
  std::uint32_t engine_boots = 0;
  std::uint32_t engine_time = 0;     // seconds since engine boot
  util::VTime send_time = 0;
  util::VTime receive_time = 0;      // first response
  std::size_t response_count = 0;    // >1 = duplicated/amplified
  std::size_t response_bytes = 0;    // size of the first response payload
  // Engines other than `engine_id` seen at this address within THIS scan
  // (load balancers / anycast VIPs rotate backends per request).
  std::vector<snmp::EngineId> extra_engines;

  // Derived: when the SNMP engine last rebooted, on the prober's clock.
  util::VTime last_reboot() const {
    return receive_time -
           static_cast<util::VTime>(engine_time) * util::kSecond;
  }
};

struct ScanResult {
  std::string label;
  util::VTime start_time = 0;
  util::VTime end_time = 0;
  std::size_t targets_probed = 0;
  std::size_t probe_bytes = 0;  // payload size of one probe
  // Robustness accounting: datagrams that reached the prober but failed
  // SNMPv3 decode (corrupted/hostile bytes), and adaptive-pacer backoff
  // events (scan/pacer.hpp). Both zero on a clean fixed-rate scan.
  std::size_t undecodable_responses = 0;
  std::size_t pacer_backoffs = 0;
  // Probe validation (scan/prober.hpp): decodable REPORTs whose echoed ids
  // name no probe this scan sent, and ones whose ids name a probe whose
  // target is not the responding address. Neither creates or touches a
  // record. Sends that overwrote a send-ring slot still inside the
  // prober's horizon (its capacity bounds every clean schedule, so this
  // stays 0). All three are zero on a clean scan.
  std::size_t unverified_responses = 0;
  std::size_t off_target_responses = 0;
  std::size_t send_ring_overruns = 0;
  // Responsive targets only, in the store's order: receive order straight
  // out of a prober, (send_time, target) order once a campaign has merged
  // its shards. Never null once a scan has run (a default-constructed or
  // aborted-before-start result has no store and reads as empty). The
  // store is RAM-only unless the campaign was given (or derived) a spill
  // directory; the accessors below read either kind.
  std::shared_ptr<store::RecordStore> store;

  std::size_t responsive() const;

  // Applies `fn` to every record in order; fails closed when a store
  // block is damaged.
  util::Status for_each_record(
      const std::function<void(const ScanRecord&)>& fn) const;

  // Copies all records into a vector (joins of resident stores, tests and
  // small-scale callers; a spilled census-scale result defeats the purpose).
  std::vector<ScanRecord> materialize_records() const;

  std::size_t unique_engine_ids() const;
};

}  // namespace snmpv3fp::scan
