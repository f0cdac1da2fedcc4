// Flight events: the notable-event record of a shard's bounded ring.
//
// A census-scale campaign that dies mid-run should leave a diagnosable
// trail next to its checkpoint. Each shard's telemetry track
// (obs/timeline.hpp) keeps its recent notable events — wire-parse
// fallbacks, undecodable responses, pacer backoffs, store spills/evictions,
// checkpoint and scan boundaries — in a small ring that overwrites its
// oldest entry when full, so memory is bounded no matter how hostile the
// run. The rings are dumped atomically to JSON (a) whenever the campaign
// hits a checkpoint boundary, (b) when the fault counter crosses a surge
// threshold (a burst of undecodable or fallback events usually means the
// interesting part just happened), and (c) at campaign exit. A killed
// process leaves the dump of its last checkpoint.
//
// Events carry both clocks: virtual time orders them against the
// simulated experiment, wall ms against the operator's watch. Dump
// contents are diagnostic, not part of the determinism contract (wall
// times and ring overwrites differ run to run); the bit-identity
// contract only requires that recording changes no output.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/vclock.hpp"

namespace snmpv3fp::obs {

enum class FlightEventKind : std::uint8_t {
  kUndecodable,   // response bytes rejected by the decode path
  kWireFallback,  // fast parser bailed to the full codec
  kPacerBackoff,  // adaptive pacer cut its rate
  kStoreSpill,    // record store sealed a block to disk
  kStoreEvict,    // record store evicted a resident block
  kCheckpoint,    // campaign persisted a checkpoint boundary
  kScanBoundary,  // a scan pass started or finished
  kNote,          // free-form
};

std::string_view to_string(FlightEventKind kind);

struct FlightEvent {
  FlightEventKind kind = FlightEventKind::kNote;
  std::string stage;             // dotted scope of the emitting shard
  std::uint32_t shard = 0;
  util::VTime virtual_time = 0;  // 0 when the emitter has no sim clock
  double wall_ms = 0.0;          // since the recorder was configured
  std::int64_t value = 0;        // kind-specific magnitude
  std::string detail;            // short free-form context
  std::uint64_t seq = 0;         // per-track sequence (assigned on record)
};

struct FlightConfig {
  std::size_t ring_capacity = 256;  // events kept per shard ring
  std::string dump_path;            // "" = in-memory only, no dumps
  // Dump automatically every N fault events (kUndecodable + kWireFallback);
  // 0 disables surge dumps.
  std::size_t fault_surge_threshold = 0;
};

// The flight dump document: `events` (merged, in order) plus `reason`.
std::string render_flight_json(const std::vector<FlightEvent>& events,
                               std::string_view reason,
                               std::size_t ring_capacity,
                               std::uint64_t dropped);

}  // namespace snmpv3fp::obs
