// Flight recorder: fixed-size per-shard ring buffers of notable events.
//
// A census-scale campaign that dies mid-run should leave a diagnosable
// trail next to its checkpoint. Each shard records its recent notable
// events — wire-parse fallbacks, undecodable responses, pacer backoffs,
// store spills/evictions, checkpoint boundaries — into a small ring that
// overwrites its oldest entry when full, so memory is bounded no matter
// how hostile the run. The recorder dumps every ring atomically to JSON
// (a) whenever the campaign hits a checkpoint boundary, (b) when the
// fault counter crosses a surge threshold (a burst of undecodable or
// fallback events usually means the interesting part just happened), and
// (c) at campaign exit. A killed process leaves the dump of its last
// checkpoint.
//
// Concurrency: rings live in a deque (stable addresses); new rings are
// created only from the orchestrating thread between parallel regions,
// and each handle caches its ring pointer, so the hot record() path takes
// only that ring's own mutex — shards never contend with each other.
//
// Events carry both clocks: virtual time orders them against the
// simulated experiment, wall ms against the operator's watch. Dump
// contents are diagnostic, not part of the determinism contract (wall
// times and ring overwrites differ run to run); the bit-identity
// contract only requires that recording changes no output.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
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
  std::uint64_t seq = 0;         // per-ring sequence (assigned on record)
};

struct FlightConfig {
  std::size_t ring_capacity = 256;  // events kept per shard ring
  std::string dump_path;            // "" = in-memory only, no dumps
  // Dump automatically every N fault events (kUndecodable + kWireFallback);
  // 0 disables surge dumps.
  std::size_t fault_surge_threshold = 0;
};

namespace detail {

struct FlightRing {
  std::string stage;
  std::uint32_t shard = 0;
  mutable std::mutex mutex;
  std::vector<FlightEvent> slots;  // grows to ring_capacity, then wraps
  std::uint64_t next_seq = 0;
};

}  // namespace detail

class FlightRecorder;

// Shard-bound emitter. Default-constructed = no-op; cheap to copy.
class FlightHandle {
 public:
  FlightHandle() = default;

  bool enabled() const { return recorder_ != nullptr; }
  void record(FlightEventKind kind, util::VTime virtual_time,
              std::int64_t value, std::string_view detail = {});

 private:
  friend class FlightRecorder;
  FlightRecorder* recorder_ = nullptr;
  detail::FlightRing* ring_ = nullptr;
};

class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Single-threaded setup; must run before handles are handed out.
  void configure(FlightConfig config);

  bool enabled() const { return configured_; }
  const FlightConfig& config() const { return config_; }

  // Creates a ring for (stage, shard) — or reuses one — and returns a
  // bound handle. Call from the orchestrating thread, never concurrently
  // with itself (record() from other shards is fine).
  FlightHandle handle(std::string stage, std::size_t shard);

  // All rings merged, ordered by (virtual_time, shard, seq).
  std::vector<FlightEvent> events() const;

  // Renders the merged events (plus `reason`) as a JSON document.
  std::string to_json(std::string_view reason) const;

  // Atomically writes to_json(reason) to config().dump_path. Returns
  // false when no dump path is configured or the write failed.
  bool dump(std::string_view reason);

  std::uint64_t dump_count() const {
    return dumps_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {  // events overwritten by ring wrap
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  friend class FlightHandle;

  void record(const FlightHandle& handle, FlightEventKind kind,
              util::VTime virtual_time, std::int64_t value,
              std::string_view note);

  FlightConfig config_;
  bool configured_ = false;
  std::chrono::steady_clock::time_point epoch_{};
  std::mutex dump_mutex_;     // serializes concurrent dumps (shared tmp file)
  mutable std::mutex mutex_;  // guards rings_ layout (creation/merge)
  std::deque<detail::FlightRing> rings_;
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> dumps_{0};
};

}  // namespace snmpv3fp::obs
