// Timeline: a lock-light per-shard time-series recorder.
//
// Long campaigns need in-flight visibility, but the project's invariant is
// that observability never perturbs results. The timeline therefore splits
// sampling into two kinds with different determinism guarantees:
//
//  * VIRTUAL samples — each scan shard ticks the timeline from its probe
//    loop; when the shard's virtual clock crosses an absolute multiple of
//    `sample_every_virtual` the recorder appends a point with the shard's
//    own deterministic channel values (targets sent, responses, pacer rate,
//    resident store bytes, ...). Sample times and values depend only on
//    (seed, config), never on wall time or thread interleaving, so the
//    merged series is bit-identical at any thread count (test_telemetry).
//
//  * WALL samples — whichever shard thread first notices that
//    `sample_every_wall_ms` elapsed claims the slot with a CAS and records
//    a full MetricsSnapshot of the registry ("every registered counter /
//    gauge / histogram"). These show real elapsed time and cross-shard
//    totals; their timing and values are explicitly NOT deterministic and
//    they never feed back into the pipeline.
//
// Lock discipline: each (stage, shard) track has its own mutex, touched
// only by the one thread driving that shard — uncontended in practice —
// and the registry-wide structures are touched only on track creation
// (orchestrating thread) and on rare wall samples. snapshot() merges
// tracks sorted by (stage, shard) so the report sequence is deterministic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/vclock.hpp"

namespace snmpv3fp::obs {

struct TimelineConfig {
  // Virtual-clock sampling interval; 0 disables virtual samples.
  util::VTime sample_every_virtual = 0;
  // Wall-clock sampling interval in ms; 0 disables wall samples.
  double sample_every_wall_ms = 0.0;
  // Caps keep a runaway configuration memory-bounded; once a track (or
  // the wall series) is full, further samples are counted as dropped.
  std::size_t max_points_per_track = 4096;
  std::size_t max_wall_samples = 4096;

  bool enabled() const {
    return sample_every_virtual > 0 || sample_every_wall_ms > 0;
  }
};

// The deterministic per-shard channel values a tick reports. Everything
// in here must be derived from shard-local simulation state only.
struct TimelinePoint {
  util::VTime t = 0;  // virtual boundary the sample was taken at
  std::uint64_t targets_sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t undecodable = 0;
  std::uint64_t backoffs = 0;
  double pacer_rate_pps = 0.0;
  std::int64_t store_resident_bytes = -1;  // -1: no shard store reported

  bool operator==(const TimelinePoint&) const = default;
};

struct VirtualSeries {
  std::string stage;  // dotted scope, e.g. "pipeline.v4.scan1"
  std::size_t shard = 0;
  std::vector<TimelinePoint> points;

  bool operator==(const VirtualSeries&) const = default;
};

struct WallSample {
  double wall_ms = 0.0;  // since the timeline was configured
  MetricsSnapshot metrics;
};

struct TimelineSnapshot {
  util::VTime sample_every_virtual = 0;
  double sample_every_wall_ms = 0.0;
  std::vector<VirtualSeries> series;  // sorted by (stage, shard)
  std::vector<WallSample> wall;
  std::uint64_t dropped_points = 0;

  bool empty() const { return series.empty() && wall.empty(); }
  // The "time_series" section of RunReport JSON (a JSON object).
  std::string to_json() const;
};

class Timeline {
 public:
  class Recorder;

  Timeline() = default;
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  // Must run before any recorder is handed out (single-threaded setup).
  // `registry` is snapshotted by wall samples; may be null when wall
  // sampling is disabled.
  void configure(TimelineConfig config, const MetricsRegistry* registry);

  bool enabled() const { return config_.enabled(); }
  const TimelineConfig& config() const { return config_; }

  // Creates (or reuses) the (stage, shard) track and returns a bound
  // recorder. Call from the orchestrating thread, before the parallel
  // region, so track creation never races. Returns a no-op recorder when
  // the timeline is disabled.
  Recorder recorder(std::string stage, std::size_t shard);

  TimelineSnapshot snapshot() const;

 private:
  struct Track {
    std::string stage;
    std::size_t shard = 0;
    mutable std::mutex mutex;
    std::vector<TimelinePoint> points;
  };

  void append_point(Track* track, const TimelinePoint& point);
  void maybe_wall_sample();

  TimelineConfig config_;
  const MetricsRegistry* registry_ = nullptr;
  std::chrono::steady_clock::time_point epoch_{};
  // Next wall sample due, in µs since epoch_ (claimed by CAS).
  std::atomic<std::int64_t> next_wall_due_us_{0};
  std::atomic<std::uint64_t> dropped_points_{0};

  mutable std::mutex mutex_;  // guards tracks_ layout + wall_samples_
  std::deque<Track> tracks_;  // deque: stable addresses for recorders
  std::vector<WallSample> wall_samples_;

  friend class Recorder;
};

// Shard-bound sampling handle. Default-constructed = permanent no-op, so
// hot loops carry one unconditionally and pay a null check when telemetry
// is off. tick() is called once per probe; the virtual boundary test is
// recorder-local and the wall clock is only consulted every
// kWallCheckStride ticks, keeping the armed-but-not-due cost to a couple
// of compares.
class Timeline::Recorder {
 public:
  static constexpr std::uint32_t kWallCheckStride = 64;

  Recorder() = default;

  bool enabled() const { return timeline_ != nullptr; }

  // Builds `point.t` from `virtual_now` rounded down to the interval
  // boundary; emits at most one point per boundary crossing.
  void tick(util::VTime virtual_now, const TimelinePoint& values) {
    if (timeline_ == nullptr) return;
    if (virtual_every_ > 0 && virtual_now >= next_virtual_)
      take_virtual(virtual_now, values);
    if (wall_armed_ && --wall_countdown_ == 0) {
      wall_countdown_ = kWallCheckStride;
      timeline_->maybe_wall_sample();
    }
  }

 private:
  friend class Timeline;

  void take_virtual(util::VTime virtual_now, const TimelinePoint& values);

  Timeline* timeline_ = nullptr;
  Timeline::Track* track_ = nullptr;
  util::VTime virtual_every_ = 0;
  util::VTime next_virtual_ = 0;
  bool wall_armed_ = false;
  std::uint32_t wall_countdown_ = kWallCheckStride;
};

}  // namespace snmpv3fp::obs
