// Timeline: the registry of per-(stage, shard) telemetry tracks.
//
// Every scan shard of an observed run gets one track, registered from the
// orchestrating thread before the shard starts. The track is the shard's
// only telemetry record, and every live surface is a view of it:
//
//  * VIRTUAL samples — each scan shard ticks its track from the probe
//    loop; when the shard's virtual clock crosses an absolute multiple of
//    `sample_every_virtual` the track appends a point with the shard's own
//    deterministic channel values (targets sent, responses, pacer rate,
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
//  * STATUS — the track's latest progress sample, virtual time, target
//    count and completion flag, which status.json renders
//    (obs/status.hpp).
//
//  * FLIGHT ring — the shard's recent notable events (obs/flight.hpp),
//    dumped to JSON at checkpoints, fault surges and exit.
//
//  * PROGRESS — the shard's final (targets, responses, wall ms) row,
//    set by the campaign after the shard joined.
//
// The status row and the wall samples refresh on one countdown: a tick
// consults the wall clock only every kWallCheckStride probes.
//
// Lock discipline: each track has its own mutex, touched by the one thread
// driving that shard and by the readers that render a surface. The
// registry-wide structures are touched only on track registration
// (orchestrating thread), on wall samples and by readers. Lock order:
// file-write mutex, then registry mutex, then track mutex. Snapshots list
// tracks sorted by (stage, shard) so the report sequence is deterministic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "util/vclock.hpp"

namespace snmpv3fp::obs {

struct TimelineConfig {
  // Virtual-clock sampling interval; 0 disables virtual samples.
  util::VTime sample_every_virtual = 0;
  // Wall-clock sampling interval in ms; 0 disables wall samples.
  double sample_every_wall_ms = 0.0;

  bool enabled() const {
    return sample_every_virtual > 0 || sample_every_wall_ms > 0;
  }
};

struct StatusConfig {
  std::string path;  // "" = status surface disabled
};

// Live telemetry knobs, configured once on the RunObserver before a run
// (configure_telemetry). All default-off; all execution-only — none of
// them is hashed into the checkpoint config digest, and results are
// bit-identical with any combination enabled (tests/test_telemetry.cpp).
struct TelemetryOptions {
  TimelineConfig timeline;  // time-series sampling (virtual + wall clock)
  FlightConfig flight;      // per-shard event rings + atomic JSON dumps
  StatusConfig status;      // atomically rewritten status.json
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

// One track's status row, what status.json renders per shard.
// `eta_seconds()` divides the remaining targets by the pacer's current
// effective rate — exactly the number an operator wants when the adaptive
// pacer has backed off below the configured rate.
struct TrackStatus {
  std::string stage;
  std::uint32_t shard = 0;
  std::uint64_t targets_total = 0;
  TimelinePoint point;  // the latest refresh (its `t` stays unused)
  util::VTime virtual_now = 0;
  bool complete = false;

  double response_rate() const {
    return point.targets_sent == 0
               ? 0.0
               : static_cast<double>(point.responses) /
                     static_cast<double>(point.targets_sent);
  }
  double eta_seconds() const {
    if (complete || point.pacer_rate_pps <= 0.0) return 0.0;
    const std::uint64_t remaining = targets_total > point.targets_sent
                                        ? targets_total - point.targets_sent
                                        : 0;
    return static_cast<double>(remaining) / point.pacer_rate_pps;
  }
};

// One scan shard's final progress row (recorded by the campaign in shard
// order, after the parallel region joined — deterministic sequence).
struct ShardProgress {
  std::string stage;  // e.g. "v4.scan1"
  std::size_t shard = 0;
  std::size_t targets = 0;
  std::size_t responses = 0;
  double wall_ms = 0.0;
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

class TrackHandle;

class Timeline {
 public:
  // Memory bound: points kept per track, and wall samples kept in all.
  // Further samples are counted in `dropped_points`.
  static constexpr std::size_t kMaxPoints = 4096;
  // status.json is rewritten at most once per this much wall time, except
  // for the forced writes at stage completion and campaign exit.
  static constexpr double kStatusWriteIntervalMs = 100.0;

  Timeline() = default;
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  // Arms sampling, the flight rings and status.json. Must run before any
  // track is registered (single-threaded setup). `registry` is
  // snapshotted by wall samples; may be null when wall sampling is off.
  void configure(const TelemetryOptions& options,
                 const MetricsRegistry* registry);

  // Registers the (stage, shard) track, or re-registers an existing one,
  // and returns a bound handle. Call from the orchestrating thread,
  // before the parallel region, so registration never races.
  TrackHandle track(std::string stage, std::size_t shard,
                    std::uint64_t targets_total);

  // Sampled series; empty unless sampling is armed.
  TimelineSnapshot snapshot() const;
  // Final progress rows in registration order.
  std::vector<ShardProgress> shard_progress() const;

  // All flight rings merged, ordered by (virtual_time, shard, seq).
  std::vector<FlightEvent> events() const;
  // Atomically writes the flight dump (the merged events plus `reason`)
  // to the dump path. Returns false when no dump path is configured or
  // the write failed.
  bool dump_flight(std::string_view reason);
  std::uint64_t flight_dumps() const {
    return flight_dumps_.load(std::memory_order_relaxed);
  }
  std::uint64_t flight_dropped() const {  // events overwritten by ring wrap
    return flight_dropped_.load(std::memory_order_relaxed);
  }

  // Marks every track of `stage` complete and forces a status write.
  void mark_stage_complete(std::string_view stage);
  // Unthrottled atomic status.json write. Returns false when the status
  // surface is disabled or the write failed.
  bool write_status();
  std::uint64_t status_writes() const {
    return status_writes_.load(std::memory_order_relaxed);
  }

 private:
  friend class TrackHandle;

  struct Track {
    mutable std::mutex mutex;
    TrackStatus status;  // stage, shard and the status-row fields
    std::vector<TimelinePoint> points;
    std::vector<FlightEvent> ring;  // grows to ring_capacity, then wraps
    std::uint64_t next_seq = 0;
    std::optional<ShardProgress> progress;
  };

  std::int64_t now_us() const;
  void append_point(Track& track, const TimelinePoint& point);
  void on_stride(Track& track, util::VTime virtual_now,
                 const TimelinePoint& values);
  void refresh_status(Track& track, util::VTime virtual_now,
                      const TimelinePoint& values, bool complete);
  void record(Track& track, FlightEventKind kind, util::VTime virtual_time,
              std::int64_t value, std::string_view detail);

  TelemetryOptions options_;
  bool configured_ = false;  // flight rings record once configured
  const MetricsRegistry* registry_ = nullptr;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  // Next wall sample and next throttled status write due, in µs since
  // epoch_ (each claimed by CAS).
  std::atomic<std::int64_t> next_wall_due_us_{0};
  std::atomic<std::int64_t> next_status_due_us_{0};
  std::atomic<std::uint64_t> dropped_points_{0};
  std::atomic<std::uint64_t> faults_{0};
  std::atomic<std::uint64_t> flight_dropped_{0};
  std::atomic<std::uint64_t> flight_dumps_{0};
  std::atomic<std::uint64_t> status_writes_{0};

  std::mutex write_mutex_;    // serializes file writes (shared tmp names)
  mutable std::mutex mutex_;  // guards tracks_ layout + wall_samples_
  std::deque<Track> tracks_;  // deque: stable addresses for handles
  std::vector<WallSample> wall_samples_;
};

// Shard-bound track handle. Default-constructed = permanent no-op (every
// armed flag is off), so hot loops carry one unconditionally; the prober
// tests enabled() once per probe. tick() is called once per probe: the
// virtual boundary test is handle-local and the wall clock is consulted
// only every kWallCheckStride ticks, keeping the armed-but-not-due cost to
// a couple of compares.
class TrackHandle {
 public:
  static constexpr std::uint32_t kWallCheckStride = 64;

  bool enabled() const { return track_ != nullptr; }

  // Samples when a virtual boundary is crossed or a wall-check stride
  // ends; `make_point` builds the channel values only then. Emits at most
  // one virtual point per boundary crossing, stamped with the boundary.
  template <typename MakePoint>
  void tick(util::VTime virtual_now, MakePoint&& make_point) {
    const bool virtual_due =
        virtual_every_ > 0 && virtual_now >= next_virtual_;
    const bool stride_end = stride_armed_ && --countdown_ == 0;
    if (virtual_due || stride_end)
      sample(virtual_now, make_point(), stride_end);
  }

  // The shard's final refresh: its status row turns complete.
  void complete(util::VTime virtual_now, const TimelinePoint& values);

  void record(FlightEventKind kind, util::VTime virtual_time,
              std::int64_t value, std::string_view detail = {}) {
    if (flight_armed_)
      timeline_->record(*track_, kind, virtual_time, value, detail);
  }

  void set_progress(std::size_t targets, std::size_t responses,
                    double wall_ms);

 private:
  friend class Timeline;

  void sample(util::VTime virtual_now, const TimelinePoint& values,
              bool stride_end);

  Timeline* timeline_ = nullptr;
  Timeline::Track* track_ = nullptr;
  util::VTime virtual_every_ = 0;
  util::VTime next_virtual_ = 0;
  bool stride_armed_ = false;  // wall samples or status refreshes
  bool flight_armed_ = false;
  std::uint32_t countdown_ = kWallCheckStride;
};

}  // namespace snmpv3fp::obs
