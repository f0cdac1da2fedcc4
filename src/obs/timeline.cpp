#include "obs/timeline.hpp"

#include <algorithm>

#include "obs/fileio.hpp"
#include "obs/json.hpp"
#include "obs/status.hpp"

namespace snmpv3fp::obs {

namespace {

// True for the one caller that moves `due` past `now_us`: losers see the
// advanced deadline and leave.
bool claim(std::atomic<std::int64_t>& due, std::int64_t now_us,
           std::int64_t interval_us) {
  std::int64_t expected = due.load(std::memory_order_relaxed);
  return now_us >= expected &&
         due.compare_exchange_strong(expected, now_us + interval_us,
                                     std::memory_order_relaxed);
}

std::int64_t to_us(double ms) {
  return static_cast<std::int64_t>(ms * 1000.0);
}

}  // namespace

void Timeline::configure(const TelemetryOptions& options,
                         const MetricsRegistry* registry) {
  options_ = options;
  configured_ = true;
  if (options_.flight.ring_capacity == 0) options_.flight.ring_capacity = 1;
  registry_ = registry;
  epoch_ = std::chrono::steady_clock::now();
  next_wall_due_us_.store(to_us(options_.timeline.sample_every_wall_ms),
                          std::memory_order_relaxed);
}

std::int64_t Timeline::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TrackHandle Timeline::track(std::string stage, std::size_t shard,
                            std::uint64_t targets_total) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<std::uint32_t>(shard);
  const auto found =
      std::find_if(tracks_.begin(), tracks_.end(), [&](const Track& track) {
        return track.status.stage == stage && track.status.shard == id;
      });
  Track& track = found != tracks_.end() ? *found : tracks_.emplace_back();
  {
    std::lock_guard<std::mutex> track_lock(track.mutex);
    track.status.stage = std::move(stage);
    track.status.shard = id;
    track.status.targets_total = targets_total;
    track.status.complete = false;
  }
  TrackHandle out;
  out.timeline_ = this;
  out.track_ = &track;
  out.virtual_every_ = options_.timeline.sample_every_virtual;
  // First sample only once a full interval boundary is crossed — a tick
  // before `sample_every_virtual` elapsed is not a sample point.
  out.next_virtual_ = options_.timeline.sample_every_virtual;
  out.stride_armed_ = (options_.timeline.sample_every_wall_ms > 0 &&
                       registry_ != nullptr) ||
                      !options_.status.path.empty();
  out.flight_armed_ = configured_;
  return out;
}

void TrackHandle::sample(util::VTime virtual_now, const TimelinePoint& values,
                         bool stride_end) {
  if (virtual_every_ > 0 && virtual_now >= next_virtual_) {
    // One point per boundary crossing: round down to the interval boundary
    // so the sample time depends only on the virtual clock, then arm the
    // next boundary. A clock jump over several intervals emits one point.
    const util::VTime boundary = virtual_now - virtual_now % virtual_every_;
    next_virtual_ = boundary + virtual_every_;
    TimelinePoint point = values;
    point.t = boundary;
    timeline_->append_point(*track_, point);
  }
  if (stride_end) {
    countdown_ = kWallCheckStride;
    timeline_->on_stride(*track_, virtual_now, values);
  }
}

void TrackHandle::complete(util::VTime virtual_now,
                           const TimelinePoint& values) {
  if (stride_armed_)
    timeline_->refresh_status(*track_, virtual_now, values, true);
}

void TrackHandle::set_progress(std::size_t targets, std::size_t responses,
                               double wall_ms) {
  if (track_ == nullptr) return;
  std::lock_guard<std::mutex> lock(track_->mutex);
  track_->progress = ShardProgress{track_->status.stage, track_->status.shard,
                                   targets, responses, wall_ms};
}

void Timeline::append_point(Track& track, const TimelinePoint& point) {
  std::lock_guard<std::mutex> lock(track.mutex);
  if (track.points.size() >= kMaxPoints) {
    dropped_points_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  track.points.push_back(point);
}

void Timeline::on_stride(Track& track, util::VTime virtual_now,
                         const TimelinePoint& values) {
  refresh_status(track, virtual_now, values, false);
  const double every_ms = options_.timeline.sample_every_wall_ms;
  if (every_ms <= 0 || registry_ == nullptr) return;
  const std::int64_t now = now_us();
  if (!claim(next_wall_due_us_, now, to_us(every_ms))) return;
  // Snapshot outside the timeline lock — the registry has its own.
  MetricsSnapshot metrics = registry_->snapshot();
  std::lock_guard<std::mutex> lock(mutex_);
  if (wall_samples_.size() >= kMaxPoints) {
    dropped_points_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  wall_samples_.push_back(
      {static_cast<double>(now) / 1000.0, std::move(metrics)});
}

void Timeline::refresh_status(Track& track, util::VTime virtual_now,
                              const TimelinePoint& values, bool complete) {
  if (options_.status.path.empty()) return;
  {
    std::lock_guard<std::mutex> lock(track.mutex);
    track.status.point = values;
    track.status.virtual_now = virtual_now;
    track.status.complete = complete;
  }
  if (claim(next_status_due_us_, now_us(), to_us(kStatusWriteIntervalMs)))
    write_status();
}

void Timeline::record(Track& track, FlightEventKind kind,
                      util::VTime virtual_time, std::int64_t value,
                      std::string_view detail) {
  const std::size_t capacity = options_.flight.ring_capacity;
  {
    std::lock_guard<std::mutex> lock(track.mutex);
    FlightEvent event{kind, track.status.stage, track.status.shard,
                      virtual_time, static_cast<double>(now_us()) / 1000.0,
                      value, std::string(detail), track.next_seq++};
    if (track.ring.size() < capacity) {
      track.ring.push_back(std::move(event));
    } else {
      track.ring[event.seq % capacity] = std::move(event);
      flight_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (kind == FlightEventKind::kUndecodable ||
      kind == FlightEventKind::kWireFallback) {
    const std::uint64_t faults =
        faults_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::size_t surge = options_.flight.fault_surge_threshold;
    if (surge > 0 && faults % surge == 0) dump_flight("fault_surge");
  }
}

TimelineSnapshot Timeline::snapshot() const {
  TimelineSnapshot out;
  const TimelineConfig& config = options_.timeline;
  out.sample_every_virtual = config.sample_every_virtual;
  out.sample_every_wall_ms = config.sample_every_wall_ms;
  out.dropped_points = dropped_points_.load(std::memory_order_relaxed);
  if (!config.enabled()) return out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.series.reserve(tracks_.size());
  for (const auto& track : tracks_) {
    std::lock_guard<std::mutex> track_lock(track.mutex);
    out.series.push_back(
        {track.status.stage, track.status.shard, track.points});
  }
  std::sort(out.series.begin(), out.series.end(),
            [](const VirtualSeries& a, const VirtualSeries& b) {
              if (a.stage != b.stage) return a.stage < b.stage;
              return a.shard < b.shard;
            });
  out.wall = wall_samples_;
  return out;
}

std::vector<ShardProgress> Timeline::shard_progress() const {
  std::vector<ShardProgress> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& track : tracks_) {
    std::lock_guard<std::mutex> track_lock(track.mutex);
    if (track.progress.has_value()) out.push_back(*track.progress);
  }
  return out;
}

std::vector<FlightEvent> Timeline::events() const {
  std::vector<FlightEvent> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& track : tracks_) {
    std::lock_guard<std::mutex> track_lock(track.mutex);
    out.insert(out.end(), track.ring.begin(), track.ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              if (a.virtual_time != b.virtual_time)
                return a.virtual_time < b.virtual_time;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.seq < b.seq;
            });
  return out;
}

bool Timeline::dump_flight(std::string_view reason) {
  const std::string& path = options_.flight.dump_path;
  if (path.empty()) return false;
  // Shard workers dump concurrently (checkpoint boundaries, fault surges);
  // the tmp-then-rename pair must not interleave on the shared tmp name.
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (!write_file_atomic(path, render_flight_json(
                                    events(), reason,
                                    options_.flight.ring_capacity,
                                    flight_dropped())))
    return false;
  flight_dumps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Timeline::mark_stage_complete(std::string_view stage) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& track : tracks_) {
      std::lock_guard<std::mutex> track_lock(track.mutex);
      TrackStatus& row = track.status;
      if (row.stage != stage) continue;
      row.complete = true;
      row.point.targets_sent =
          std::max(row.point.targets_sent, row.targets_total);
    }
  }
  write_status();
}

bool Timeline::write_status() {
  const std::string& path = options_.status.path;
  if (path.empty()) return false;
  std::lock_guard<std::mutex> lock(write_mutex_);
  std::vector<TrackStatus> rows;
  {
    std::lock_guard<std::mutex> tracks_lock(mutex_);
    for (const auto& track : tracks_) {
      std::lock_guard<std::mutex> track_lock(track.mutex);
      rows.push_back(track.status);
    }
  }
  const double wall_ms = static_cast<double>(now_us()) / 1000.0;
  if (!write_file_atomic(path, render_status_json(rows, wall_ms)))
    return false;
  status_writes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::string TimelineSnapshot::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.kv("virtual_interval_s", util::to_seconds(sample_every_virtual));
  json.kv("wall_interval_ms", sample_every_wall_ms);
  json.kv("dropped_points", dropped_points);
  json.key("virtual").begin_array();
  for (const auto& s : series) {
    json.begin_object();
    json.kv("stage", s.stage);
    json.kv("shard", static_cast<std::uint64_t>(s.shard));
    json.key("points").begin_array();
    for (const auto& p : s.points) {
      json.begin_object();
      json.kv("t_s", util::to_seconds(p.t));
      json.kv("sent", p.targets_sent);
      json.kv("responses", p.responses);
      json.kv("undecodable", p.undecodable);
      json.kv("backoffs", p.backoffs);
      json.kv("rate_pps", p.pacer_rate_pps);
      json.kv("resident_bytes", p.store_resident_bytes);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("wall").begin_array();
  for (const auto& sample : wall) {
    json.begin_object();
    json.kv("wall_ms", sample.wall_ms);
    json.key("metrics").raw(sample.metrics.to_json());
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace snmpv3fp::obs
