// Live status surface: an atomically rewritten status.json.
//
// The campaign registers one status slot per scan shard; each shard
// updates its slot every N targets from the probe loop. The board
// serializes every slot (progress, response rate, pacer state, resident
// store bytes, an ETA computed from the pacer's effective rate) to JSON
// and publishes it with the tmp+rename idiom, throttled to at most one
// file write per `min_write_interval_ms` of wall time so a fast campaign
// does not turn into an fsync benchmark. `census_report --watch` polls
// the file and renders it with render_status_dashboard().
//
// Like every telemetry surface this is execution-only: slot updates read
// shard-local deterministic values but the board never feeds anything
// back into the pipeline, and the file contents (wall-time fields, write
// coalescing) are explicitly not part of the determinism contract.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/timeline.hpp"
#include "util/vclock.hpp"

namespace snmpv3fp::obs {

class JsonValue;

struct StatusConfig {
  std::string path;                  // "" = status surface disabled
  std::size_t every_n_targets = 1024;  // shard update cadence
  double min_write_interval_ms = 100.0;  // file rewrite throttle
};

// One shard's slot. `eta_seconds()` divides the remaining targets by the
// pacer's current effective rate — exactly the number an operator wants
// when the adaptive pacer has backed off below the configured rate.
struct ShardStatusRow {
  std::string stage;
  std::uint32_t shard = 0;
  std::uint64_t targets_total = 0;
  // The shard's progress, the same sample a timeline tick records (its
  // `t` stays unused here).
  TimelinePoint point;
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

class StatusBoard;

// Shard-bound updater. Default-constructed = no-op; cheap to copy.
class StatusHandle {
 public:
  StatusHandle() = default;

  bool enabled() const { return board_ != nullptr; }
  // Update cadence for the probe loop's modulo check (>= 1 when enabled).
  std::size_t every_n_targets() const { return every_; }

  // Overwrites this shard's slot (stage/shard/targets_total are fixed at
  // registration; the row's other fields come from `row`).
  void update(const ShardStatusRow& row);

 private:
  friend class StatusBoard;
  StatusBoard* board_ = nullptr;
  std::size_t slot_ = 0;
  std::size_t every_ = 0;
};

class StatusBoard {
 public:
  StatusBoard() = default;
  StatusBoard(const StatusBoard&) = delete;
  StatusBoard& operator=(const StatusBoard&) = delete;

  // Single-threaded setup; must run before slots are handed out.
  void configure(StatusConfig config);

  bool enabled() const { return !config_.path.empty(); }
  const StatusConfig& config() const { return config_; }

  // Registers a shard slot. Call from the orchestrating thread.
  StatusHandle add_shard(std::string stage, std::size_t shard,
                         std::uint64_t targets_total);

  // Marks every slot of `stage` complete and forces a file write.
  void mark_stage_complete(std::string_view stage);

  std::vector<ShardStatusRow> snapshot() const;
  std::string to_json() const;

  // Unthrottled atomic write (also used at campaign exit). Returns false
  // when disabled or the write failed.
  bool write_now();

  std::uint64_t writes() const {
    return writes_.load(std::memory_order_relaxed);
  }

 private:
  friend class StatusHandle;

  void update_slot(std::size_t slot, const ShardStatusRow& row);
  void maybe_write_locked();  // throttled; caller holds mutex_

  StatusConfig config_;
  std::chrono::steady_clock::time_point epoch_{};
  mutable std::mutex mutex_;
  std::vector<ShardStatusRow> rows_;
  double last_write_ms_ = -1e18;
  std::atomic<std::uint64_t> writes_{0};
};

// Renders a parsed status.json as a fixed-width ASCII dashboard (one row
// per shard plus a totals line). Library function so tests can cover the
// rendering that `census_report --watch` refreshes.
std::string render_status_dashboard(const JsonValue& status);

}  // namespace snmpv3fp::obs
