// Observability surface threaded through the pipeline.
//
// A RunObserver owns one run's trace, metrics registry and per-shard
// track registry (obs/timeline.hpp); ObsOptions is the cheap value handed
// down the call tree (observer pointer + dotted scope). Observability is
// EXECUTION-ONLY by contract: nothing behind an ObsOptions may touch an
// RNG, reorder work, or change a single output bit — `PipelineResult` is
// bit-identical with observation enabled, disabled, and at any thread
// count (tests/test_obs.cpp).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace snmpv3fp::obs {

class RunObserver {
 public:
  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  // The per-(stage, shard) track registry: time series, flight rings,
  // status rows and shard progress.
  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }

  // Arms sampling, the flight rings and status.json on the tracks. Call
  // once, before the run, from a single thread. Without this call every
  // live surface stays a no-op; the tracks still keep shard progress.
  void configure_telemetry(const TelemetryOptions& options) {
    timeline_.configure(options, &metrics_);
  }

  std::vector<ShardProgress> shard_progress() const {
    return timeline_.shard_progress();
  }

 private:
  Trace trace_;
  MetricsRegistry metrics_;
  Timeline timeline_;
};

// The per-shard telemetry bundle the campaign hands into the probe loop.
// Both members are cheap shard-bound handles whose default-constructed
// state is a permanent no-op, so the prober carries one unconditionally.
struct ShardTelemetry {
  TrackHandle track;
  Histogram rtt_ms;  // probe round-trip time (virtual clock, ms)
};

// Value handed through options structs. Copying is cheap (pointer +
// scope string); sub("x") extends the dotted scope for a child stage.
struct ObsOptions {
  RunObserver* observer = nullptr;
  std::string scope;

  bool enabled() const { return observer != nullptr; }
  Trace* trace() const {
    return observer == nullptr ? nullptr : &observer->trace();
  }

  ObsOptions sub(std::string_view name) const {
    ObsOptions child;
    child.observer = observer;
    child.scope = scoped(name);
    return child;
  }

  // "scope.name", or just "name" at the root.
  std::string scoped(std::string_view name) const {
    if (scope.empty()) return std::string(name);
    std::string out = scope;
    out.push_back('.');
    out += name;
    return out;
  }

  // No-op handles when disabled, so call sites stay unconditional.
  Counter counter(std::string_view name) const {
    return observer == nullptr ? Counter()
                               : observer->metrics().counter(scoped(name));
  }
  Gauge gauge(std::string_view name) const {
    return observer == nullptr ? Gauge()
                               : observer->metrics().gauge(scoped(name));
  }
  Histogram histogram(std::string_view name,
                      std::vector<double> bounds) const {
    return observer == nullptr
               ? Histogram()
               : observer->metrics().histogram(scoped(name),
                                               std::move(bounds));
  }
};

}  // namespace snmpv3fp::obs
