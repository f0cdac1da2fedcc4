// Unified RunReport: one run's observability + accounting in one place.
//
// Aggregates what the pipeline already measures (Table 1 filter funnels,
// campaign response rates and cross-scan consistency, fabric drop-cause
// counters, alias-resolution summary) with what the observability layer
// collected (stage spans, metrics, per-shard scan progress), and
// serializes the whole thing to JSON (machine diffing across runs/PRs)
// and to the util/table ASCII format (humans).
//
// The report is derived OUTSIDE PipelineResult on purpose: results stay
// bit-identical whether or not anyone observes the run.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/obs.hpp"

namespace snmpv3fp::core {

struct RunReport {
  // Run configuration echo.
  std::uint64_t seed = 0;
  std::size_t threads = 0;
  std::size_t scan_shards = 0;

  struct CampaignReport {
    std::string family;  // "ipv4" / "ipv6"
    std::size_t targets = 0;      // per scan
    std::size_t responsive1 = 0, responsive2 = 0;
    double response_rate1 = 0.0, response_rate2 = 0.0;
    // Fraction of scan-1 responders that also answered scan 2 (the
    // cross-scan consistency the two-scan methodology depends on).
    double cross_scan_consistency = 0.0;
    // Robustness accounting across both scans: responses that reached the
    // prober but failed SNMPv3 decode (hostile/corrupted bytes), and
    // adaptive-pacer backoff events (zero unless PacerConfig::adaptive).
    std::size_t undecodable_responses = 0;
    std::size_t pacer_backoffs = 0;
    // Probe validation across both scans (scan/record.hpp): REPORTs whose
    // echoed ids name no sent probe, REPORTs from an address that is not
    // the named probe's target, and send-ring overruns. All zero on a
    // clean run.
    std::size_t unverified_responses = 0;
    std::size_t off_target_responses = 0;
    std::size_t send_ring_overruns = 0;
    sim::FabricStats fabric;
    // Kernel I/O and drop-cause accounting for net-engine campaigns
    // (net/batched_udp.hpp): syscall batching counters plus the send/recv
    // error taxonomy (pressure, refusals, truncation, bad frames). All
    // zeros for fabric campaigns; the JSON always carries the object, the
    // ASCII table appears only when datagrams actually hit the wire.
    net::NetIoStats net_io;
  };
  std::vector<CampaignReport> campaigns;

  struct Funnel {
    std::string family;
    std::size_t input = 0;
    std::array<std::size_t, kFilterStageCount> dropped{};
    std::size_t output = 0;
  };
  std::vector<Funnel> funnels;  // Table 1 accounting, per family

  struct AliasSummary {
    std::size_t sets = 0;
    std::size_t non_singleton_sets = 0;
    std::size_t ips_in_non_singletons = 0;
    std::size_t dual_stack_sets = 0;
  };
  AliasSummary alias;

  // From the observer (empty when the run was unobserved).
  std::vector<obs::SpanRecord> spans;
  std::vector<obs::ShardProgress> shard_progress;
  obs::MetricsSnapshot metrics;
  // Sampled time series (empty unless the run configured a Timeline).
  obs::TimelineSnapshot time_series;

  std::string to_json() const;
  std::string to_table() const;  // util/table ASCII rendering
};

// Builds the report from a finished run. `observer` may be null — the
// accounting sections still fill in; spans/metrics stay empty.
RunReport build_run_report(const PipelineResult& result,
                           const PipelineOptions& options,
                           const obs::RunObserver* observer);

}  // namespace snmpv3fp::core
