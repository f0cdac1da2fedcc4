// End-to-end measurement pipeline: the library's one-call entry point.
//
// Builds (or takes) a simulated world, runs the paper's full methodology —
// two IPv4 scans, two IPv6 scans over the hitlist, joining, the ten-stage
// filter pipeline, combined alias resolution, dual-stack merging, router
// tagging against the synthetic topology datasets, and vendor
// fingerprinting — and returns every intermediate product the analyses and
// benches need.
#pragma once

#include "core/alias.hpp"
#include "core/analytics.hpp"
#include "core/filters.hpp"
#include "core/join.hpp"
#include "obs/obs.hpp"
#include "scan/aliased_prefix.hpp"
#include "scan/campaign.hpp"
#include "store/record_store.hpp"
#include "topo/datasets.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp::core {

struct PipelineOptions {
  topo::WorldConfig world = topo::WorldConfig::full_internet();
  FilterOptions filter;
  AliasOptions alias;
  topo::DatasetOptions datasets;
  double v4_rate_pps = 5000.0;   // paper §3.2
  double v6_rate_pps = 20000.0;  // paper §3.2
  util::VTime v4_scan_gap = 6 * util::kDay;  // Apr 16-20 vs 22-27
  util::VTime v6_scan_gap = 1 * util::kDay;  // Apr 13 vs 14
  bool scan_ipv6 = true;
  // Pre-scan the hitlist's /64s with random interface identifiers and
  // exclude aliased prefixes (the hitlist-service preprocessing the paper
  // relies on, §4.1.1).
  bool exclude_aliased_prefixes = true;
  std::uint64_t seed = 20210413;
  // Execution-only knobs: how many threads drive the sharded scan and the
  // chunked analysis stages, and how many shards each scan is cut into.
  // `parallel.threads` never changes any output bit; `scan_shards` is part
  // of the experiment configuration (it selects per-shard RNG streams).
  util::ParallelOptions parallel;
  std::size_t scan_shards = scan::kDefaultScanShards;
  // Execution-only observability: attach a RunObserver to collect spans,
  // metrics and per-shard progress for a RunReport (core/report.hpp).
  // Enabled or not, PipelineResult is bit-identical (tests/test_obs.cpp).
  obs::ObsOptions obs;
  // Fault tolerance (scan/checkpoint.hpp, scan/pacer.hpp). With
  // `checkpoint_dir` set, each campaign persists resumable progress to
  // <checkpoint_dir>/campaign_v6.json / campaign_v4.json — at the boundary
  // between its two scans always, plus every `checkpoint_every_n_targets`
  // probes per shard — and a rerun with identical options resumes from the
  // files bit-identically. `pacer` enables adaptive rate backoff (an
  // experiment-configuration knob: it moves probe send times).
  scan::PacerConfig pacer;
  std::string checkpoint_dir;
  std::size_t checkpoint_every_n_targets = 0;
  // Wire fast path (src/wire): template-stamped probes and the single-pass
  // REPORT scanner with full-codec fallback. Execution-only knob —
  // PipelineResult is bit-identical on or off at any thread count
  // (tests/test_wire.cpp).
  bool wire_fast_path = true;
  // Record stores (store/record_store.hpp). Without `store.dir` every
  // scan's store is RAM-only. With it, each campaign spills its scan
  // records to <store.dir>/v4 and /v6
  // stores whose resident RAM is bounded by `store.max_resident_bytes`;
  // joining external-sorts and merge-joins the stores through streaming
  // cursors while the filter funnel consumes the joined blocks
  // (core/overlap.hpp). PipelineResult is bit-identical either way
  // (tests/test_store.cpp).
  store::StoreOptions store;
  // Delivery fabric shared by both campaigns and (seed aside) the hitlist
  // prescan. The default is the loss-free fixed-default fabric the
  // pipeline always used — every historical output bit is preserved —
  // while equality tests dial rtt/loss knobs to the deterministic subset
  // the loopback reflector mirrors.
  sim::FabricConfig fabric;
  // Real-socket campaigns (net/batched_udp.hpp): when set, the pipeline
  // starts one sim::LoopbackReflector serving the world model over a
  // loopback UDP socket, points EngineConfig::sim_peer at it, and both
  // campaigns probe through per-shard BatchedUdpEngines — the full
  // methodology through actual kernel sockets. With EngineClock::kVirtual
  // and a fabric restricted to the deterministic subset (zero loss,
  // min_rtt == max_rtt matching the reflector's), the PipelineResult is
  // bit-identical to the sim-fabric run (tests/test_net_engine.cpp). If
  // the reflector's socket cannot open (sandboxed CI), the campaigns come
  // back empty with CampaignPair::net_error set — a skip, not a crash.
  std::optional<net::EngineConfig> net_engine;
  // Reflector RTT when `net_engine` is set; must equal the fabric's fixed
  // rtt for equality runs.
  util::VTime net_rtt = 20 * util::kMillisecond;
};

struct PipelineResult {
  topo::World world;  // ground truth (address state: final epoch)
  net::AsTable as_table;
  // Never set: a killed pipeline leaves its checkpoint files behind and a
  // rerun with the same options resumes from them. Still declared only
  // because perfbench/workload.cpp reads it; it goes with the next
  // benchmark change.
  bool interrupted = false;

  // Third-party-style datasets, exported before any scan ran.
  topo::RouterDataset itdk_v4;
  topo::RouterDataset itdk_v6;
  topo::RouterDataset atlas;
  std::vector<net::IpAddress> hitlist_v6;  // aliased /64s already excluded
  scan::AliasedPrefixResult aliased_prefixes;
  AddressSet router_addresses;  // ITDK + Atlas union (paper §6.1)

  // Scan campaigns.
  scan::CampaignPair v4_campaign;
  scan::CampaignPair v6_campaign;

  // Joined (pre-filter) and filtered records per family.
  std::vector<JoinedRecord> v4_joined;  // raw join, for Figures 4-8/19
  std::vector<JoinedRecord> v6_joined;
  std::vector<JoinedRecord> v4_records;  // post-filter
  std::vector<JoinedRecord> v6_records;
  JoinStats v4_join_stats, v6_join_stats;
  FilterReport v4_report, v6_report;

  // Alias resolution over both families (dual-stack merge included).
  AliasResolution resolution;
  std::vector<DeviceRecord> devices;

  // Convenience lookups.
  AddressSet responsive_v4() const;
  std::size_t router_device_count() const;
};

PipelineResult run_full_pipeline(const PipelineOptions& options = {});

// Variant for callers that already built a world (tests, ablations).
PipelineResult run_full_pipeline(topo::World world,
                                 const PipelineOptions& options);

// Variant over any WorldModel (topo/world_model.hpp): campaigns and the
// hitlist prescan read devices through the model's lazy view, so a
// procedural world never materializes per-device state beyond its
// responder cache. The dataset exports and PipelineResult::world come
// from materialize() snapshots (pre- and post-churn respectively) — fine
// for the equivalence tests this overload serves, but census-scale sweeps
// should drive scan::run_two_scan_campaign directly instead. A procedural
// world restricted to static scenario layers produces a bit-identical
// PipelineResult to run_full_pipeline(model.materialize(), options)
// (tests/test_worlds.cpp).
PipelineResult run_full_pipeline(topo::WorldModel& model,
                                 const PipelineOptions& options);

}  // namespace snmpv3fp::core
