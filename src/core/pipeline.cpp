#include "core/pipeline.hpp"

#include <algorithm>
#include <string>

#include "core/overlap.hpp"
#include "obs/log.hpp"
#include "sim/reflector.hpp"

namespace snmpv3fp::core {

AddressSet PipelineResult::responsive_v4() const {
  AddressSet set;
  set.reserve(v4_joined.size());
  for (const auto& record : v4_joined) set.insert(record.address);
  return set;
}

std::size_t PipelineResult::router_device_count() const {
  std::size_t count = 0;
  for (const auto& device : devices) count += device.is_router;
  return count;
}

namespace {

// The pipeline body, parameterized over the scan substrate. Campaigns and
// the hitlist prescan run against `model` (lazy worlds derive devices on
// demand); the third-party-style datasets and the hitlist export read
// `ground_truth`, a materialized pre-churn snapshot of the same world —
// exactly the role the by-value World played before the model layer.
// Leaves PipelineResult::world unset; each public wrapper fills it with
// its own final-epoch world.
PipelineResult run_pipeline_over_model(topo::WorldModel& model,
                                       const topo::World& ground_truth,
                                       const PipelineOptions& options) {
  PipelineResult result;

  // Root scope: every span/metric below hangs off "pipeline".
  const obs::ObsOptions obs =
      options.obs.scope.empty() && options.obs.enabled()
          ? options.obs.sub("pipeline")
          : options.obs;
  obs::Span run_span(obs.trace(),
                     obs.scope.empty() ? std::string("pipeline") : obs.scope);
  obs::log_info("pipeline started",
                {{"seed", options.seed},
                 {"scan_shards", options.scan_shards},
                 {"threads", options.parallel.resolved_threads()}});

  // Datasets are snapshots of the pre-scan epoch, like the March 2021 ITDK
  // against April 2021 scans.
  {
    obs::Span span(obs.trace(), obs.scoped("datasets"));
    result.as_table = topo::build_as_table(ground_truth);
    result.itdk_v4 = topo::export_itdk_v4(ground_truth, options.datasets);
    result.itdk_v6 = topo::export_itdk_v6(ground_truth, options.datasets);
    result.atlas = topo::export_atlas(ground_truth, options.datasets);
    result.hitlist_v6 = topo::export_hitlist_v6(ground_truth, options.seed);
  }
  if (options.exclude_aliased_prefixes && !result.hitlist_v6.empty()) {
    obs::Span span(obs.trace(), obs.scoped("hitlist_prescan"));
    sim::FabricConfig prescan_config = options.fabric;
    prescan_config.seed = options.seed ^ 0xa11a5ed;
    sim::Fabric prescan(model, prescan_config);
    result.aliased_prefixes = scan::detect_aliased_prefixes(
        prescan, {net::Ipv4(198, 51, 100, 7), 54320}, result.hitlist_v6);
    result.hitlist_v6 =
        scan::filter_aliased(result.hitlist_v6, result.aliased_prefixes);
    span.set_virtual_duration(prescan.now());
  }
  for (const auto* dataset :
       {&result.itdk_v4, &result.itdk_v6, &result.atlas})
    result.router_addresses.insert(dataset->addresses.begin(),
                                   dataset->addresses.end());

  // Real-socket mode: one loopback reflector serves both campaigns (the
  // SimFrame header carries each probe's logical family, so v4 and v6
  // targets share the v4 wire). It must outlive every shard engine's
  // linger drain, i.e. both campaigns. It runs one worker per campaign
  // thread that can be sending at once, so no shard waits on another
  // shard's answers; each engine lingers only until its own probes are
  // answered, which is also what keeps the workers off the model while
  // the campaign churns it between scans.
  std::unique_ptr<sim::LoopbackReflector> reflector;
  std::optional<net::EngineConfig> engine_config = options.net_engine;
  if (engine_config.has_value()) {
    sim::ReflectorConfig reflector_config;
    reflector_config.rtt = options.net_rtt;
    reflector_config.seed = options.seed ^ 0x5eaf1ec7;
    const std::size_t workers =
        std::min(options.parallel.resolved_threads(), options.scan_shards);
    auto started =
        sim::LoopbackReflector::start(model, reflector_config, workers);
    if (!started.ok()) {
      // No sockets here (sandboxed CI): surface the reason on both
      // campaigns and return the pre-scan products.
      result.v4_campaign.net_error = started.error();
      result.v6_campaign.net_error = started.error();
      obs::log_warn("net engine unavailable, pipeline returning empty scans",
                    {{"error", started.error()}});
      return result;
    }
    reflector = std::move(started).value();
    engine_config->sim_peer = reflector->endpoint();
  }

  // IPv6 campaign first (paper: Apr 13-14), over the hitlist.
  if (options.scan_ipv6) {
    obs::Span span(obs.trace(), obs.scoped("campaign.v6"));
    scan::CampaignOptions v6;
    v6.family = net::Family::kIpv6;
    v6.targets = result.hitlist_v6;
    v6.first_scan_start = 0;
    v6.scan_gap = options.v6_scan_gap;
    v6.rate_pps = options.v6_rate_pps;
    v6.seed = options.seed + 1;
    v6.shards = options.scan_shards;
    v6.parallel = options.parallel;
    v6.obs = obs.sub("v6");
    v6.pacer = options.pacer;
    v6.wire_fast_path = options.wire_fast_path;
    v6.fabric = options.fabric;
    v6.net_engine = engine_config;
    if (!options.checkpoint_dir.empty()) {
      v6.checkpoint_path = options.checkpoint_dir + "/campaign_v6.json";
      v6.checkpoint_every_n_targets = options.checkpoint_every_n_targets;
    }
    if (!options.store.dir.empty()) {
      v6.store = options.store;
      v6.store.dir = options.store.dir + "/v6";
    }
    result.v6_campaign = scan::run_two_scan_campaign(model, v6);
    if (!result.v6_campaign.net_error.empty()) {
      result.v4_campaign.net_error = result.v6_campaign.net_error;
      return result;
    }
    span.set_virtual_duration(result.v6_campaign.scan2.end_time -
                              result.v6_campaign.scan1.start_time);
  }

  // IPv4 campaign (paper: Apr 16-20 and 22-27).
  {
    obs::Span span(obs.trace(), obs.scoped("campaign.v4"));
    scan::CampaignOptions v4;
    v4.family = net::Family::kIpv4;
    v4.first_scan_start = 3 * util::kDay;
    v4.scan_gap = options.v4_scan_gap;
    v4.rate_pps = options.v4_rate_pps;
    v4.seed = options.seed + 2;
    v4.shards = options.scan_shards;
    v4.parallel = options.parallel;
    v4.obs = obs.sub("v4");
    v4.pacer = options.pacer;
    v4.wire_fast_path = options.wire_fast_path;
    v4.fabric = options.fabric;
    v4.net_engine = engine_config;
    if (!options.checkpoint_dir.empty()) {
      v4.checkpoint_path = options.checkpoint_dir + "/campaign_v4.json";
      v4.checkpoint_every_n_targets = options.checkpoint_every_n_targets;
    }
    if (!options.store.dir.empty()) {
      v4.store = options.store;
      v4.store.dir = options.store.dir + "/v4";
    }
    result.v4_campaign = scan::run_two_scan_campaign(model, v4);
    if (!result.v4_campaign.net_error.empty()) return result;
    span.set_virtual_duration(result.v4_campaign.scan2.end_time -
                              result.v4_campaign.scan1.start_time);
  }
  if (reflector != nullptr) {
    // Done with the wire; the log shows how the workers split the load.
    reflector->stop();
    if (obs::Logger::global().enabled(obs::LogLevel::kInfo)) {
      const auto workers = reflector->worker_stats();
      std::string frames;
      for (const auto& worker : workers)
        frames += (frames.empty() ? "" : "/") + std::to_string(worker.frames);
      obs::log_info("loopback reflector stopped",
                    {{"workers", workers.size()}, {"frames", frames}});
    }
  }

  // Join + filter. Two execution shapes, one bit-identical output, picked
  // from where the records live: when both scans' stores spill to disk the
  // streaming join overlaps the funnel's verdict pass (core/overlap.hpp);
  // resident stores — and the fallback on store damage — go through
  // join_scans' resident merge join and apply_columnar.
  const FilterPipeline pipeline(options.filter);
  const auto join_filter_family =
      [&](const scan::CampaignPair& campaign, JoinStats& stats,
          std::vector<JoinedRecord>& joined, std::vector<JoinedRecord>& records,
          FilterReport& report, const obs::ObsOptions& family_obs) {
        if (stores_spill(campaign.scan1, campaign.scan2)) {
          obs::Span span(obs.trace(), family_obs.scoped("join_filter"));
          auto outcome = join_filter_overlapped(campaign.scan1, campaign.scan2,
                                                pipeline, options.parallel,
                                                family_obs);
          if (outcome.ok) {
            if (family_obs.enabled())
              family_obs.counter("input").add(outcome.report.input);
            stats = outcome.stats;
            joined = std::move(outcome.joined);
            records = std::move(outcome.survivors);
            report = outcome.report;
            return;
          }
          // Store damage mid-stream: fall through to the materializing
          // join, which fails soft on damaged blocks.
          obs::log_warn("overlapped join+filter failed, falling back",
                        {{"first", campaign.scan1.label},
                         {"second", campaign.scan2.label}});
        }
        {
          obs::Span span(obs.trace(), family_obs.scoped("join"));
          joined = join_scans(campaign.scan1, campaign.scan2, &stats,
                              options.parallel);
        }
        report = pipeline.apply_columnar(joined, records, options.parallel,
                                         family_obs);
      };
  join_filter_family(result.v4_campaign, result.v4_join_stats,
                     result.v4_joined, result.v4_records, result.v4_report,
                     obs.sub("v4"));
  join_filter_family(result.v6_campaign, result.v6_join_stats,
                     result.v6_joined, result.v6_records, result.v6_report,
                     obs.sub("v6"));

  // Both families resolve together (dual-stack sets); the multi-span form
  // reads the two survivor vectors in place instead of concatenating.
  const std::span<const JoinedRecord> alias_parts[] = {result.v4_records,
                                                       result.v6_records};
  result.resolution = resolve_aliases(
      std::span<const std::span<const JoinedRecord>>(alias_parts),
      options.alias, options.parallel, obs);
  {
    obs::Span span(obs.trace(), obs.scoped("annotate"));
    result.devices = annotate_devices(result.resolution, result.as_table,
                                      result.router_addresses);
  }

  return result;
}

}  // namespace

PipelineResult run_full_pipeline(const PipelineOptions& options) {
  return run_full_pipeline(topo::generate_world(options.world), options);
}

PipelineResult run_full_pipeline(topo::World world,
                                 const PipelineOptions& options) {
  topo::MaterializedWorldModel model(world);
  PipelineResult result = run_pipeline_over_model(model, world, options);
  // Ground truth doubles as the scan substrate here, so after the
  // campaigns it already sits at the final epoch — exactly what the
  // historical by-value overload returned.
  result.world = std::move(world);
  return result;
}

PipelineResult run_full_pipeline(topo::WorldModel& model,
                                 const PipelineOptions& options) {
  // Snapshot the pre-churn epoch for the dataset exports, then let the
  // campaigns drive (and churn) the model itself; the returned world is a
  // fresh final-epoch materialization.
  topo::World ground_truth = model.materialize();
  PipelineResult result = run_pipeline_over_model(model, ground_truth, options);
  result.world = model.materialize();
  return result;
}

}  // namespace snmpv3fp::core
