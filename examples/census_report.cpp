// Census report generator: the paper's https://snmpv3.io artifact — a
// regularly-regenerated, aggregated and anonymized summary of an SNMPv3
// measurement campaign, written as Markdown (stdout) plus CSV next to it.
//
// Usage: census_report [output_dir] [--report <path.json>]
//                      [--checkpoint-dir <dir> [--checkpoint-every <n>]]
//                      [--store-dir <dir> [--max-resident-mb <n>]]
//                      [--trace <path.json>]
//                      [--timeline-virtual <s>] [--timeline-wall-ms <ms>]
//                      [--flight <path.json> [--flight-ring <n>]
//                       [--fault-surge <n>]]
//                      [--status <path.json>]
//                      [--watch <status.json>]
//   output_dir        where census_report.md / vendor_share.csv land
//                     (default: current directory)
//   --report <path>   additionally run under the observability layer and
//                     write the unified RunReport (spans, metrics, fabric
//                     drop causes, filter funnel, time series) as JSON
//   --checkpoint-dir <dir>  checkpoint campaign progress to
//                     <dir>/campaign_v{4,6}.json; rerunning the same
//                     command after a kill resumes bit-identically
//   --checkpoint-every <n>  checkpoint every n targets per shard
//                     (default 0: only at the scan-1/scan-2 boundary)
//   --store-dir <dir>  spill scan records to memory-bounded stores under
//                     <dir>/v4 and <dir>/v6 instead of holding every
//                     record in RAM; output is bit-identical
//   --max-resident-mb <n>  resident-RAM budget per store in MiB
//                     (default 0: unbounded, spill files still written)
//   --trace <path>    write the run's spans + flight events in the Chrome
//                     trace event format (chrome://tracing / Perfetto)
//   --timeline-virtual <s>  sample deterministic per-shard time series
//                     every <s> simulated seconds (RunReport time_series)
//   --timeline-wall-ms <ms>  sample a full metrics snapshot every <ms> of
//                     wall time (non-deterministic, diagnostic)
//   --flight <path>   flight rings: each shard's track keeps its recent
//                     notable events, dumped atomically to <path> at
//                     checkpoints, fault surges and exit
//   --flight-ring <n> events kept per shard ring (default 256)
//   --fault-surge <n> extra dump every n decode faults (default 0: off)
//   --status <path>   atomically rewrite a live status.json from the
//                     shard tracks, at most every 100 ms of wall time
//   --watch <path>    do not run a campaign; poll <path> (a status.json
//                     another process is writing) and render a refreshing
//                     ASCII dashboard until it reports complete
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "obs/fileio.hpp"
#include "obs/json.hpp"
#include "obs/status.hpp"
#include "obs/trace_export.hpp"
#include "util/table.hpp"

using namespace snmpv3fp;

namespace {

// --watch: poll a status.json some other census_report is rewriting and
// redraw it in place. Exits when the file reports the campaign complete,
// or after ~10s without a readable file.
int watch_status(const std::string& path) {
  int missing_polls = 0;
  bool drew = false;
  while (true) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto parsed = obs::JsonValue::parse(buffer.str());
    if (in && parsed.has_value() && parsed->is_object()) {
      missing_polls = 0;
      // ANSI home+clear keeps the dashboard in place between redraws.
      std::cout << "\033[H\033[2J" << obs::render_status_dashboard(*parsed)
                << std::flush;
      drew = true;
      const auto* complete = parsed->find("complete");
      if (complete != nullptr && complete->as_bool()) return 0;
    } else if (++missing_polls > 20) {
      std::cerr << (drew ? "status file went away: " : "no status file at: ")
                << path << "\n";
      return drew ? 0 : 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path out_dir = ".";
  std::string report_path;
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 0;
  std::string store_dir;
  std::size_t max_resident_mb = 0;
  std::string trace_path;
  std::string watch_path;
  obs::TelemetryOptions telemetry;
  const auto usage = [] {
    std::cerr << "usage: census_report [output_dir] [--report <path.json>] "
                 "[--checkpoint-dir <dir> [--checkpoint-every <n>]] "
                 "[--store-dir <dir> [--max-resident-mb <n>]] "
                 "[--trace <path.json>] [--timeline-virtual <s>] "
                 "[--timeline-wall-ms <ms>] [--flight <path.json> "
                 "[--flight-ring <n>] [--fault-surge <n>]] "
                 "[--status <path.json>] "
                 "[--watch <status.json>]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report") == 0) {
      if (i + 1 >= argc) return usage();
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0) {
      if (i + 1 >= argc) return usage();
      checkpoint_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      if (i + 1 >= argc) return usage();
      checkpoint_every = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--store-dir") == 0) {
      if (i + 1 >= argc) return usage();
      store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--max-resident-mb") == 0) {
      if (i + 1 >= argc) return usage();
      max_resident_mb = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) return usage();
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--timeline-virtual") == 0) {
      if (i + 1 >= argc) return usage();
      telemetry.timeline.sample_every_virtual = static_cast<util::VTime>(
          std::atof(argv[++i]) * static_cast<double>(util::kSecond));
    } else if (std::strcmp(argv[i], "--timeline-wall-ms") == 0) {
      if (i + 1 >= argc) return usage();
      telemetry.timeline.sample_every_wall_ms = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--flight") == 0) {
      if (i + 1 >= argc) return usage();
      telemetry.flight.dump_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flight-ring") == 0) {
      if (i + 1 >= argc) return usage();
      telemetry.flight.ring_capacity =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--fault-surge") == 0) {
      if (i + 1 >= argc) return usage();
      telemetry.flight.fault_surge_threshold =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--status") == 0) {
      if (i + 1 >= argc) return usage();
      telemetry.status.path = argv[++i];
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      if (i + 1 >= argc) return usage();
      watch_path = argv[++i];
    } else {
      out_dir = argv[i];
    }
  }

  if (!watch_path.empty()) return watch_status(watch_path);

  const bool wants_telemetry = telemetry.timeline.enabled() ||
                               !telemetry.flight.dump_path.empty() ||
                               !telemetry.status.path.empty();
  obs::RunObserver observer;
  core::PipelineOptions options;
  options.world = topo::WorldConfig::tiny();
  // Execution-only: observing never changes result bits (test_obs.cpp,
  // test_telemetry.cpp).
  if (!report_path.empty() || !trace_path.empty() || wants_telemetry)
    options.obs.observer = &observer;
  if (wants_telemetry) observer.configure_telemetry(telemetry);
  if (!checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir, ec);
  }
  options.checkpoint_dir = checkpoint_dir;
  options.checkpoint_every_n_targets = checkpoint_every;
  options.store.dir = store_dir;
  options.store.max_resident_bytes = max_resident_mb * std::size_t{1} << 20;
  const auto r = core::run_full_pipeline(options);

  std::ostringstream md;
  md << "# SNMPv3 census report (simulated)\n\n";
  md << "Campaigns: 2x IPv4 (6-day gap), 2x IPv6 over the hitlist "
        "(1-day gap).\n\n";

  md << "## Scan overview\n\n";
  util::TablePrinter overview({"Measurement", "#IPs", "#Engine IDs"});
  overview.add_row({"IPv4 scan 1",
                    util::fmt_count(r.v4_campaign.scan1.responsive()),
                    util::fmt_count(r.v4_campaign.scan1.unique_engine_ids())});
  overview.add_row({"IPv4 scan 2",
                    util::fmt_count(r.v4_campaign.scan2.responsive()),
                    util::fmt_count(r.v4_campaign.scan2.unique_engine_ids())});
  overview.add_row({"IPv6 scan 1",
                    util::fmt_count(r.v6_campaign.scan1.responsive()),
                    util::fmt_count(r.v6_campaign.scan1.unique_engine_ids())});
  md << overview.render() << "\n";

  md << "## Filtering funnel (IPv4)\n\n";
  util::TablePrinter funnel({"Stage", "Removed"});
  for (std::size_t i = 0; i < core::kFilterStageCount; ++i)
    funnel.add_row(
        {std::string(core::to_string(static_cast<core::FilterStage>(i))),
         util::fmt_count(r.v4_report.dropped[i])});
  funnel.add_row({"survivors", util::fmt_count(r.v4_report.output)});
  md << funnel.render() << "\n";

  const auto breakdown = core::breakdown_by_stack(r.resolution);
  md << "## Alias resolution\n\n";
  md << "- alias sets: " << util::fmt_count(r.resolution.sets.size()) << "\n";
  md << "- non-singleton sets: "
     << util::fmt_count(r.resolution.non_singleton_count()) << " ("
     << util::fmt_double(r.resolution.mean_ips_per_non_singleton(), 1)
     << " IPs each)\n";
  md << "- dual-stack sets: " << util::fmt_count(breakdown.dual_sets)
     << "\n\n";

  md << "## Vendor market share (aggregated)\n\n";
  const auto popularity =
      core::vendor_popularity(r.devices, /*routers_only=*/false);
  std::size_t total = 0;
  for (const auto& entry : popularity) total += entry.total();
  util::TablePrinter vendors({"Vendor", "Devices", "Share"});
  util::CsvWriter csv({"vendor", "devices", "share"});
  for (std::size_t i = 0; i < popularity.size() && i < 10; ++i) {
    const double share = static_cast<double>(popularity[i].total()) /
                         static_cast<double>(total);
    vendors.add_row({popularity[i].vendor,
                     util::fmt_count(popularity[i].total()),
                     util::fmt_percent(share)});
    csv.add_row({popularity[i].vendor, std::to_string(popularity[i].total()),
                 util::fmt_double(share, 4)});
  }
  md << vendors.render() << "\n";

  md << "## Router uptime\n\n";
  const auto uptime =
      core::uptime_days(r.devices, /*routers_only=*/true, 3 * util::kDay);
  if (!uptime.empty()) {
    md << "- rebooted within 30 days: "
       << util::fmt_percent(uptime.fraction_at_most(30)) << "\n";
    md << "- running for over a year: "
       << util::fmt_percent(1.0 - uptime.fraction_at_most(365)) << "\n\n";
  }

  md << "_Per-network results are aggregated; no individual operator is\n"
        "identified (paper §3.3 ethics)._\n";

  // Write artifacts. An ofstream into a missing directory fails silently,
  // so make sure out_dir exists first.
  {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
  }
  const auto md_path = out_dir / "census_report.md";
  const auto csv_path = out_dir / "vendor_share.csv";
  std::ofstream(md_path) << md.str();
  std::ofstream(csv_path) << csv.render();
  std::cout << md.str();
  std::cout << "\nwrote " << md_path.string() << " and " << csv_path.string()
            << "\n";

  if (!report_path.empty()) {
    const auto report = core::build_run_report(r, options, &observer);
    if (!(std::ofstream(report_path) << report.to_json())) {
      std::cerr << "failed to write " << report_path << "\n";
      return 1;
    }
    std::cout << "wrote " << report_path << "\n";
  }
  if (!trace_path.empty()) {
    const std::string trace_json = obs::to_chrome_trace_json(
        observer.trace().snapshot(), observer.timeline().events());
    if (!obs::write_file_atomic(trace_path, trace_json)) {
      std::cerr << "failed to write " << trace_path << "\n";
      return 1;
    }
    std::cout << "wrote " << trace_path << "\n";
  }
  return 0;
}
