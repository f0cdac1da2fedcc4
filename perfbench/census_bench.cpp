// census_bench: one repetition of one census-benchmark workload.
//
//   census_bench run   --workload W --seed N [--spill-dir D] [--sim-twin]
//   census_bench trace --workload W --seed N [--spill-dir D] --spans F
//
// `run` builds the workload's inputs (timed as set-up), makes the workload's
// one public call (timed as the pipeline), and prints one JSON line with the
// timings, peak RSS, the output digest and the counts the runner checks.
// `trace` rebuilds the workload from the per-layer public calls with a
// timer around each and prints the per-layer metrics (traced.cpp). The
// runner (run.py) starts a fresh process per repetition and aggregates.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "traced.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

int usage() {
  std::fprintf(stderr,
               "usage: census_bench run|trace --workload "
               "table1|census_sweep|table1_store|table1_loopback --seed N "
               "[--spill-dir D] [--sim-twin] [--spans F]\n");
  return 2;
}

void print_net_counts(const net::NetIoStats& io) {
  std::printf(",\"datagrams_sent\":%llu,\"net_errors\":%llu",
              static_cast<unsigned long long>(io.datagrams_sent),
              static_cast<unsigned long long>(io.send_errors + io.recv_errors +
                                              io.recv_bad_frame +
                                              io.recv_truncated));
}

int run_pipeline_workload(Workload workload, std::uint64_t seed,
                          const std::string& spill_dir, bool sim_twin) {
  const core::PipelineOptions options =
      pipeline_options(workload, seed, spill_dir, sim_twin);
  auto start = std::chrono::steady_clock::now();
  topo::World world = topo::generate_world(options.world);
  const double setup_s = seconds_since(start);

  start = std::chrono::steady_clock::now();
  const core::PipelineResult result =
      core::run_full_pipeline(std::move(world), options);
  const double pipeline_s = seconds_since(start);

  if (!result.v4_campaign.net_error.empty()) {
    std::fprintf(stderr, "net engine unavailable: %s\n",
                 result.v4_campaign.net_error.c_str());
    return 3;
  }
  const PipelineDigest digest = digest_pipeline(result);
  net::NetIoStats io = result.v4_campaign.net_io;
  io += result.v6_campaign.net_io;
  std::printf(
      "{\"setup_s\":%.12g,\"pipeline_s\":%.12g,\"peak_rss_mb\":%.3f,"
      "\"digest\":\"%s\",\"consistent\":%s,\"probes\":%llu,"
      "\"v4_joined\":%llu,\"v4_survivors\":%llu,\"v6_survivors\":%llu,"
      "\"alias_sets\":%llu,\"devices\":%llu",
      setup_s, pipeline_s, peak_rss_mb(), hex64(digest.digest).c_str(),
      digest.consistent ? "true" : "false",
      static_cast<unsigned long long>(digest.probes),
      static_cast<unsigned long long>(digest.v4_joined),
      static_cast<unsigned long long>(digest.v4_survivors),
      static_cast<unsigned long long>(digest.v6_survivors),
      static_cast<unsigned long long>(digest.alias_sets),
      static_cast<unsigned long long>(digest.devices));
  print_net_counts(io);
  std::printf("}\n");
  return 0;
}

int run_census(std::uint64_t seed) {
  const topo::ProceduralConfig config = census_world(seed);
  // One construction is O(regions), about a microsecond: time a fixed
  // number of them one by one and report the mean of the middle half, so
  // one preempted or cache-cold build does not move the set-up figure and
  // the clock's granularity does not quantize it.
  constexpr std::size_t kBuilds = 1000;
  std::vector<double> builds(kBuilds);
  std::uint64_t devices = 0;
  for (double& build_s : builds) {
    const auto start = std::chrono::steady_clock::now();
    const topo::ProceduralWorld scratch(config);
    devices += scratch.device_count();
    build_s = seconds_since(start);
  }
  std::sort(builds.begin(), builds.end());
  double middle_s = 0.0;
  for (std::size_t i = kBuilds / 4; i < kBuilds - kBuilds / 4; ++i)
    middle_s += builds[i];
  const double setup_s = middle_s / static_cast<double>(kBuilds / 2);
  topo::ProceduralWorld world(config);
  if (devices != kBuilds * world.device_count()) {
    std::fprintf(stderr, "ProceduralWorld construction is not deterministic\n");
    return 4;
  }

  const scan::CampaignOptions options = census_campaign(config, seed);
  const auto start = std::chrono::steady_clock::now();
  const scan::CampaignPair pair = scan::run_two_scan_campaign(world, options);
  const double pipeline_s = seconds_since(start);

  const CampaignDigest digest =
      digest_campaign(pair, options.target_spec->total());
  std::printf(
      "{\"setup_s\":%.12g,\"pipeline_s\":%.12g,\"peak_rss_mb\":%.3f,"
      "\"digest\":\"%s\",\"consistent\":%s,\"probes\":%llu,"
      "\"scan1_responsive\":%llu,\"scan2_responsive\":%llu",
      setup_s, pipeline_s, peak_rss_mb(), hex64(digest.digest).c_str(),
      digest.consistent ? "true" : "false",
      static_cast<unsigned long long>(digest.probes),
      static_cast<unsigned long long>(digest.scan1_responsive),
      static_cast<unsigned long long>(digest.scan2_responsive));
  print_net_counts(pair.net_io);
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::optional<Workload> workload;
  std::optional<std::uint64_t> seed;
  std::string spill_dir;
  std::string spans_path;
  bool sim_twin = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = parse_workload(argv[++i]);
      if (!workload) return usage();
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') return usage();
    } else if (arg == "--spill-dir" && has_value) {
      spill_dir = argv[++i];
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (arg == "--sim-twin") {
      sim_twin = true;
    } else {
      return usage();
    }
  }
  if (!workload || !seed) return usage();
  if (*workload == Workload::kTable1Store && spill_dir.empty()) return usage();

  if (mode == "run") {
    if (*workload == Workload::kCensusSweep) return run_census(*seed);
    return run_pipeline_workload(*workload, *seed, spill_dir, sim_twin);
  }
  if (mode == "trace") {
    if (spans_path.empty()) return usage();
    return run_traced(*workload, *seed, spill_dir, spans_path);
  }
  return usage();
}
