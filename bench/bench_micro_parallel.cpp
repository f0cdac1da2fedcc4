// Parallel-engine scaling bench: times the heavy pipeline stages — the
// sharded two-scan campaign, the join, the columnar filter funnel and
// alias resolution — across a 1/2/4/8 thread sweep, and reports per-stage
// speedup, scaling efficiency (speedup / threads) and record throughput.
// Results go to stdout and, machine-readable, to BENCH_parallel.json as
//   {meta: {...}, rows: [{stage, threads, wall_ms, speedup, efficiency,
//                         records, krecords_per_s}, ...]}.
//
// All stages are bit-identical across thread counts
// (tests/test_parallel.cpp, tests/test_columnar.cpp), so the timings
// compare identical work.
//
// Usage: bench_micro_parallel [--quick] [--gate] [--baseline=<path>]
// Exits non-zero when:
//   - the emitted JSON fails its own schema check (artifact drift), or,
//     under --gate (scripts/check.sh runs it so):
//   - the columnar filter's single-thread wall time is not >= 4x faster
//     than the recorded pre-columnar row filter's (the "filter" stage at
//     one thread in the --baseline artifact, default
//     bench/baselines/BENCH_parallel_before.json; that row filter no
//     longer exists, so its baseline rows only anchor this gate),
//   - the campaign's 8-thread speedup falls below 3x — enforced only when
//     the machine has >= 8 hardware threads (printed as SKIPPED
//     otherwise: a scaling claim measured on fewer cores is fiction),
//   - any stage's speedup at any swept thread count regresses below 70%
//     of the recorded baseline artifact's.
// Baseline-derived gates compare wall times against a full-world artifact,
// so they are skipped (with a note) under --quick and when the baseline
// file is absent.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "obs/json.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp {
namespace {

constexpr double kFilterColumnarMinSpeedup = 4.0;
constexpr double kScanMinSpeedupAt8 = 3.0;
constexpr double kBaselineRegressionMargin = 0.7;

scan::CampaignOptions campaign_options(std::size_t threads) {
  scan::CampaignOptions options;
  options.family = net::Family::kIpv4;
  options.rate_pps = 5000.0;
  options.seed = 20210416;
  options.parallel.threads = threads;
  return options;
}

// Fails closed on drift: scripts/check.sh relies on this exit code.
bool schema_ok(const std::string& json) {
  const auto parsed = obs::JsonValue::parse(json);
  if (!parsed || !parsed->is_object()) return false;
  const auto* meta = parsed->find("meta");
  if (!meta || !meta->is_object() || !meta->find("schema") ||
      !meta->find("build_flags") || !meta->find("hardware_threads"))
    return false;
  const auto* rows = parsed->find("rows");
  if (!rows || !rows->is_array() || rows->items().empty()) return false;
  std::set<std::string> stages;
  for (const auto& row : rows->items()) {
    if (!row.is_object()) return false;
    for (const char* key : {"stage", "threads", "wall_ms", "speedup",
                            "efficiency", "records", "krecords_per_s"})
      if (!row.find(key)) return false;
    stages.insert(std::string(row.find("stage")->as_string()));
  }
  // The four stages the scaling table reads must all be present.
  for (const char* stage : {"scan_campaign", "join", "filter_columnar", "alias"})
    if (!stages.count(stage)) return false;
  return true;
}

struct Sample {
  std::string stage;
  std::size_t threads = 0;
  double wall_ms = 0.0;
  double speedup = 0.0;
};

// Reads {stage, threads, speedup} rows out of a committed baseline
// artifact (a previous BENCH_parallel.json, possibly the pre-columnar
// schema without the efficiency fields).
std::vector<Sample> load_baseline(const std::string& path) {
  std::ifstream file(path);
  if (!file) return {};
  std::stringstream buffer;
  buffer << file.rdbuf();
  const auto parsed = obs::JsonValue::parse(buffer.str());
  if (!parsed) return {};
  const auto* rows = parsed->is_object() ? parsed->find("rows") : &*parsed;
  if (!rows || !rows->is_array()) return {};
  std::vector<Sample> samples;
  for (const auto& row : rows->items()) {
    if (!row.is_object()) continue;
    const auto* stage = row.find("stage");
    const auto* threads = row.find("threads");
    const auto* wall = row.find("wall_ms");
    const auto* speedup = row.find("speedup");
    if (!stage || !threads || !wall || !speedup) continue;
    Sample sample;
    sample.stage = std::string(stage->as_string());
    sample.threads = static_cast<std::size_t>(threads->as_number());
    sample.wall_ms = wall->as_number();
    sample.speedup = speedup->as_number();
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace
}  // namespace snmpv3fp

int main(int argc, char** argv) {
  using namespace snmpv3fp;
  bool quick = false;
  bool gate = false;
  std::string baseline_path = "bench/baselines/BENCH_parallel_before.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
    if (std::strncmp(argv[i], "--baseline=", 11) == 0)
      baseline_path = argv[i] + 11;
  }

  const std::size_t hardware_threads = std::thread::hardware_concurrency();
  benchx::print_header("micro_parallel",
                       "stage wall time vs thread count (identical outputs)");
  std::printf("  hardware threads: %zu\n\n", hardware_threads);

  const int repeats = quick ? 1 : 3;
  const auto base_world = topo::generate_world(
      quick ? topo::WorldConfig::tiny() : topo::WorldConfig::full_internet());

  // Fixed inputs for the analysis stages, produced once; the campaign is
  // deterministic in `threads`, so any thread count yields the same scans.
  topo::World campaign_world = base_world;
  const auto campaign =
      scan::run_two_scan_campaign(campaign_world, campaign_options(1));
  const auto joined = core::join_scans(campaign.scan1, campaign.scan2);
  const core::FilterPipeline pipeline;
  std::vector<core::JoinedRecord> filtered;
  pipeline.apply_columnar(joined, filtered);

  struct Stage {
    const char* name;
    std::size_t records;
    std::function<void(util::ParallelOptions)> run;
  };
  const std::vector<Stage> stages = {
      {"scan_campaign",
       campaign.scan1.targets_probed + campaign.scan2.targets_probed,
       [&](util::ParallelOptions parallel) {
         topo::World world = base_world;  // campaign mutates addresses
         auto options = campaign_options(parallel.threads);
         scan::run_two_scan_campaign(world, options);
       }},
      {"join", joined.size(),
       [&](util::ParallelOptions parallel) {
         core::join_scans(campaign.scan1, campaign.scan2, nullptr, parallel);
       }},
      {"filter_columnar", joined.size(),
       [&](util::ParallelOptions parallel) {
         std::vector<core::JoinedRecord> survivors;
         pipeline.apply_columnar(joined, survivors, parallel);
       }},
      {"alias", filtered.size(),
       [&](util::ParallelOptions parallel) {
         core::resolve_aliases(filtered, {}, parallel);
       }},
  };
  const std::size_t thread_sweep[] = {1, 2, 4, 8};

  benchx::JsonRows rows;
  benchx::stamp_run_metadata(rows, campaign_options(1).seed,
                             util::default_thread_count(),
                             scan::kDefaultScanShards);
  rows.meta("hardware_threads", static_cast<std::int64_t>(hardware_threads));
  rows.meta("quick", std::int64_t{quick});

  std::vector<Sample> measured;
  std::printf("  %-16s %8s %12s %9s %11s %14s\n", "stage", "threads",
              "wall_ms", "speedup", "efficiency", "krecords/s");
  for (const auto& stage : stages) {
    double sequential_ms = 0.0;
    for (const std::size_t threads : thread_sweep) {
      const double wall_ms = benchx::best_wall_ms(
          repeats, [&] { stage.run({.threads = threads}); });
      if (threads == 1) sequential_ms = wall_ms;
      const double speedup = wall_ms > 0.0 ? sequential_ms / wall_ms : 0.0;
      const double efficiency = speedup / static_cast<double>(threads);
      const double krecords_per_s =
          wall_ms > 0.0 ? static_cast<double>(stage.records) / wall_ms : 0.0;
      std::printf("  %-16s %8zu %12.2f %8.2fx %10.2f %14.1f\n", stage.name,
                  threads, wall_ms, speedup, efficiency, krecords_per_s);
      rows.begin_row()
          .field("stage", stage.name)
          .field("threads", static_cast<std::int64_t>(threads))
          .field("wall_ms", wall_ms)
          .field("speedup", speedup)
          .field("efficiency", efficiency)
          .field("records", static_cast<std::int64_t>(stage.records))
          .field("krecords_per_s", krecords_per_s);
      measured.push_back({stage.name, threads, wall_ms, speedup});
    }
  }

  const std::string json = rows.render();
  if (!schema_ok(json)) {
    std::fprintf(stderr,
                 "FAIL: BENCH_parallel.json failed its own schema check\n");
    return 1;
  }
  if (rows.write("BENCH_parallel.json"))
    std::printf("\n  wrote BENCH_parallel.json\n");

  if (!gate) return 0;

  // ---- gates (scripts/check.sh) ------------------------------------------
  const auto find = [&](const char* stage, std::size_t threads) -> Sample* {
    for (auto& sample : measured)
      if (sample.stage == stage && sample.threads == threads) return &sample;
    return nullptr;
  };
  bool ok = true;
  const auto baseline = quick ? std::vector<Sample>{}
                              : load_baseline(baseline_path);
  const auto baseline_note = quick ? "--quick world is not comparable"
                                   : "no baseline artifact";

  // Filter funnel vs the recorded pre-columnar row filter, single thread
  // (the ISSUE 6 acceptance bar: the baseline artifact was measured on
  // this pipeline before the columnar funnel landed, same world and
  // machine class as a full run).
  {
    const Sample* reference = nullptr;
    for (const auto& sample : baseline)
      if (sample.stage == "filter" && sample.threads == 1)
        reference = &sample;
    const Sample* columnar = find("filter_columnar", 1);
    if (reference == nullptr) {
      std::printf("  gate: filter-vs-baseline SKIPPED (%s: %s)\n",
                  baseline_note, baseline_path.c_str());
    } else {
      const double ratio = (columnar && columnar->wall_ms > 0.0)
                               ? reference->wall_ms / columnar->wall_ms
                               : 0.0;
      if (ratio < kFilterColumnarMinSpeedup) {
        std::fprintf(stderr,
                     "FAIL: columnar filter is %.2fx the pre-columnar "
                     "single-thread baseline (gate: >= %.1fx)\n",
                     ratio, kFilterColumnarMinSpeedup);
        ok = false;
      } else {
        std::printf(
            "  gate: columnar filter %.2fx the pre-columnar baseline "
            "(>= %.1fx) ok\n",
            ratio, kFilterColumnarMinSpeedup);
      }
    }
  }

  // Campaign scaling at 8 threads — only meaningful with 8 real cores.
  if (hardware_threads >= 8) {
    const Sample* scan8 = find("scan_campaign", 8);
    if (scan8 == nullptr || scan8->speedup < kScanMinSpeedupAt8) {
      std::fprintf(stderr,
                   "FAIL: scan_campaign speedup at 8 threads is %.2fx "
                   "(gate: >= %.1fx)\n",
                   scan8 ? scan8->speedup : 0.0, kScanMinSpeedupAt8);
      ok = false;
    } else {
      std::printf("  gate: scan_campaign %.2fx at 8 threads (>= %.1fx) ok\n",
                  scan8->speedup, kScanMinSpeedupAt8);
    }
  } else {
    std::printf(
        "  gate: scan_campaign 8-thread scaling SKIPPED (%zu hardware "
        "threads < 8)\n",
        hardware_threads);
  }

  // Scaling regression against the recorded baseline artifact.
  if (baseline.empty()) {
    std::printf("  gate: regression check SKIPPED (%s: %s)\n", baseline_note,
                baseline_path.c_str());
  } else {
    for (const auto& reference : baseline) {
      const Sample* current = find(reference.stage.c_str(), reference.threads);
      if (current == nullptr) continue;  // stage renamed/removed upstream
      if (current->speedup <
          reference.speedup * kBaselineRegressionMargin) {
        std::fprintf(stderr,
                     "FAIL: %s speedup at %zu threads regressed to %.2fx "
                     "(baseline %.2fx, margin %.0f%%)\n",
                     reference.stage.c_str(), reference.threads,
                     current->speedup, reference.speedup,
                     kBaselineRegressionMargin * 100.0);
        ok = false;
      }
    }
    if (ok)
      std::printf("  gate: no scaling regression vs %s\n",
                  baseline_path.c_str());
  }
  return ok ? 0 : 1;
}
