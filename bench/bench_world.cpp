// bench_world: procedural-world census sweeps — flat RSS vs address count
// (ROADMAP "Procedural billion-address worlds").
//
// Runs two-scan spec-mode campaigns over ProceduralConfig::census worlds of
// growing prefix size (1M -> 134M addresses in the full run) and records,
// per sweep, in BENCH_world.json:
//   targets_per_sec   probes pushed through the generator+fabric per wall
//                     second (both scans)
//   peak_rss_kb /     peak RSS during the sweep and its delta over the
//   rss_delta_kb      pre-sweep baseline — the O(responders) claim: the
//                     delta must NOT scale with the address count
//   responders        devices that answered scan 1
//   cache_*           lazy-device cache traffic (hits/misses/evictions)
//
// Usage: bench_world [--quick] [--gate]
//   --quick  two small sweeps (1M, 4M) — what scripts/check.sh runs
//   --gate   enforce the flat-memory assertion: RSS delta of the largest
//            sweep < 2x max(delta of the smallest, 24 MiB floor); exit
//            non-zero on violation or on JSON schema drift
//
// Peak RSS comes from /proc/self/status VmHWM, reset per phase by writing
// "5" to /proc/self/clear_refs (Linux-only; elsewhere rows carry
// cumulative peaks, flagged by meta.rss_reset = 0, and the gate is
// skipped). Sweeps run smallest first so freed-but-retained heap from an
// earlier phase can never mask a later phase's true demand.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"
#include "scan/campaign.hpp"
#include "topo/procedural.hpp"

using namespace snmpv3fp;

namespace {

// Parses one "Key:  <n> kB" line out of /proc/self/status.
std::size_t read_status_kb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0)
      return static_cast<std::size_t>(
          std::strtoull(line.c_str() + std::strlen(key), nullptr, 10));
  }
  return 0;
}

// Resets VmHWM to the current RSS; false when unsupported.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear.is_open()) return false;
  clear << "5";
  clear.flush();
  return clear.good();
}

struct SweepResult {
  std::uint64_t targets = 0;  // addresses per scan
  double wall_ms = 0;
  double targets_per_sec = 0;
  std::size_t peak_rss_kb = 0;
  std::size_t rss_delta_kb = 0;
  std::uint64_t responders = 0;
  topo::WorldCacheStats cache;
};

SweepResult run_sweep(std::uint64_t addresses) {
  SweepResult out;
  const auto config = topo::ProceduralConfig::census(addresses);
  const topo::ProceduralWorld world(config);
  // The ProceduralWorld itself is O(regions); everything the campaign
  // allocates is inside the measured window.
  reset_peak_rss();
  const std::size_t baseline_kb = read_status_kb("VmRSS:");

  scan::CampaignOptions options;
  options.seed = 20210416;
  // Virtual-time rate: it never limits wall speed, but it DOES size the
  // prober's send ring (rate x sent_horizon slots per shard) — the
  // constant working set the flat-RSS gate measures. 50 kpps keeps that
  // ring (~70k 16-byte slots) well under the gate floor so even the
  // smallest sweep measures the plateau, not the ramp.
  options.rate_pps = 50000.0;
  scan::TargetSpec spec;
  for (const auto& region : config.regions) spec.ranges.push_back(region.v4);
  options.target_spec = spec;
  out.targets = spec.total();

  benchx::WallTimer timer;
  topo::ProceduralWorld sweep_world(config);
  const auto pair = scan::run_two_scan_campaign(sweep_world, options);
  out.wall_ms = timer.elapsed_ms();

  out.peak_rss_kb = read_status_kb("VmHWM:");
  out.rss_delta_kb =
      out.peak_rss_kb > baseline_kb ? out.peak_rss_kb - baseline_kb : 0;
  out.targets_per_sec =
      static_cast<double>(2 * out.targets) / (out.wall_ms / 1000.0);
  out.responders = pair.scan1.responsive();
  out.cache = pair.responder_cache;
  return out;
}

// Fails closed on drift: scripts/check.sh relies on this exit code.
bool schema_ok(const std::string& json) {
  const auto parsed = obs::JsonValue::parse(json);
  if (!parsed || !parsed->is_object()) return false;
  const auto* meta = parsed->find("meta");
  if (!meta || !meta->is_object() || !meta->find("schema") ||
      !meta->find("rss_reset") || !meta->find("gate"))
    return false;
  const auto* rows = parsed->find("rows");
  if (!rows || !rows->is_array() || rows->items().empty()) return false;
  static constexpr const char* kKeys[] = {
      "targets",       "wall_ms",      "targets_per_sec", "peak_rss_kb",
      "rss_delta_kb",  "responders",   "cache_hits",      "cache_misses",
      "cache_evictions", "cache_hit_rate"};
  for (const auto& row : rows->items()) {
    if (!row.is_object()) return false;
    const auto* kind = row.find("kind");
    if (!kind || kind->as_string() != "census_sweep") return false;
    for (const char* key : kKeys)
      if (!row.find(key)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }

  benchx::print_header(
      "world", "Procedural census sweeps: flat RSS vs address count");

  const bool rss_reset = reset_peak_rss();
  if (!rss_reset)
    std::printf("note: peak-RSS reset unavailable; reporting cumulative "
                "VmHWM and skipping the gate\n\n");

  benchx::JsonRows rows;
  benchx::stamp_run_metadata(rows, /*seed=*/20210416, /*threads=*/0,
                             /*scan_shards=*/scan::kDefaultScanShards);
  rows.meta("rss_reset", std::int64_t{rss_reset});
  rows.meta("quick", std::int64_t{quick});
  rows.meta("gate", std::int64_t{gate});

  // Smallest first (see the peak-RSS note up top). The full run's largest
  // sweep is the ISSUE's 100M+ census: 2^27 = 134,217,728 addresses.
  const std::vector<std::uint64_t> counts =
      quick ? std::vector<std::uint64_t>{1ull << 20, 1ull << 22}
            : std::vector<std::uint64_t>{1ull << 20, 1ull << 24, 1ull << 27};

  util::TablePrinter table({"Targets", "Wall s", "Targets/s", "RSS delta",
                            "Responders", "Cache hit%"});
  std::vector<SweepResult> results;
  for (const std::uint64_t n : counts) {
    const auto r = run_sweep(n);
    results.push_back(r);
    table.add_row({util::fmt_count(r.targets),
                   util::fmt_double(r.wall_ms / 1000.0, 1),
                   util::fmt_count(static_cast<std::uint64_t>(
                       r.targets_per_sec)),
                   util::fmt_count(r.rss_delta_kb) + " kB",
                   util::fmt_count(r.responders),
                   util::fmt_double(100.0 * r.cache.hit_rate(), 1)});
    rows.begin_row()
        .field("kind", "census_sweep")
        .field("targets", static_cast<std::int64_t>(r.targets))
        .field("wall_ms", r.wall_ms)
        .field("targets_per_sec", r.targets_per_sec)
        .field("peak_rss_kb", static_cast<std::int64_t>(r.peak_rss_kb))
        .field("rss_delta_kb", static_cast<std::int64_t>(r.rss_delta_kb))
        .field("responders", static_cast<std::int64_t>(r.responders))
        .field("cache_hits", static_cast<std::int64_t>(r.cache.hits))
        .field("cache_misses", static_cast<std::int64_t>(r.cache.misses))
        .field("cache_evictions",
               static_cast<std::int64_t>(r.cache.evictions))
        .field("cache_hit_rate", r.cache.hit_rate());
  }
  std::printf("%s\n", table.render().c_str());

  // Flat-memory assertion: the largest sweep covers 4x-128x the address
  // space of the smallest but must stay within 2x of its RSS delta (with
  // a 24 MiB floor so allocator noise on tiny sweeps can't flake the
  // ratio). O(responders), not O(addresses).
  const std::size_t floor_kb = 24 * 1024;
  const std::size_t small_kb =
      results.front().rss_delta_kb > floor_kb ? results.front().rss_delta_kb
                                              : floor_kb;
  const std::size_t large_kb = results.back().rss_delta_kb;
  const bool flat = large_kb < 2 * small_kb;
  std::printf("flat-memory check: delta@%s = %s kB vs 2 x max(delta@%s, 24 "
              "MiB) = %s kB -> %s\n",
              util::fmt_count(results.back().targets).c_str(),
              util::fmt_count(large_kb).c_str(),
              util::fmt_count(results.front().targets).c_str(),
              util::fmt_count(2 * small_kb).c_str(), flat ? "OK" : "FAIL");
  rows.meta("flat_memory_ok", std::int64_t{flat});

  const std::string json = rows.render();
  if (!schema_ok(json)) {
    std::fprintf(stderr, "FAIL: BENCH_world.json failed its schema check\n");
    return 1;
  }
  rows.write("BENCH_world.json");
  std::printf("Wrote BENCH_world.json\n");
  if (gate && rss_reset && !flat) {
    std::fprintf(stderr,
                 "FAIL: RSS delta grew with address count (gate violated)\n");
    return 1;
  }
  return 0;
}
