// Robustness: fault-tolerant campaign machinery under adverse conditions.
//
// Three experiments over one mid-size world:
//   1. checkpoint/resume — overhead of checkpointing a campaign, size of
//      the checkpoint artifact, and the wall-time saved by resuming a
//      killed campaign instead of restarting it (results stay identical);
//   2. adaptive backoff — responsiveness with and without the pacer when
//      devices police inbound SNMP (device_rate_limit_pps);
//   3. hostile fabric — corruption-rate sweep: every corrupted response is
//      dropped at decode and accounted, never crashing the scan.
// Machine-readable rows land in BENCH_robustness.json.
#include <cstdio>

#include "common.hpp"
#include "scan/campaign.hpp"
#include "scan/checkpoint.hpp"
#include "topo/generator.hpp"

using namespace snmpv3fp;

namespace {

topo::WorldConfig bench_world() {
  topo::WorldConfig config = topo::WorldConfig::tiny();
  config.seed = 23;
  config.router_scale = 60.0;
  config.mega_scale = 60.0;
  config.device_scale = 600.0;
  config.tail_as_count = 40;
  return config;
}

scan::CampaignOptions base_options() {
  scan::CampaignOptions options;
  options.seed = 2026;
  options.shards = 8;
  return options;
}

scan::CampaignPair run_campaign(const scan::CampaignOptions& options) {
  topo::World world = topo::generate_world(bench_world());
  return scan::run_two_scan_campaign(world, options);
}

std::size_t file_size(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return 0;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fclose(file);
  return size < 0 ? 0 : static_cast<std::size_t>(size);
}

}  // namespace

int main() {
  benchx::print_header("Robustness",
                       "checkpoint/resume, adaptive backoff, hostile fabric");
  benchx::JsonRows rows;
  const auto base = base_options();
  benchx::stamp_run_metadata(rows, base.seed, 0, base.shards);

  // ---- 1. checkpoint/resume ----------------------------------------------
  benchx::WallTimer timer;
  const auto plain = run_campaign(base);
  const double plain_ms = timer.elapsed_ms();

  // Checkpoint frequency is a wall-time/recovery-granularity tradeoff:
  // every boundary serializes the whole shard store.
  const std::string path = "BENCH_robustness_ckpt.json.tmp-artifact";
  std::printf("\nCheckpoint overhead vs frequency (plain: %.1f ms):\n",
              plain_ms);
  for (const std::size_t every : {4096u, 1024u, 256u}) {
    scan::remove_checkpoint(path);
    auto options = base;
    options.checkpoint_path = path;
    options.checkpoint_every_n_targets = every;
    timer.reset();
    run_campaign(options);
    const double ms = timer.elapsed_ms();
    std::printf("  every=%-5zu %8.1f ms (%+.0f%%)\n", every, ms,
                plain_ms > 0.0 ? 100.0 * (ms - plain_ms) / plain_ms : 0.0);
    rows.begin_row()
        .field("experiment", "checkpoint_overhead")
        .field("every_n_targets", static_cast<std::int64_t>(every))
        .field("wall_ms", ms)
        .field("plain_ms", plain_ms);
  }

  scan::remove_checkpoint(path);
  auto checkpointed_options = base;
  checkpointed_options.checkpoint_path = path;
  checkpointed_options.checkpoint_every_n_targets = 256;
  timer.reset();
  const auto checkpointed = run_campaign(checkpointed_options);
  const double checkpointed_ms = timer.elapsed_ms();

  // Kill after one boundary per shard, capture the artifact, then resume.
  auto killed_options = checkpointed_options;
  killed_options.abort_after_checkpoints = 1;
  timer.reset();
  const auto killed = run_campaign(killed_options);
  const double killed_ms = timer.elapsed_ms();
  const std::size_t checkpoint_bytes = file_size(path);

  timer.reset();
  const auto resumed = run_campaign(checkpointed_options);
  const double resume_ms = timer.elapsed_ms();

  const bool identical =
      resumed.scan1.responsive() == plain.scan1.responsive() &&
      resumed.scan2.responsive() == plain.scan2.responsive() &&
      resumed.scan1.end_time == plain.scan1.end_time &&
      resumed.scan2.end_time == plain.scan2.end_time;

  std::printf("\nCheckpoint/resume (%zu targets, %zu shards):\n",
              plain.scan1.targets_probed, base.shards);
  std::printf("  plain campaign        %8.1f ms\n", plain_ms);
  std::printf("  checkpointed campaign %8.1f ms (overhead %+.1f%%)\n",
              checkpointed_ms,
              plain_ms > 0.0
                  ? 100.0 * (checkpointed_ms - plain_ms) / plain_ms
                  : 0.0);
  std::printf("  killed-at-boundary    %8.1f ms (artifact %zu bytes)\n",
              killed_ms, checkpoint_bytes);
  std::printf("  resume-to-completion  %8.1f ms\n", resume_ms);
  std::printf("  resumed == uninterrupted: %s\n", identical ? "yes" : "NO");

  rows.begin_row()
      .field("experiment", "checkpoint_resume")
      .field("plain_ms", plain_ms)
      .field("checkpointed_ms", checkpointed_ms)
      .field("killed_ms", killed_ms)
      .field("resume_ms", resume_ms)
      .field("checkpoint_bytes", static_cast<std::int64_t>(checkpoint_bytes))
      .field("interrupted", static_cast<std::int64_t>(killed.interrupted))
      .field("resume_identical", static_cast<std::int64_t>(identical));

  // ---- 2. adaptive backoff under rate policing ---------------------------
  std::printf("\nAdaptive backoff vs device-side rate policing:\n");
  for (const bool adaptive : {false, true}) {
    auto options = base_options();
    options.fabric.device_rate_limit_pps = 1;
    options.pacer.adaptive = adaptive;
    options.pacer.window_probes = 32;
    options.pacer.min_rate_pps = 50.0;
    const auto pair = run_campaign(options);
    const std::size_t backoffs =
        pair.scan1.pacer_backoffs + pair.scan2.pacer_backoffs;
    std::printf(
        "  pacer=%-3s responsive %6zu+%6zu  rate-limited drops %8zu  "
        "backoffs %4zu\n",
        adaptive ? "on" : "off", pair.scan1.responsive(),
        pair.scan2.responsive(), pair.fabric_stats.probes_rate_limited,
        backoffs);
    rows.begin_row()
        .field("experiment", "adaptive_backoff")
        .field("adaptive", static_cast<std::int64_t>(adaptive))
        .field("responsive_scan1",
               static_cast<std::int64_t>(pair.scan1.responsive()))
        .field("responsive_scan2",
               static_cast<std::int64_t>(pair.scan2.responsive()))
        .field("rate_limited",
               static_cast<std::int64_t>(pair.fabric_stats.probes_rate_limited))
        .field("backoffs", static_cast<std::int64_t>(backoffs));
  }

  // ---- 3. hostile fabric sweep -------------------------------------------
  std::printf("\nHostile fabric (response corruption sweep):\n");
  for (const double rate : {0.0, 0.1, 0.3, 0.5}) {
    auto options = base_options();
    options.fabric.faults.probe_corrupt_rate = rate / 5.0;
    options.fabric.faults.response_corrupt_rate = rate;
    const auto pair = run_campaign(options);
    const std::size_t undecodable =
        pair.scan1.undecodable_responses + pair.scan2.undecodable_responses;
    std::printf(
        "  corrupt=%.2f responsive %6zu+%6zu  corrupted %6zu/%6zu  "
        "undecodable %6zu\n",
        rate, pair.scan1.responsive(), pair.scan2.responsive(),
        pair.fabric_stats.probes_corrupted,
        pair.fabric_stats.responses_corrupted, undecodable);
    rows.begin_row()
        .field("experiment", "hostile_fabric")
        .field("corrupt_rate", rate)
        .field("responsive_scan1",
               static_cast<std::int64_t>(pair.scan1.responsive()))
        .field("responsive_scan2",
               static_cast<std::int64_t>(pair.scan2.responsive()))
        .field("probes_corrupted",
               static_cast<std::int64_t>(pair.fabric_stats.probes_corrupted))
        .field("responses_corrupted",
               static_cast<std::int64_t>(
                   pair.fabric_stats.responses_corrupted))
        .field("undecodable", static_cast<std::int64_t>(undecodable));
  }

  rows.write("BENCH_robustness.json");
  std::printf("\nWrote BENCH_robustness.json\n");
  return identical ? 0 : 1;
}
