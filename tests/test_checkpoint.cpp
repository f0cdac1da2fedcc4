// Checkpoint codec and prober-level snapshot/resume tests, plus the
// adaptive pacer at campaign level (its unit tests live in test_pacer.cpp).
// Campaigns and pipelines killed by a real SIGKILL and resumed are
// tests/test_crash.cpp's.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>

#include "result_equal.hpp"
#include "unique_dir.hpp"
#include "scan/campaign.hpp"
#include "scan/checkpoint.hpp"
#include "scan/prober.hpp"
#include "sim/fabric.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp::scan {
namespace {

using result_equal::expect_same_scan;

// ---- RNG state ------------------------------------------------------------

TEST(RngState, SaveRestoreReproducesStreamIncludingNormalSpare) {
  util::Rng rng(12345);
  rng.next();
  rng.normal();  // leaves a spare Box-Muller value buffered
  const auto saved = rng.save_state();

  std::vector<std::uint64_t> first;
  std::vector<double> normals1;
  for (int i = 0; i < 8; ++i) first.push_back(rng.next());
  for (int i = 0; i < 5; ++i) normals1.push_back(rng.normal());

  util::Rng other(999);  // entirely different starting stream
  other.restore_state(saved);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(other.next(), first[i]);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(other.normal(), normals1[i]);
}

// ---- pacer ----------------------------------------------------------------

TEST(Pacer, SignalFedCampaignIsDeterministicAndBacksOff) {
  // A rate-limiting world with the adaptive pacer: the fabric's explicit
  // signals feed the pacer through the prober, so backoffs must fire, and
  // the whole campaign must stay bit-identical across thread counts.
  const auto run = [](std::size_t threads) {
    CampaignOptions options;
    options.seed = 55;
    options.shards = 2;
    options.rate_pps = 20000.0;
    options.fabric.device_rate_limit_pps = 1;
    options.pacer.adaptive = true;
    options.pacer.window_probes = 32;
    options.parallel.threads = threads;
    auto world = topo::generate_world(topo::WorldConfig::tiny());
    return run_two_scan_campaign(world, options);
  };
  const auto a = run(1);
  const auto b = run(8);
  EXPECT_GT(a.scan1.pacer_backoffs + a.scan2.pacer_backoffs, 0u);
  EXPECT_GT(a.fabric_stats.probes_rate_limited, 0u);
  expect_same_scan(a.scan1, b.scan1);
  expect_same_scan(a.scan2, b.scan2);
  EXPECT_TRUE(a.fabric_stats == b.fabric_stats);
}

// ---- checkpoint codec -----------------------------------------------------

CampaignCheckpoint sample_checkpoint() {
  CampaignCheckpoint checkpoint;
  checkpoint.config_digest = 0xdeadbeefcafef00dULL;
  checkpoint.scan_index = 2;

  ScanResult scan1;
  scan1.label = "scan1";
  scan1.start_time = 10 * util::kSecond;
  scan1.end_time = 20 * util::kSecond;
  scan1.targets_probed = 3;
  scan1.probe_bytes = 60;
  scan1.undecodable_responses = 2;
  scan1.pacer_backoffs = 1;
  scan1.unverified_responses = 4;
  scan1.off_target_responses = 5;
  scan1.send_ring_overruns = 6;
  checkpoint.scan1 = scan1;
  checkpoint.scan1_manifest.name = "scan1_merged";
  checkpoint.scan1_manifest.committed_records = 1024;
  checkpoint.scan1_manifest.committed_bytes = 40961;
  checkpoint.scan1_manifest.block_count = 2;

  ShardScanState shard;
  shard.shard = 1;
  shard.cursor = 17;
  shard.complete = false;
  shard.next_send = 123456789;
  util::Rng rng(55);
  rng.next();
  rng.normal();
  shard.rng = rng.save_state();
  shard.pacer.rate_pps = 2500.125;
  shard.pacer.baseline_response_rate = 0.1 + 0.2;  // not exactly 0.3
  shard.pacer.window_sent = 12;
  shard.pacer.window_responses = 4;
  shard.pacer.backoffs = 2;
  shard.pacer.backoff_wait = 77 * util::kMillisecond;
  shard.partial = scan1;
  shard.partial.label = "scan2";
  shard.store_manifest.name = "scan2_shard1";
  shard.store_manifest.committed_records = 512;
  shard.store_manifest.committed_bytes = 20480;
  shard.store_manifest.block_count = 1;
  shard.store_manifest.tail_hex = "c0ffee";
  store::RecordPatch patch;
  patch.extra_responses = 2;
  patch.extra_engines.push_back(
      snmp::EngineId(util::Bytes{0x80, 0x00, 0x1f, 0x88, 0x05}));
  shard.store_manifest.patches.emplace_back(7, patch);
  shard.send_window = {{3, 12 * util::kSecond},
                       {16, 12 * util::kSecond + 3 * util::kMillisecond}};

  shard.fabric.clock = 42 * util::kSecond;
  shard.fabric.rng = rng.save_state();
  shard.fabric.stats.datagrams_sent = 100;
  shard.fabric.stats.probes_lost = 3;
  shard.fabric.stats.responses_corrupted = 1;
  net::Datagram in_flight;
  in_flight.source = {net::IpAddress(net::Ipv4(203, 0, 113, 9)), 161};
  in_flight.destination = {net::IpAddress(net::Ipv4(198, 51, 100, 7)), 54321};
  in_flight.payload = util::Bytes{0x30, 0x82, 0x00, 0x01, 0xff};
  in_flight.time = 42 * util::kSecond + 5 * util::kMillisecond;
  shard.fabric.in_flight.push_back(in_flight);
  shard.fabric.inbox.push_back(in_flight);
  shard.fabric.rate_windows.push_back({9, 41 * util::kSecond, 4});
  checkpoint.shard_states.push_back(shard);
  checkpoint.scan_boundary_fabrics.push_back(shard.fabric);
  return checkpoint;
}

void expect_same_manifest(const store::StoreManifest& a,
                          const store::StoreManifest& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.committed_records, b.committed_records);
  EXPECT_EQ(a.committed_bytes, b.committed_bytes);
  EXPECT_EQ(a.block_count, b.block_count);
  EXPECT_EQ(a.tail_hex, b.tail_hex);
  ASSERT_EQ(a.patches.size(), b.patches.size());
  for (std::size_t i = 0; i < a.patches.size(); ++i) {
    EXPECT_EQ(a.patches[i].first, b.patches[i].first);
    EXPECT_EQ(a.patches[i].second.extra_responses,
              b.patches[i].second.extra_responses);
    EXPECT_EQ(a.patches[i].second.extra_engines,
              b.patches[i].second.extra_engines);
  }
}

void expect_same_fabric_state(const sim::FabricState& a,
                              const sim::FabricState& b) {
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_TRUE(a.rng == b.rng);
  EXPECT_TRUE(a.stats == b.stats);
  ASSERT_EQ(a.in_flight.size(), b.in_flight.size());
  for (std::size_t i = 0; i < a.in_flight.size(); ++i) {
    EXPECT_EQ(a.in_flight[i].source.address, b.in_flight[i].source.address);
    EXPECT_EQ(a.in_flight[i].source.port, b.in_flight[i].source.port);
    EXPECT_EQ(a.in_flight[i].destination.address,
              b.in_flight[i].destination.address);
    EXPECT_EQ(a.in_flight[i].payload, b.in_flight[i].payload);
    EXPECT_EQ(a.in_flight[i].time, b.in_flight[i].time);
  }
  ASSERT_EQ(a.inbox.size(), b.inbox.size());
  ASSERT_EQ(a.rate_windows.size(), b.rate_windows.size());
  for (std::size_t i = 0; i < a.rate_windows.size(); ++i) {
    EXPECT_EQ(a.rate_windows[i].device, b.rate_windows[i].device);
    EXPECT_EQ(a.rate_windows[i].window_start, b.rate_windows[i].window_start);
    EXPECT_EQ(a.rate_windows[i].count, b.rate_windows[i].count);
  }
}

TEST(CheckpointCodec, JsonRoundTripIsExact) {
  const auto original = sample_checkpoint();
  const auto parsed = CampaignCheckpoint::from_json(original.to_json());
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->config_digest, original.config_digest);
  EXPECT_EQ(parsed->scan_index, original.scan_index);
  ASSERT_TRUE(parsed->scan1.has_value());
  expect_same_scan(*parsed->scan1, *original.scan1);
  expect_same_manifest(parsed->scan1_manifest, original.scan1_manifest);

  ASSERT_EQ(parsed->shard_states.size(), 1u);
  const auto& a = parsed->shard_states[0];
  const auto& b = original.shard_states[0];
  EXPECT_EQ(a.shard, b.shard);
  EXPECT_EQ(a.cursor, b.cursor);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.next_send, b.next_send);
  EXPECT_TRUE(a.rng == b.rng);
  // Doubles travel as IEEE bit patterns: EXACT equality, not approximate.
  EXPECT_EQ(a.pacer.rate_pps, b.pacer.rate_pps);
  EXPECT_EQ(a.pacer.baseline_response_rate, b.pacer.baseline_response_rate);
  EXPECT_EQ(a.pacer.window_sent, b.pacer.window_sent);
  EXPECT_EQ(a.pacer.window_responses, b.pacer.window_responses);
  EXPECT_EQ(a.pacer.backoffs, b.pacer.backoffs);
  EXPECT_EQ(a.pacer.backoff_wait, b.pacer.backoff_wait);
  expect_same_scan(a.partial, b.partial);
  expect_same_manifest(a.store_manifest, b.store_manifest);
  EXPECT_EQ(a.send_window, b.send_window);
  expect_same_fabric_state(a.fabric, b.fabric);
  ASSERT_EQ(parsed->scan_boundary_fabrics.size(), 1u);
  expect_same_fabric_state(parsed->scan_boundary_fabrics[0],
                           original.scan_boundary_fabrics[0]);
}

TEST(CheckpointCodec, SaveLoadRemoveLifecycle) {
  const testing_util::UniqueDir dir("ckpt_lifecycle");
  const auto path = dir / "campaign.json";
  const auto checkpoint = sample_checkpoint();
  ASSERT_TRUE(save_checkpoint(checkpoint, path));
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->config_digest, checkpoint.config_digest);
  remove_checkpoint(path);
  EXPECT_FALSE(load_checkpoint(path).has_value());
}

TEST(CheckpointCodec, GarbageFileIsRejected) {
  const testing_util::UniqueDir dir("ckpt_garbage");
  const auto path = dir / "campaign.json";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  std::fputs("{\"schema\": \"not a checkpoint\"", file);
  std::fclose(file);
  EXPECT_FALSE(load_checkpoint(path).has_value());
}

// Rewrites the first send-window entry of the first shard state in a
// rendered checkpoint.
std::string with_first_window_entry(const std::string& json,
                                    const std::string& entry) {
  const std::string key = "\"send_window\":[";
  const auto begin = json.find(key);
  EXPECT_NE(begin, std::string::npos);
  const auto first = begin + key.size();
  const auto end = json.find(']', first);
  return json.substr(0, first) + entry + json.substr(end + 1);
}

TEST(CheckpointCodec, MalformedSendWindowFailsClosed) {
  // The sample's shard: cursor 17, window [[3, t], [16, t']].
  const std::string json = sample_checkpoint().to_json();
  ASSERT_TRUE(CampaignCheckpoint::from_json(json).has_value());
  ASSERT_TRUE(CampaignCheckpoint::from_json(
                  with_first_window_entry(json, "[2,5]"))
                  .has_value());
  for (const std::string bad :
       {"[17,5]",       // seq at the cursor: a probe not yet sent
        "[16,5]",       // repeats the next entry's seq
        "[3.5,5]",      // non-integer seq
        "[3,5.25]",     // non-integer time
        "[-1,5]",       // negative seq
        "[\"3\",5]",  // string seq
        "[3]",          // missing time
        "[3,5,7]",      // extra field
        "{\"seq\":3,\"time\":5}"})
    EXPECT_FALSE(CampaignCheckpoint::from_json(
                     with_first_window_entry(json, bad))
                     .has_value())
        << bad;
  // Out of order: the larger seq first.
  EXPECT_FALSE(CampaignCheckpoint::from_json(
                   with_first_window_entry(json, "[16,5],[3,5]"))
                   .has_value());
  // A schema-3 shard state without the window at all.
  std::string missing = json;
  const auto at = missing.find("\"send_window\"");
  missing.replace(at, std::string("\"send_window\"").size(),
                  "\"sent_window\"");
  EXPECT_FALSE(CampaignCheckpoint::from_json(missing).has_value());
}

// ---- send window ----------------------------------------------------------

TEST(SendWindow, ListModeWindowHoldsAtMostRingCapacity) {
  const auto world = topo::generate_world(topo::WorldConfig::tiny());
  const auto targets = world.addresses(net::Family::kIpv4);
  ProbeConfig config;
  config.seed = 5;
  config.rate_pps = 1000.0;                            // 1 ms gap
  config.response_timeout = 500 * util::kMillisecond;  // past the max RTT
  config.checkpoint_every_n_targets = 50;
  // 500 gaps + burst 1 + 1: far fewer slots than the slice has probes.
  const std::size_t capacity = send_ring_capacity(targets.size(), config);
  ASSERT_EQ(capacity, 502u);
  ASSERT_GT(targets.size(), 4 * capacity);

  std::size_t boundaries = 0;
  config.on_checkpoint = [&](ShardScanState& state) {
    ++boundaries;
    const auto& window = state.send_window;
    EXPECT_LE(window.size(), capacity) << "cursor " << state.cursor;
    // Exactly the probes sent within the horizon of the latest one.
    EXPECT_EQ(window.size(), std::min<std::size_t>(state.cursor, 501));
    EXPECT_EQ(window.back().seq + 1, state.cursor);
    for (std::size_t i = 1; i < window.size(); ++i)
      EXPECT_LT(window[i - 1].seq, window[i].seq);
  };
  sim::Fabric fabric(world, sim::FabricConfig{});
  const net::Endpoint source{net::Ipv4(198, 51, 100, 7), 4444};
  const ScanResult bounded = Prober(fabric, source).run(targets, config, 0);
  EXPECT_EQ(boundaries, targets.size() / 50);
  EXPECT_EQ(bounded.send_ring_overruns, 0u);
  ASSERT_GT(bounded.responsive(), 0u);

  // The bound costs nothing: a horizon covering the whole slice stamps
  // the same send times.
  ProbeConfig unbounded = config;
  unbounded.on_checkpoint = nullptr;
  unbounded.sent_horizon = 3600 * util::kSecond;
  ASSERT_EQ(send_ring_capacity(targets.size(), unbounded), targets.size());
  sim::Fabric other(world, sim::FabricConfig{});
  expect_same_scan(bounded, Prober(other, source).run(targets, unbounded, 0));
}

TEST(SendWindow, ResumeFromAWrappedRingIsBitIdentical) {
  // The ring has wrapped several times by the first snapshot, so a run
  // resumed from it stamps late responses only from the restored window.
  const auto world = topo::generate_world(topo::WorldConfig::tiny());
  const auto targets = world.addresses(net::Family::kIpv4);
  const net::Endpoint source{net::Ipv4(198, 51, 100, 7), 4444};
  ProbeConfig config;
  config.seed = 6;
  config.rate_pps = 1000.0;
  config.response_timeout = 500 * util::kMillisecond;
  ASSERT_GT(targets.size(), 4 * send_ring_capacity(targets.size(), config));
  sim::Fabric reference_fabric(world, sim::FabricConfig{});
  const ScanResult reference =
      Prober(reference_fabric, source).run(targets, config, 0);

  const testing_util::UniqueDir dir("send_window");
  store::StoreOptions store_options;
  store_options.dir = dir.path();
  // Keep only the first snapshot; the run goes on past it, and restoring
  // the store truncates what it appended afterwards.
  std::optional<ShardScanState> saved;
  ProbeConfig snapshotted = config;
  snapshotted.checkpoint_every_n_targets = 2000;
  snapshotted.sink =
      std::make_shared<store::RecordStore>(store_options, "shard");
  sim::Fabric fabric(world, sim::FabricConfig{});
  snapshotted.on_checkpoint = [&](ShardScanState& state) {
    if (saved.has_value()) return;
    state.fabric = fabric.snapshot();
    saved = state;
  };
  (void)Prober(fabric, source).run(targets, snapshotted, 0);
  ASSERT_TRUE(saved.has_value());
  EXPECT_EQ(saved->send_window.size(), 501u);
  snapshotted.sink.reset();

  ProbeConfig resumed = snapshotted;
  resumed.on_checkpoint = [](ShardScanState&) {};
  resumed.resume = &*saved;
  resumed.sink = store::RecordStore::restore(store_options,
                                             saved->store_manifest);
  ASSERT_NE(resumed.sink, nullptr);
  sim::Fabric resumed_fabric(world, sim::FabricConfig{});
  resumed_fabric.restore(saved->fabric);
  expect_same_scan(reference,
                   Prober(resumed_fabric, source).run(targets, resumed, 0));
  }

}  // namespace
}  // namespace snmpv3fp::scan
