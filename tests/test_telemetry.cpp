// The live telemetry layer's contracts (obs/timeline's track registry and
// its views in obs/flight, obs/status and obs/trace_export):
//  1. EXECUTION-ONLY: PipelineResult is bit-identical with telemetry fully
//     armed or absent, store-backed or in-RAM, at 1/2/8 threads.
//  2. Virtual-clock timeline samples are deterministic: same seed => the
//     same series (times AND values) at any thread count.
//  3. The emitted JSON documents (chrome trace, status.json, timeline
//     section, flight dump) round-trip through obs::JsonValue and carry
//     their documented schemas.
//  4. status.json and the flight rings are views of the shard tracks: the
//     status rows match the shard-progress rows and every flight event
//     sits on one of its scan's shard tracks.
//  5. A hostile corpus (corrupted responses) drives fault-surge flight
//     dumps, and the dump file lands atomically with the events in it.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "obs/fileio.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/status.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "unique_dir.hpp"
#include "scan/campaign.hpp"
#include "topo/generator.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/vclock.hpp"

namespace snmpv3fp {
namespace {

using testing_util::UniqueDir;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- the execution-only contract ------------------------------------------

// Small-but-parallel world (mirrors tests/test_obs.cpp): several chunks
// per parallel stage, fast enough for a handful of full pipeline runs.
topo::WorldConfig mid_size_world() {
  topo::WorldConfig config = topo::WorldConfig::tiny();
  config.seed = 11;
  config.router_scale = 120.0;
  config.mega_scale = 120.0;
  config.device_scale = 1200.0;
  config.tail_as_count = 80;
  return config;
}

// Order-sensitive digest over everything the paper's analyses consume:
// every scan record field (streamed, so store-backed results digest the
// same bytes), the filter funnel, and the fingerprinted device list.
std::uint64_t digest_result(const core::PipelineResult& result) {
  std::uint64_t digest = 0x5eed;
  const auto fold_scan = [&](const scan::ScanResult& scan) {
    digest = util::hash_combine(digest, scan.start_time);
    digest = util::hash_combine(digest, scan.end_time);
    digest = util::hash_combine(digest, scan.targets_probed);
    (void)scan.for_each_record([&](const scan::ScanRecord& record) {
      digest = util::hash_combine(digest,
                                  util::fnv1a64(record.target.to_string()));
      digest = util::hash_combine(
          digest, util::fnv1a64(record.engine_id.to_hex()));
      digest = util::hash_combine(digest, record.engine_boots);
      digest = util::hash_combine(digest, record.engine_time);
      digest = util::hash_combine(
          digest, static_cast<std::uint64_t>(record.send_time));
      digest = util::hash_combine(
          digest, static_cast<std::uint64_t>(record.receive_time));
      digest = util::hash_combine(digest, record.response_count);
    });
  };
  for (const auto* pair : {&result.v4_campaign, &result.v6_campaign}) {
    fold_scan(pair->scan1);
    fold_scan(pair->scan2);
    digest = util::hash_combine(digest, pair->fabric_stats.datagrams_sent);
    digest = util::hash_combine(digest, pair->fabric_stats.probes_lost);
  }
  for (const auto* report : {&result.v4_report, &result.v6_report}) {
    digest = util::hash_combine(digest, report->input);
    for (const auto dropped : report->dropped)
      digest = util::hash_combine(digest, dropped);
    digest = util::hash_combine(digest, report->output);
  }
  for (const auto& device : result.devices) {
    digest = util::hash_combine(digest, util::fnv1a64(device.fingerprint.vendor));
    digest = util::hash_combine(
        digest, static_cast<std::uint64_t>(device.is_router));
  }
  return digest;
}

struct TelemetryRun {
  std::uint64_t digest = 0;
  obs::TimelineSnapshot timeline;
  std::uint64_t flight_dumps = 0;
  std::uint64_t status_writes = 0;
  std::vector<obs::ShardProgress> shard_progress;
  std::vector<obs::FlightEvent> flight_events;
  std::string trace_json, status_json, flight_json;  // the run's artifacts
};

// One pipeline run; `telemetry` (when set) arms every surface with file
// outputs under a run-unique temp directory.
TelemetryRun run_pipeline(std::size_t threads, bool telemetry,
                          const std::string& store_dir = {},
                          const std::string& tag = {}) {
  const UniqueDir telemetry_dir("telemetry_" + tag);
  obs::RunObserver observer;
  core::PipelineOptions options;
  options.world = mid_size_world();
  options.parallel.threads = threads;
  options.store.dir = store_dir;
  TelemetryRun out;
  if (telemetry) {
    options.obs.observer = &observer;
    obs::TelemetryOptions config;
    config.timeline.sample_every_virtual = 30 * util::kSecond;
    config.flight.dump_path = telemetry_dir / "flight.json";
    config.flight.ring_capacity = 64;
    config.status.path = telemetry_dir / "status.json";
    observer.configure_telemetry(config);
  }
  const auto result = core::run_full_pipeline(options);
  out.digest = digest_result(result);
  if (telemetry) {
    const obs::Timeline& tracks = observer.timeline();
    out.timeline = tracks.snapshot();
    out.flight_dumps = tracks.flight_dumps();
    out.status_writes = tracks.status_writes();
    out.shard_progress = observer.shard_progress();
    out.flight_events = tracks.events();
    out.trace_json = obs::to_chrome_trace_json(observer.trace().snapshot(),
                                               out.flight_events);
    out.status_json = slurp(telemetry_dir / "status.json");
    out.flight_json = slurp(telemetry_dir / "flight.json");
  }
  return out;
}

// Parses `json` as an object holding every key in `keys`; adds a failure
// and returns nullopt when it does not.
std::optional<obs::JsonValue> parse_with_keys(
    const std::string& json, std::initializer_list<const char*> keys) {
  auto doc = obs::JsonValue::parse(json);
  if (!doc.has_value() || !doc->is_object()) {
    ADD_FAILURE() << "not a JSON object: " << json.substr(0, 200);
    return std::nullopt;
  }
  for (const char* key : keys)
    if (doc->find(key) == nullptr) {
      ADD_FAILURE() << "missing key " << key;
      return std::nullopt;
    }
  return doc;
}

// Every item of `doc[array_key]` is an object holding `keys`; returns
// the item count.
std::size_t expect_items_with_keys(const obs::JsonValue& doc,
                                   const char* array_key,
                                   std::initializer_list<const char*> keys) {
  const auto* array = doc.find(array_key);
  if (array == nullptr) return 0;
  for (const auto& item : array->items())
    for (const char* key : keys)
      EXPECT_NE(item.find(key), nullptr) << array_key << "[i]." << key;
  return array->items().size();
}

TEST(TelemetryContract, BitIdenticalOnOffStoreOnOffAcrossThreads) {
  const auto baseline = run_pipeline(1, false);

  // Telemetry fully armed, in-RAM records, three thread counts.
  const auto on1 = run_pipeline(1, true, {}, "on1");
  const auto on2 = run_pipeline(2, true, {}, "on2");
  const auto on8 = run_pipeline(8, true, {}, "on8");
  EXPECT_EQ(on1.digest, baseline.digest);
  EXPECT_EQ(on2.digest, baseline.digest);
  EXPECT_EQ(on8.digest, baseline.digest);

  // Store-backed records, telemetry off vs fully armed.
  const UniqueDir store_off_dir("tel_store_off");
  const UniqueDir store_on_dir("tel_store_on");
  const auto store_off = run_pipeline(1, false, store_off_dir.path());
  const auto store_on =
      run_pipeline(2, true, store_on_dir.path(), "store_on");
  EXPECT_EQ(store_off.digest, baseline.digest);
  EXPECT_EQ(store_on.digest, baseline.digest);

  // ...and the telemetry actually observed the run.
  EXPECT_FALSE(on1.timeline.series.empty());
  EXPECT_GT(on1.flight_dumps, 0u);
  EXPECT_GT(on1.status_writes, 0u);

  // The armed run's artifacts hold their documented schemas: a chrome
  // trace with events, a status.json marked complete, a flight dump and
  // a timeline section with virtual points.
  if (const auto trace = parse_with_keys(
          on1.trace_json, {"displayTimeUnit", "traceEvents"})) {
    EXPECT_GT(
        expect_items_with_keys(*trace, "traceEvents", {"ph", "pid", "tid"}),
        0u);
  }
  if (const auto status = parse_with_keys(
          on1.status_json, {"schema", "complete", "totals", "shards"})) {
    EXPECT_TRUE(status->find("complete")->as_bool());
    expect_items_with_keys(*status, "shards",
                           {"stage", "shard", "targets_total", "targets_sent",
                            "response_rate", "eta_s", "complete"});
  }
  if (const auto flight =
          parse_with_keys(on1.flight_json, {"schema", "reason", "events"}))
    expect_items_with_keys(
        *flight, "events",
        {"kind", "stage", "shard", "virtual_s", "value", "seq"});
  if (const auto timeline = parse_with_keys(
          on1.timeline.to_json(), {"virtual_interval_s", "virtual", "wall"})) {
    expect_items_with_keys(*timeline, "virtual", {"stage", "shard", "points"});
    std::size_t points = 0;
    for (const auto& series : timeline->find("virtual")->items())
      if (const auto* track = series.find("points"))
        points += track->items().size();
    EXPECT_GT(points, 0u);
  }

  // Virtual timeline samples are deterministic: identical series (stages,
  // shards, boundary times AND channel values) at every thread count, and
  // unchanged by the store backend (resident-bytes channel excepted — a
  // spilling store evicts, so compare the resident runs directly).
  ASSERT_EQ(on2.timeline.series.size(), on1.timeline.series.size());
  EXPECT_EQ(on2.timeline.series, on1.timeline.series);
  EXPECT_EQ(on8.timeline.series, on1.timeline.series);
}

// One record per shard: status.json's rows are the shard-progress rows,
// and the flight rings hold no event outside a scan's shard tracks.
TEST(TelemetryContract, StatusAndFlightAreViewsOfTheShardTracks) {
  const auto run = run_pipeline(2, true, {}, "views");
  ASSERT_FALSE(run.shard_progress.empty());
  std::map<std::pair<std::string, std::size_t>, obs::ShardProgress> progress;
  std::map<std::string, std::size_t> shards_per_stage;
  for (const auto& row : run.shard_progress) {
    progress[{row.stage, row.shard}] = row;
    ++shards_per_stage[row.stage];
  }

  const auto status = parse_with_keys(run.status_json, {"shards"});
  ASSERT_TRUE(status.has_value());
  const auto& shards = status->find("shards")->items();
  EXPECT_EQ(shards.size(), run.shard_progress.size());
  for (const auto& item : shards) {
    const std::string stage = item.find("stage")->as_string();
    const auto shard =
        static_cast<std::size_t>(item.find("shard")->as_number());
    const auto row = progress.find({stage, shard});
    ASSERT_NE(row, progress.end()) << stage << " shard " << shard;
    EXPECT_EQ(item.find("targets_total")->as_number(),
              static_cast<double>(row->second.targets));
    EXPECT_EQ(item.find("responses")->as_number(),
              static_cast<double>(row->second.responses));
  }

  ASSERT_FALSE(run.flight_events.empty());
  for (const auto& event : run.flight_events) {
    const auto scan = shards_per_stage.find(event.stage);
    ASSERT_NE(scan, shards_per_stage.end()) << event.stage;
    EXPECT_LT(event.shard, scan->second)
        << event.stage << " " << obs::to_string(event.kind);
  }
}

// ---- timeline unit behaviour ----------------------------------------------

// A timeline sampling every virtual second, nothing else armed.
void arm_virtual_seconds(obs::Timeline& timeline) {
  obs::TelemetryOptions options;
  options.timeline.sample_every_virtual = util::kSecond;
  timeline.configure(options, nullptr);
}

// Ticks `track` at `now` with a point whose targets_sent is `sent`.
void tick(obs::TrackHandle& track, util::VTime now, std::uint64_t sent = 0) {
  track.tick(now, [&] {
    obs::TimelinePoint point;
    point.targets_sent = sent;
    return point;
  });
}

TEST(Timeline, VirtualSamplesLandOnAbsoluteBoundaries) {
  obs::Timeline timeline;
  arm_virtual_seconds(timeline);
  auto track = timeline.track("stage", 0, 0);

  tick(track, util::kSecond / 2, 1);      // before the first boundary
  tick(track, 3 * util::kSecond / 2, 2);  // crosses 1s
  tick(track, 7 * util::kSecond / 4, 3);  // still inside [1s, 2s)
  tick(track, 4 * util::kSecond, 4);      // skips ahead: one point at 4s

  const auto snapshot = timeline.snapshot();
  ASSERT_EQ(snapshot.series.size(), 1u);
  const auto& points = snapshot.series[0].points;
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].t, util::kSecond);
  EXPECT_EQ(points[0].targets_sent, 2u);
  EXPECT_EQ(points[1].t, 4 * util::kSecond);
  EXPECT_EQ(points[1].targets_sent, 4u);
}

TEST(Timeline, TrackCapCountsDroppedPoints) {
  obs::Timeline timeline;
  arm_virtual_seconds(timeline);
  auto track = timeline.track("stage", 0, 0);
  constexpr std::size_t kBoundaries = obs::Timeline::kMaxPoints + 3;
  for (std::size_t i = 1; i <= kBoundaries; ++i)
    tick(track, static_cast<util::VTime>(i) * util::kSecond);
  const auto snapshot = timeline.snapshot();
  ASSERT_EQ(snapshot.series.size(), 1u);
  EXPECT_EQ(snapshot.series[0].points.size(), obs::Timeline::kMaxPoints);
  EXPECT_EQ(snapshot.dropped_points, 3u);
}

TEST(Timeline, JsonRoundTripsThroughParser) {
  obs::Timeline timeline;
  arm_virtual_seconds(timeline);
  auto handle = timeline.track("v4.scan1", 3, 0);
  handle.tick(2 * util::kSecond, [] {
    obs::TimelinePoint point;
    point.targets_sent = 10;
    point.responses = 4;
    point.pacer_rate_pps = 5000.0;
    return point;
  });

  const auto doc = obs::JsonValue::parse(timeline.snapshot().to_json());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const auto* series = doc->find("virtual");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->items().size(), 1u);
  const auto& track = series->items()[0];
  EXPECT_EQ(track.find("stage")->as_string(), "v4.scan1");
  EXPECT_EQ(track.find("shard")->as_number(), 3.0);
  const auto& points = track.find("points")->items();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].find("t_s")->as_number(), 2.0);
  EXPECT_EQ(points[0].find("sent")->as_number(), 10.0);
  EXPECT_EQ(points[0].find("responses")->as_number(), 4.0);
  EXPECT_EQ(points[0].find("rate_pps")->as_number(), 5000.0);
}

// ---- status surface --------------------------------------------------------

TEST(Status, JsonSchemaAndDashboardRoundTrip) {
  const UniqueDir dir("status_rt");
  const std::string path = dir / "status.json";
  obs::Timeline timeline;
  obs::TelemetryOptions options;
  options.status.path = path;
  timeline.configure(options, nullptr);

  auto shard0 = timeline.track("v4.scan1", 0, 100);
  auto shard1 = timeline.track("v4.scan1", 1, 100);
  obs::TimelinePoint point;
  point.targets_sent = 40;
  point.responses = 10;
  point.pacer_rate_pps = 2000.0;
  // A running shard's row refreshes when a wall-check stride ends.
  for (std::uint32_t i = 0; i < obs::TrackHandle::kWallCheckStride; ++i)
    shard0.tick(3 * util::kSecond, [&] { return point; });
  point.targets_sent = 100;
  shard1.complete(3 * util::kSecond, point);
  ASSERT_TRUE(timeline.write_status());

  const auto doc = obs::JsonValue::parse(slurp(path));
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("schema")->as_number(), 1.0);
  EXPECT_FALSE(doc->find("complete")->as_bool());
  const auto* totals = doc->find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->find("targets_total")->as_number(), 200.0);
  EXPECT_EQ(totals->find("targets_sent")->as_number(), 140.0);
  const auto* shards = doc->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->items().size(), 2u);
  EXPECT_EQ(shards->items()[0].find("stage")->as_string(), "v4.scan1");
  // ETA for shard 0: 60 targets left at 2000 pps.
  EXPECT_NEAR(shards->items()[0].find("eta_s")->as_number(), 0.03, 1e-9);

  const std::string dashboard = obs::render_status_dashboard(*doc);
  EXPECT_NE(dashboard.find("v4.scan1"), std::string::npos);
  EXPECT_NE(dashboard.find("running"), std::string::npos);

  // mark_stage_complete flips every row and the file.
  timeline.mark_stage_complete("v4.scan1");
  const auto done = obs::JsonValue::parse(slurp(path));
  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->find("complete")->as_bool());
  EXPECT_NE(obs::render_status_dashboard(*done).find("COMPLETE"),
            std::string::npos);
}

// ---- chrome trace export ---------------------------------------------------

TEST(TraceExport, ChromeTraceSchemaRoundTrips) {
  obs::Trace trace;
  {
    obs::Span outer(&trace, "pipeline.v4.scan1");
    obs::Span inner(&trace, "pipeline.v4.scan1.shard0");
    inner.set_shard(0);
    inner.set_virtual_duration(5 * util::kSecond);
  }
  obs::Timeline timeline;
  timeline.configure({}, nullptr);
  auto track = timeline.track("pipeline.v4.scan1", 0, 0);
  track.record(obs::FlightEventKind::kCheckpoint, 2 * util::kSecond, 128);

  const std::string json =
      obs::to_chrome_trace_json(trace.snapshot(), timeline.events());
  const auto doc = obs::JsonValue::parse(json);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("displayTimeUnit")->as_string(), "ms");
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t complete = 0, instant = 0, metadata = 0;
  for (const auto& event : events->items()) {
    ASSERT_TRUE(event.is_object());
    ASSERT_NE(event.find("ph"), nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    const auto& ph = event.find("ph")->as_string();
    if (ph == "X") {
      ++complete;
      EXPECT_NE(event.find("name"), nullptr);
      EXPECT_NE(event.find("ts"), nullptr);
      EXPECT_NE(event.find("dur"), nullptr);
    } else if (ph == "i") {
      ++instant;
    } else if (ph == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(complete, 2u);   // the two spans
  EXPECT_EQ(instant, 1u);    // the flight event
  EXPECT_GT(metadata, 0u);   // thread-name tracks
}

// ---- flight recorder -------------------------------------------------------

TEST(Flight, RingWrapsAndDumpIsAtomicJson) {
  const UniqueDir dir("flight_rt");
  const std::string path = dir / "flight.json";
  obs::Timeline timeline;
  obs::TelemetryOptions options;
  options.flight.ring_capacity = 4;
  options.flight.dump_path = path;
  timeline.configure(options, nullptr);
  auto track = timeline.track("stage", 2, 0);
  for (int i = 0; i < 10; ++i)
    track.record(obs::FlightEventKind::kNote, i * util::kSecond, i);
  EXPECT_EQ(timeline.flight_dropped(), 6u);
  ASSERT_TRUE(timeline.dump_flight("unit_test"));
  EXPECT_EQ(timeline.flight_dumps(), 1u);

  const auto doc = obs::JsonValue::parse(slurp(path));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->as_number(), 1.0);
  EXPECT_EQ(doc->find("reason")->as_string(), "unit_test");
  EXPECT_EQ(doc->find("dropped")->as_number(), 6.0);
  const auto* events = doc->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 4u);  // the ring kept the last 4
  for (const auto& event : events->items()) {
    EXPECT_EQ(event.find("kind")->as_string(), "note");
    EXPECT_EQ(event.find("stage")->as_string(), "stage");
    EXPECT_EQ(event.find("shard")->as_number(), 2.0);
    EXPECT_GE(event.find("seq")->as_number(), 6.0);
  }
}

TEST(Flight, HostileCorpusTriggersFaultSurgeDumps) {
  auto world = topo::generate_world(topo::WorldConfig::tiny());
  obs::RunObserver observer;
  obs::TelemetryOptions telemetry;
  const UniqueDir dir("flight_surge");
  telemetry.flight.dump_path = dir / "flight.json";
  telemetry.flight.ring_capacity = 32;
  telemetry.flight.fault_surge_threshold = 4;
  observer.configure_telemetry(telemetry);

  scan::CampaignOptions options;
  options.seed = 1234;
  options.fabric.faults.response_corrupt_rate = 0.5;  // hostile corpus
  options.obs.observer = &observer;
  options.obs.scope = "v4";
  const auto pair = scan::run_two_scan_campaign(world, options);

  // Corrupted responses reached the prober and were rejected...
  EXPECT_GT(pair.scan1.undecodable_responses +
                pair.scan2.undecodable_responses,
            4u);
  // ...so at least one surge dump fired during the scan (plus campaign
  // exit), and the final file is valid JSON with undecodable events.
  EXPECT_GT(observer.timeline().flight_dumps(), 1u);
  const auto doc = obs::JsonValue::parse(slurp(telemetry.flight.dump_path));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("reason")->as_string(), "exit");
  bool saw_undecodable = false;
  for (const auto& event : doc->find("events")->items())
    saw_undecodable |= event.find("kind")->as_string() == "undecodable";
  EXPECT_TRUE(saw_undecodable);
}

// ---- percentiles + report integration --------------------------------------

TEST(Metrics, HistogramPercentilesInterpolate) {
  obs::MetricsSnapshot::HistogramRow row;
  row.bounds = {10.0, 20.0, 40.0};
  row.counts = {10, 10, 0, 0};  // 20 observations, none past 20
  row.total = 20;
  // Rank 10 sits exactly at the first bucket's upper edge.
  EXPECT_NEAR(row.p50(), 10.0, 1e-9);
  // Rank 18 is 80% into the second bucket: 10 + 0.8 * (20 - 10).
  EXPECT_NEAR(row.p90(), 18.0, 1e-9);
  // Empty histogram: all percentiles are 0.
  obs::MetricsSnapshot::HistogramRow empty;
  empty.bounds = {1.0};
  empty.counts = {0, 0};
  EXPECT_EQ(empty.p99(), 0.0);
  // Overflow-heavy histogram clamps to the last finite bound.
  obs::MetricsSnapshot::HistogramRow overflow;
  overflow.bounds = {10.0};
  overflow.counts = {0, 100};
  overflow.total = 100;
  EXPECT_EQ(overflow.p50(), 10.0);
}

TEST(Report, TimeSeriesSectionRendersInRunReport) {
  obs::RunObserver observer;
  core::PipelineOptions options;
  options.world = topo::WorldConfig::tiny();
  options.obs.observer = &observer;
  obs::TelemetryOptions telemetry;
  telemetry.timeline.sample_every_virtual = 30 * util::kSecond;
  observer.configure_telemetry(telemetry);
  const auto result = core::run_full_pipeline(options);
  const auto report = core::build_run_report(result, options, &observer);

  const auto doc = obs::JsonValue::parse(report.to_json());
  ASSERT_TRUE(doc.has_value());
  const auto* time_series = doc->find("time_series");
  ASSERT_NE(time_series, nullptr);
  ASSERT_TRUE(time_series->is_object());
  const auto* series = time_series->find("virtual");
  ASSERT_NE(series, nullptr);
  EXPECT_FALSE(series->items().empty());
  // The probe-RTT histogram observed responses, and its percentile columns
  // made it into both renderings.
  const auto* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  const auto* histograms = metrics->find("histograms");
  ASSERT_NE(histograms, nullptr);
  bool saw_rtt = false;
  for (const auto& [name, value] : histograms->members()) {
    if (name.find("rtt_ms") == std::string::npos) continue;
    saw_rtt = true;
    EXPECT_NE(value.find("p50"), nullptr);
    EXPECT_NE(value.find("p99"), nullptr);
    EXPECT_GT(value.find("total")->as_number(), 0.0);
  }
  EXPECT_TRUE(saw_rtt);
  EXPECT_NE(report.to_table().find("Timeline:"), std::string::npos);
}

}  // namespace
}  // namespace snmpv3fp
