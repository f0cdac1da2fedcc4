// The observability layer's contracts:
//  1. Metrics registry: sharded counters/gauges/histograms merge
//     deterministically at any worker thread count, in registration order.
//  2. Logger: level gating, sink capture, key=value formatting.
//  3. Spans: nesting depth, explicit finish, null-trace no-op.
//  4. JSON: escaping round-trips through the bundled parser.
//  5. EXECUTION-ONLY observability: PipelineResult is bit-identical with
//     observation enabled, disabled, and at any thread count — while the
//     observed RunReport carries real spans, fabric drop causes and a
//     filter funnel that matches Table 1 accounting exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "result_equal.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "topo/generator.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace snmpv3fp {
namespace {

using result_equal::expect_same_run;

// ---- metrics registry ----------------------------------------------------

obs::MetricsSnapshot count_with_threads(std::size_t threads) {
  obs::MetricsRegistry registry;
  // Register on the orchestrating thread (the documented contract).
  obs::Counter items = registry.counter("items");
  obs::Counter evens = registry.counter("evens");
  obs::Histogram hist = registry.histogram("values", {10.0, 100.0, 1000.0});
  util::parallel_for(0, 10000, {.threads = threads}, [&](std::size_t i) {
    items.add();
    if (i % 2 == 0) evens.add();
    hist.observe(static_cast<double>(i % 2000));
  });
  return registry.snapshot();
}

TEST(Metrics, ShardMergeDeterministicAcrossThreadCounts) {
  const auto one = count_with_threads(1);
  const auto two = count_with_threads(2);
  const auto eight = count_with_threads(8);

  ASSERT_EQ(one.counters.size(), 2u);
  EXPECT_EQ(one.counters[0].name, "items");
  EXPECT_EQ(one.counters[0].value, 10000u);
  EXPECT_EQ(one.counters[1].name, "evens");
  EXPECT_EQ(one.counters[1].value, 5000u);

  for (const auto* other : {&two, &eight}) {
    ASSERT_EQ(other->counters.size(), one.counters.size());
    for (std::size_t i = 0; i < one.counters.size(); ++i) {
      EXPECT_EQ(other->counters[i].name, one.counters[i].name);
      EXPECT_EQ(other->counters[i].value, one.counters[i].value);
    }
    ASSERT_EQ(other->histograms.size(), 1u);
    EXPECT_EQ(other->histograms[0].counts, one.histograms[0].counts);
    EXPECT_EQ(other->histograms[0].total, one.histograms[0].total);
  }
}

TEST(Metrics, HistogramBucketEdges) {
  obs::MetricsRegistry registry;
  obs::Histogram hist = registry.histogram("h", {1.0, 10.0});
  hist.observe(0.5);   // <= 1        -> bucket 0
  hist.observe(1.0);   // == bound    -> bucket 0 (inclusive upper edge)
  hist.observe(1.001); // > 1, <= 10  -> bucket 1
  hist.observe(10.0);  // == bound    -> bucket 1
  hist.observe(10.5);  // > 10        -> overflow
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& row = snap.histograms[0];
  ASSERT_EQ(row.counts.size(), 3u);  // two finite buckets + overflow
  EXPECT_EQ(row.counts[0], 2u);
  EXPECT_EQ(row.counts[1], 2u);
  EXPECT_EQ(row.counts[2], 1u);
  EXPECT_EQ(row.total, 5u);
}

TEST(Metrics, CounterWrapsModulo64Bits) {
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.counter("wrap");
  counter.add(std::numeric_limits<std::uint64_t>::max());
  counter.add(5);  // wraps to 4
  const auto snap = registry.snapshot();
  ASSERT_FALSE(snap.counters.empty());
  EXPECT_EQ(snap.counters[0].value, 4u);
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  obs::MetricsRegistry registry;
  obs::Counter a = registry.counter("x");
  obs::Counter b = registry.counter("x");  // same metric
  a.add(2);
  b.add(3);
  // Re-registering "x" as a gauge is a programming error: no-op handle.
  obs::Gauge wrong = registry.gauge("x");
  wrong.set(999);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 5u);
  EXPECT_TRUE(snap.gauges.empty());
}

TEST(Metrics, SnapshotPreservesRegistrationOrder) {
  obs::MetricsRegistry registry;
  registry.counter("b");
  registry.counter("a");
  registry.counter("0");
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "b");
  EXPECT_EQ(snap.counters[1].name, "a");
  EXPECT_EQ(snap.counters[2].name, "0");
}

TEST(Metrics, DefaultHandlesAreNoOps) {
  obs::Counter counter;
  obs::Gauge gauge;
  obs::Histogram hist;
  counter.add(7);
  gauge.set(7);
  hist.observe(7.0);  // must not crash
}

TEST(Metrics, JsonRoundTrips) {
  obs::MetricsRegistry registry;
  registry.counter("needs \"escaping\"\n").add(42);
  registry.gauge("g").set(-7);
  obs::Histogram hist = registry.histogram("h", {1.0, 2.0});
  hist.observe(0.5);
  hist.observe(5.0);
  const std::string json = registry.snapshot().to_json();

  const auto doc = obs::JsonValue::parse(json);
  ASSERT_TRUE(doc.has_value());
  const auto* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const auto* escaped = counters->find("needs \"escaping\"\n");
  ASSERT_NE(escaped, nullptr);
  EXPECT_EQ(escaped->as_number(), 42.0);
  const auto* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->find("g")->as_number(), -7.0);
  const auto* histograms = doc->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const auto* h = histograms->find("h");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(h->find("counts"), nullptr);
  EXPECT_EQ(h->find("counts")->items().size(), 3u);
}

// ---- JSON escaping / parsing ---------------------------------------------

TEST(Json, EscapeRoundTripsControlCharacters) {
  const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
  const std::string escaped = obs::json_escape(nasty);
  const auto parsed = obs::JsonValue::parse(escaped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), nasty);
}

TEST(Json, WriterProducesParsableDocuments) {
  obs::JsonWriter json;
  json.begin_object();
  json.kv("s", "text");
  json.kv("n", std::uint64_t{18446744073709551615ull});
  json.kv("d", 1.5);
  json.kv("b", true);
  json.key("arr").begin_array().value(std::int64_t{-1}).value(2.0).end_array();
  json.key("nested").begin_object().kv("k", "v").end_object();
  json.end_object();
  const auto doc = obs::JsonValue::parse(json.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("s")->as_string(), "text");
  EXPECT_EQ(doc->find("b")->as_bool(), true);
  EXPECT_EQ(doc->find("arr")->items().size(), 2u);
  EXPECT_EQ(doc->find("nested")->find("k")->as_string(), "v");
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_FALSE(obs::JsonValue::parse("{").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("{}trailing").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("\"unterminated").has_value());
  EXPECT_FALSE(obs::JsonValue::parse("nope").has_value());
}

// ---- logger ---------------------------------------------------------------

TEST(Log, FormatRendersLevelMessageAndFields) {
  const std::string line = obs::Logger::format(
      obs::LogLevel::kInfo, "scan finished",
      {{"label", "v4.scan1"}, {"targets", 9001}, {"rate", 0.25}});
  EXPECT_NE(line.find("level=info"), std::string::npos);
  EXPECT_NE(line.find("msg=\"scan finished\""), std::string::npos);
  EXPECT_NE(line.find("label=v4.scan1"), std::string::npos);
  EXPECT_NE(line.find("targets=9001"), std::string::npos);
}

TEST(Log, LevelGatesAndSinkCaptures) {
  obs::Logger& logger = obs::Logger::global();
  const obs::LogLevel saved = logger.level();
  std::vector<std::string> lines;
  logger.set_sink([&](std::string_view line) { lines.emplace_back(line); });

  logger.set_level(obs::LogLevel::kWarn);
  EXPECT_FALSE(logger.enabled(obs::LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(obs::LogLevel::kError));
  obs::log_info("dropped");
  obs::log_warn("kept", {{"k", "v"}});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("level=warn"), std::string::npos);
  EXPECT_NE(lines[0].find("msg=kept"), std::string::npos);
  EXPECT_NE(lines[0].find("k=v"), std::string::npos);

  logger.set_sink(nullptr);  // restore default stderr sink
  logger.set_level(saved);
}

TEST(Log, ParseLevelAcceptsKnownNamesOnly) {
  EXPECT_EQ(obs::parse_log_level("debug", obs::LogLevel::kOff),
            obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("WARN", obs::LogLevel::kOff),
            obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("bogus", obs::LogLevel::kError),
            obs::LogLevel::kError);
}

// ---- spans ----------------------------------------------------------------

TEST(Trace, SpansRecordNestingDepthAndVirtualTime) {
  obs::Trace trace;
  {
    obs::Span outer(&trace, "outer");
    outer.set_virtual_duration(42);
    {
      obs::Span inner(&trace, "inner");
    }
  }
  const auto spans = trace.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner finishes (and records) first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_EQ(spans[1].virtual_duration, 42);
  EXPECT_GE(spans[1].wall_ms, 0.0);
}

TEST(Trace, FinishIsIdempotentAndNullTraceIsNoOp) {
  obs::Trace trace;
  {
    obs::Span span(&trace, "phase");
    span.finish();
    span.finish();  // second finish must not double-record
  }                 // destructor must not record either
  EXPECT_EQ(trace.size(), 1u);

  obs::Span null_span(nullptr, "nothing");
  null_span.finish();  // must not crash
}

// ---- the execution-only contract ------------------------------------------

// Mid-size world (mirrors tests/test_parallel.cpp): dense enough that every
// parallel stage sees several chunks, fast enough to run the pipeline a few
// times in one test binary.
topo::WorldConfig mid_size_world() {
  topo::WorldConfig config = topo::WorldConfig::tiny();
  config.seed = 11;
  config.router_scale = 120.0;
  config.mega_scale = 120.0;
  config.device_scale = 1200.0;
  config.tail_as_count = 80;
  return config;
}

core::PipelineResult run_pipeline(std::size_t threads,
                                  obs::RunObserver* observer,
                                  core::PipelineOptions* options_out = nullptr) {
  core::PipelineOptions options;
  options.world = mid_size_world();
  options.parallel.threads = threads;
  options.obs.observer = observer;
  if (options_out != nullptr) *options_out = options;
  return core::run_full_pipeline(options);
}

void expect_identical(const core::PipelineResult& a,
                      const core::PipelineResult& b) {
  expect_same_run(a, b);
  EXPECT_EQ(a.v4_campaign.fabric_stats, b.v4_campaign.fabric_stats);
}

TEST(ObsContract, ResultsBitIdenticalWithObsOnOffAndAcrossThreads) {
  const auto unobserved = run_pipeline(1, nullptr);

  obs::RunObserver obs1, obs8;
  const auto observed_seq = run_pipeline(1, &obs1);
  const auto observed_par = run_pipeline(8, &obs8);

  // Observation changes nothing; threads change nothing.
  expect_identical(unobserved, observed_seq);
  expect_identical(unobserved, observed_par);

  // ...but the observer actually saw the run.
  EXPECT_GT(obs1.trace().size(), 0u);
  EXPECT_FALSE(obs1.shard_progress().empty());
  EXPECT_FALSE(obs1.metrics().snapshot().counters.empty());
}

TEST(ObsContract, RunReportJsonMatchesPipelineAccounting) {
  obs::RunObserver observer;
  core::PipelineOptions options;
  const auto result = run_pipeline(4, &observer, &options);
  const auto report = core::build_run_report(result, options, &observer);

  const std::string json_text = report.to_json();
  const auto doc = obs::JsonValue::parse(json_text);
  ASSERT_TRUE(doc.has_value()) << "RunReport JSON must parse";

  // Spans: present, and at least one stage took measurable wall time.
  const auto* spans = doc->find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_FALSE(spans->items().empty());
  double max_wall = 0.0;
  for (const auto& span : spans->items())
    max_wall = std::max(max_wall, span.find("wall_ms")->as_number());
  EXPECT_GT(max_wall, 0.0);

  // An in-RAM run joins each family under its own scope, so the report
  // splits join time between v4 and v6.
  std::set<std::string> span_names;
  for (const auto& span : spans->items())
    span_names.insert(span.find("name")->as_string());
  EXPECT_TRUE(span_names.contains("pipeline.v4.join"));
  EXPECT_TRUE(span_names.contains("pipeline.v6.join"));
  EXPECT_FALSE(span_names.contains("pipeline.join"));
  // Campaign set-up is spanned: the v4 target union (the v6 campaign
  // probes an explicit hitlist, so it computes none) and both churns.
  EXPECT_TRUE(span_names.contains("pipeline.v4.target_union"));
  EXPECT_FALSE(span_names.contains("pipeline.v6.target_union"));
  EXPECT_TRUE(span_names.contains("pipeline.v4.churn"));
  EXPECT_TRUE(span_names.contains("pipeline.v6.churn"));

  // Campaign virtual time: the scans advanced the simulated clock.
  bool campaign_has_virtual = false;
  for (const auto& span : spans->items())
    if (span.find("name")->as_string().find("campaign") != std::string::npos &&
        span.find("virtual_s")->as_number() > 0.0)
      campaign_has_virtual = true;
  EXPECT_TRUE(campaign_has_virtual);

  // Fabric drop causes: lossy world => non-zero drops, and the per-cause
  // counters are internally consistent with datagrams_sent.
  const auto* campaigns = doc->find("campaigns");
  ASSERT_NE(campaigns, nullptr);
  ASSERT_FALSE(campaigns->items().empty());
  std::uint64_t total_drops = 0;
  for (const auto& campaign : campaigns->items()) {
    const auto* fabric = campaign.find("fabric");
    ASSERT_NE(fabric, nullptr);
    const auto* drops = fabric->find("drops");
    ASSERT_NE(drops, nullptr);
    const double sent = fabric->find("datagrams_sent")->as_number();
    const double delivered = fabric->find("datagrams_delivered")->as_number();
    const double probe_drops = drops->find("probes_lost")->as_number() +
                               drops->find("probes_dead")->as_number() +
                               drops->find("probes_filtered")->as_number() +
                               drops->find("probes_rate_limited")->as_number();
    EXPECT_EQ(sent, delivered + probe_drops);
    for (const auto& [name, value] : drops->members())
      total_drops += static_cast<std::uint64_t>(value.as_number());
    // Probe validation: a clean world's every response verifies, and the
    // send ring never overruns.
    for (const char* counter : {"unverified_responses", "off_target_responses",
                                "send_ring_overruns"}) {
      const auto* value = campaign.find(counter);
      ASSERT_NE(value, nullptr) << counter;
      EXPECT_EQ(value->as_number(), 0.0) << counter;
    }
  }
  EXPECT_GT(total_drops, 0u);

  // Filter funnel: the JSON's per-stage drop counts are exactly the
  // FilterReport's (Table 1), and input = drops + output = the number of
  // joined scan records entering the filter.
  const auto* funnels = doc->find("filter_funnels");
  ASSERT_NE(funnels, nullptr);
  ASSERT_EQ(funnels->items().size(), 2u);
  const auto& v4 = funnels->items()[0];
  ASSERT_EQ(v4.find("family")->as_string(), "ipv4");
  const auto* dropped = v4.find("dropped");
  ASSERT_NE(dropped, nullptr);
  ASSERT_EQ(dropped->members().size(), core::kFilterStageCount);
  std::uint64_t drop_sum = 0;
  for (std::size_t i = 0; i < core::kFilterStageCount; ++i) {
    const auto* stage = dropped->find(
        core::to_slug(static_cast<core::FilterStage>(i)));
    ASSERT_NE(stage, nullptr);
    EXPECT_EQ(static_cast<std::uint64_t>(stage->as_number()),
              result.v4_report.dropped[i]);
    drop_sum += static_cast<std::uint64_t>(stage->as_number());
  }
  const auto input = static_cast<std::uint64_t>(v4.find("input")->as_number());
  const auto output =
      static_cast<std::uint64_t>(v4.find("output")->as_number());
  EXPECT_EQ(input, drop_sum + output);
  EXPECT_EQ(input, result.v4_joined.size());
  EXPECT_EQ(output, result.v4_records.size());

  // Shard progress rows cover both families' scans and sum to the scan's
  // target/response totals.
  const auto* shard_rows = doc->find("shard_progress");
  ASSERT_NE(shard_rows, nullptr);
  std::uint64_t v4_scan1_responses = 0;
  for (const auto& row : shard_rows->items())
    if (row.find("stage")->as_string() == "pipeline.v4.scan1")
      v4_scan1_responses +=
          static_cast<std::uint64_t>(row.find("responses")->as_number());
  EXPECT_EQ(v4_scan1_responses, result.v4_campaign.scan1.responsive());

  // The table rendering exists and mentions the funnel.
  const std::string table = report.to_table();
  EXPECT_NE(table.find("ipv4"), std::string::npos);
  EXPECT_NE(table.find("Filter stage"), std::string::npos);
}

TEST(ObsContract, RateLimitKnobCountsDropsWhenEnabled) {
  // The fabric's rate-limit window is off by default (bit-compat with the
  // seed); switching it on must surface probes_rate_limited.
  topo::World world = topo::generate_world(mid_size_world());
  scan::CampaignOptions options;
  options.family = net::Family::kIpv4;
  options.seed = 7;
  options.fabric.device_rate_limit_pps = 1;
  const auto campaign = scan::run_two_scan_campaign(world, options);
  EXPECT_GT(campaign.fabric_stats.probes_rate_limited, 0u);
  EXPECT_EQ(campaign.fabric_stats.datagrams_sent,
            campaign.fabric_stats.datagrams_delivered +
                campaign.fabric_stats.probes_lost +
                campaign.fabric_stats.probes_dead +
                campaign.fabric_stats.probes_filtered +
                campaign.fabric_stats.probes_rate_limited);
}

}  // namespace
}  // namespace snmpv3fp
