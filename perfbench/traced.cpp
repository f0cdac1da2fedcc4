#include "traced.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <unistd.h>

#include "core/overlap.hpp"
#include "obs/obs.hpp"
#include "scan/aliased_prefix.hpp"
#include "scan/prober.hpp"
#include "scan/targets.hpp"
#include "sim/fabric.hpp"
#include "sim/reflector.hpp"
#include "store/record_store.hpp"
#include "topo/datasets.hpp"
#include "util/rng.hpp"
#include "wire/probe_template.hpp"
#include "wire/report_codec.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Cheap tick source for the per-call timers inside the probe loop, where
// two steady_clock reads per transport call would cost more than some of
// the calls themselves. Converted to ns against steady_clock per replay.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
#endif
}

// In-memory span ledger: one entry per timed call (name, layer, start,
// end, parent), written as JSON lines at exit. Spans open and close in
// stack order on the calling thread.
class Ledger {
 public:
  static constexpr long kNoParent = -1;

  explicit Ledger(std::string run_id)
      : run_id_(std::move(run_id)), epoch_(Clock::now()) {}

  double now_ms() const { return ms_between(epoch_, Clock::now()); }

  long open(std::string name, std::string layer) {
    entries_.push_back({std::move(name), std::move(layer), now_ms(), 0.0,
                        stack_.empty() ? kNoParent : stack_.back()});
    stack_.push_back(static_cast<long>(entries_.size() - 1));
    return stack_.back();
  }

  double close(long id) {
    entries_[id].end_ms = now_ms();
    stack_.pop_back();
    return entries_[id].end_ms - entries_[id].start_ms;
  }

  template <typename Fn>
  double time(std::string name, std::string layer, Fn&& fn) {
    const long id = open(std::move(name), std::move(layer));
    fn();
    return close(id);
  }

  // A span measured elsewhere (copied out of the RunObserver's trace, or
  // split out of a replay by measured shares).
  void add(std::string name, std::string layer, double start_ms, double end_ms,
           long parent) {
    entries_.push_back(
        {std::move(name), std::move(layer), start_ms, end_ms, parent});
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"run\":\"%s\",\"id\":%zu,\"parent\":%ld,\"name\":\"%s\","
                    "\"layer\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                    run_id_.c_str(), i, e.parent, e.name.c_str(),
                    e.layer.c_str(), e.start_ms, e.end_ms);
      out << line;
    }
    return static_cast<bool>(out);
  }

 private:
  struct Entry {
    std::string name;
    std::string layer;
    double start_ms = 0.0;
    double end_ms = 0.0;
    long parent = kNoParent;
  };
  std::string run_id_;
  Clock::time_point epoch_;
  std::vector<Entry> entries_;
  std::vector<long> stack_;
};

// Per-layer metric values. A metric the workload never sets is absent
// from the output: its layer is not used by that workload.
class Metrics {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  std::string json() const {
    std::string out = "{";
    for (const auto& [name, value] : values_) {
      if (out.size() > 1) out += ",";
      char buffer[96];
      std::snprintf(buffer, sizeof buffer, "\"%s\":%.9g", name.c_str(), value);
      out += buffer;
    }
    return out + "}";
  }

 private:
  std::map<std::string, double> values_;
};

// net::Transport decorator that accumulates the ticks spent inside the
// wrapped sim::Fabric; everything else of Prober::run is prober self time.
// With `capture` set it also copies every received payload (a separate,
// untimed pass uses that, so the copies never distort the timed one).
class TimingTransport final : public net::Transport {
 public:
  TimingTransport(sim::Fabric& inner, std::vector<util::Bytes>* capture)
      : inner_(inner), capture_(capture) {}

  void send(net::Datagram datagram) override {
    const std::uint64_t t = ticks();
    inner_.send(std::move(datagram));
    inside_ += ticks() - t;
  }
  void send_view(const net::Endpoint& source, const net::Endpoint& destination,
                 util::ByteView payload, util::VTime time) override {
    const std::uint64_t t = ticks();
    inner_.send_view(source, destination, payload, time);
    inside_ += ticks() - t;
  }
  std::span<std::uint8_t> acquire_send_frame(std::size_t max_len) override {
    const std::uint64_t t = ticks();
    const auto frame = inner_.acquire_send_frame(max_len);
    inside_ += ticks() - t;
    return frame;
  }
  void commit_send_frame(const net::Endpoint& source,
                         const net::Endpoint& destination, std::size_t len,
                         util::VTime time) override {
    const std::uint64_t t = ticks();
    inner_.commit_send_frame(source, destination, len, time);
    inside_ += ticks() - t;
  }
  std::optional<net::Datagram> receive() override {
    const std::uint64_t t = ticks();
    auto datagram = inner_.receive();
    inside_ += ticks() - t;
    if (capture_ != nullptr && datagram) capture_->push_back(datagram->payload);
    return datagram;
  }
  std::optional<net::DatagramView> receive_view() override {
    const std::uint64_t t = ticks();
    auto view = inner_.receive_view();
    inside_ += ticks() - t;
    if (capture_ != nullptr && view)
      capture_->emplace_back(view->payload.begin(), view->payload.end());
    return view;
  }
  util::VTime now() const override { return inner_.now(); }
  void run_until(util::VTime deadline) override {
    const std::uint64_t t = ticks();
    inner_.run_until(deadline);
    inside_ += ticks() - t;
  }
  std::uint64_t rate_limit_signals() const override {
    return inner_.rate_limit_signals();
  }
  const net::NetIoStats* net_stats() const override {
    return inner_.net_stats();
  }

  std::uint64_t inside_ticks() const { return inside_; }

 private:
  sim::Fabric& inner_;
  std::vector<util::Bytes>* capture_;
  std::uint64_t inside_ = 0;
};

// Runs shard 0 of a campaign's scan 1 — `slice` of its probe order, with
// the fabric and probe settings the campaign gives that shard — twice on
// fresh fabrics: once timed (prober vs fabric split), once untimed to
// capture the REPORT payloads.
void replay_shard(const topo::WorldModel& model,
                  const scan::CampaignOptions& campaign,
                  const scan::TargetSequence& slice, Ledger& ledger,
                  Metrics& m, std::vector<util::Bytes>& reports) {
  sim::FabricConfig fabric_config = campaign.fabric;
  fabric_config.seed = util::hash_combine(campaign.fabric.seed, 0);
  scan::ProbeConfig probe;
  probe.label = "scan1";
  probe.rate_pps = campaign.rate_pps;
  probe.seed = util::hash_combine(campaign.seed * 2 + 1, 0);
  probe.randomize_order = false;
  probe.response_timeout = campaign.response_timeout;
  if (campaign.target_spec.has_value())
    probe.sent_horizon = campaign.fabric.max_rtt + util::kSecond;
  const net::Endpoint source{net::IpAddress(net::Ipv4(198, 51, 100, 7)), 54321};
  const util::VTime start = campaign.first_scan_start;

  sim::Fabric fabric(model, fabric_config);
  TimingTransport timing(fabric, nullptr);
  scan::Prober prober(timing, source);
  const long span = ledger.open("replay.scan.prober", "scan");
  const double start_ms = ledger.now_ms();
  const auto wall_start = Clock::now();
  const std::uint64_t tick_start = ticks();
  (void)prober.run(slice, probe, start);
  const std::uint64_t tick_total = ticks() - tick_start;
  const double wall_ns = ms_between(wall_start, Clock::now()) * 1e6;
  ledger.close(span);
  const double ns_per_tick =
      tick_total > 0 ? wall_ns / static_cast<double>(tick_total) : 1.0;
  const double fabric_ns =
      static_cast<double>(timing.inside_ticks()) * ns_per_tick;
  ledger.add("replay.sim.fabric", "sim", start_ms, start_ms + fabric_ns / 1e6,
             span);

  const sim::FabricStats& stats = fabric.stats();
  const double probes = std::max<double>(1.0, stats.datagrams_sent);
  m.set("scan.prober_self_ns_per_probe", (wall_ns - fabric_ns) / probes);
  m.set("scan.responses_per_probe", stats.responses_received / probes);
  m.set("sim.fabric_ns_per_probe", fabric_ns / probes);
  m.set("sim.delivered_frac", stats.datagrams_delivered / probes);

  sim::Fabric capture_fabric(model, fabric_config);
  TimingTransport capture(capture_fabric, &reports);
  scan::Prober capture_prober(capture, source);
  ledger.time("replay.capture", "replay", [&] {
    (void)capture_prober.run(slice, probe, start);
  });
}

// Where the wire replay loops leave a value, so the compiler keeps them.
volatile std::uint64_t wire_sink = 0;

// Stamps probes with the ids the captured REPORTs echo and parses the
// captured REPORTs, each enough times for a stable per-call figure.
void replay_wire(const std::vector<util::Bytes>& reports, Ledger& ledger,
                 Metrics& m) {
  constexpr std::size_t kCalls = std::size_t{1} << 21;
  std::vector<std::pair<std::int32_t, std::int32_t>> ids;
  std::size_t accepted = 0;
  for (const auto& report : reports) {
    wire::V3Fields fields;
    if (!wire::FastReportParser::parse(report, fields)) continue;
    ++accepted;
    if (fields.msg_id >= wire::kMinTwoByteId &&
        fields.msg_id <= wire::kMaxTwoByteId &&
        fields.request_id >= wire::kMinTwoByteId &&
        fields.request_id <= wire::kMaxTwoByteId)
      ids.emplace_back(fields.msg_id, fields.request_id);
  }
  if (ids.empty()) ids.emplace_back(4242, 4243);
  m.set("wire.fast_accept_frac",
        reports.empty() ? 0.0
                        : static_cast<double>(accepted) / reports.size());

  const wire::ProbeTemplate probe_template;
  std::array<std::uint8_t, 128> frame{};
  std::uint64_t sink = 0;
  const double stamp_ms = ledger.time("replay.wire.stamp", "wire", [&] {
    for (std::size_t i = 0; i < kCalls; ++i) {
      const auto& [msg_id, request_id] = ids[i % ids.size()];
      sink += probe_template.stamp_into(msg_id, request_id, frame) ? frame[7] : 1;
    }
  });
  m.set("wire.stamp_ns", stamp_ms * 1e6 / kCalls);

  if (!reports.empty()) {
    const double parse_ms = ledger.time("replay.wire.parse", "wire", [&] {
      wire::V3Fields fields;
      for (std::size_t i = 0; i < kCalls; ++i)
        sink += wire::FastReportParser::parse(reports[i % reports.size()], fields)
                    ? fields.engine_boots
                    : 1;
    });
    m.set("wire.parse_ns", parse_ms * 1e6 / kCalls);
  }
  wire_sink = sink;
}

// Appends captured records to a fresh RecordStore with the workload's store
// options, seals it and reads it back through a cursor.
void replay_store(const std::vector<scan::ScanRecord>& records,
                  const store::StoreOptions& workload_store, Ledger& ledger,
                  Metrics& m) {
  obs::MetricsRegistry registry;
  store::StoreOptions options = workload_store;
  options.dir = workload_store.dir + "/replay";
  options.telemetry.evicted_blocks = registry.counter("evicted_blocks");
  store::RecordStore replay(options, "replay");
  const double append_ms = ledger.time("replay.store.append", "store", [&] {
    for (const auto& record : records) replay.append(record);
    replay.seal();
  });
  std::size_t read = 0;
  const double read_ms = ledger.time("replay.store.read", "store", [&] {
    auto cursor = replay.cursor();
    scan::ScanRecord record;
    while (cursor.next(record)) ++read;
  });
  const double n = std::max<double>(1.0, records.size());
  m.set("store.append_ns_per_record", append_ms * 1e6 / n);
  m.set("store.read_ns_per_record", read_ms * 1e6 / n);
  m.set("store.spilled_bytes", static_cast<double>(replay.spilled_bytes()));
  const auto* evicted = registry.snapshot().find_counter("evicted_blocks");
  m.set("store.evicted_blocks",
        evicted != nullptr ? static_cast<double>(evicted->value) : 0.0);
  if (read != records.size())
    std::fprintf(stderr, "store replay read %zu of %zu records\n", read,
                 records.size());
  replay.remove_files();
}

// Copies a campaign's scan spans out of the observer trace (as children of
// the campaign span) and sums their walls: {scan1 ms, scan2 ms}.
std::pair<double, double> adopt_scan_spans(const obs::RunObserver& observer,
                                           const std::string& family,
                                           double epoch_offset_ms,
                                           long campaign_span, Ledger& ledger) {
  std::pair<double, double> walls{0.0, 0.0};
  for (const auto& span : observer.trace().snapshot()) {
    const bool scan1 = span.name == family + ".scan1";
    const bool scan2 = span.name == family + ".scan2";
    if (!scan1 && !scan2) continue;
    const double start = span.start_ms + epoch_offset_ms;
    ledger.add("scan." + span.name, "scan", start, start + span.wall_ms,
               campaign_span);
    (scan1 ? walls.first : walls.second) += span.wall_ms;
  }
  return walls;
}

// Slowest shard wall over the median shard wall of one scan.
double shard_skew(const obs::RunObserver& observer, const std::string& stage) {
  std::vector<double> walls;
  for (const auto& row : observer.shard_progress())
    if (row.stage == stage) walls.push_back(row.wall_ms);
  if (walls.empty()) return 0.0;
  std::sort(walls.begin(), walls.end());
  const std::size_t n = walls.size();
  const double median =
      n % 2 == 1 ? walls[n / 2] : 0.5 * (walls[n / 2 - 1] + walls[n / 2]);
  return median > 0.0 ? walls.back() / median : 0.0;
}

void set_net_metrics(const net::NetIoStats& io, Metrics& m) {
  const double send_calls =
      static_cast<double>(io.sendmmsg_calls + io.sendto_calls);
  const double recv_calls =
      static_cast<double>(io.recvmmsg_calls + io.recvfrom_calls);
  m.set("net.datagrams_per_send_call",
        send_calls > 0 ? io.datagrams_sent / send_calls : 0.0);
  m.set("net.datagrams_per_recv_call",
        recv_calls > 0 ? io.datagrams_received / recv_calls : 0.0);
  m.set("net.gso_batches", static_cast<double>(io.gso_batches));
  m.set("net.flow_stalls", static_cast<double>(io.flow_stalls));
  m.set("net.send_pressure", static_cast<double>(io.send_pressure));
}

// The table1* pipelines, rebuilt from the calls run_full_pipeline makes, in
// the same order, with one span per call; then the per-layer replays.
int trace_pipeline(Workload workload, std::uint64_t seed,
                   const std::string& spill_dir, Ledger& ledger, Metrics& m,
                   std::string& digest_hex, double& pipeline_ms) {
  const core::PipelineOptions options =
      pipeline_options(workload, seed, spill_dir, /*sim_twin=*/false);
  topo::World world;
  m.set("topo.generate_world_ms", ledger.time("topo.generate_world", "topo", [&] {
    world = topo::generate_world(options.world);
  }));
  // Pre-churn copy for the shard replay and the model-copy timings.
  topo::World pristine = world;
  topo::MaterializedWorldModel model(world);
  obs::RunObserver observer;
  const double epoch_offset_ms = ledger.now_ms() - observer.trace().now_ms();

  core::PipelineResult result;
  const long root = ledger.open("pipeline", "pipeline");
  m.set("topo.export_datasets_ms", ledger.time("topo.export_datasets", "topo", [&] {
    result.as_table = topo::build_as_table(world);
    result.itdk_v4 = topo::export_itdk_v4(world, options.datasets);
    result.itdk_v6 = topo::export_itdk_v6(world, options.datasets);
    result.atlas = topo::export_atlas(world, options.datasets);
    result.hitlist_v6 = topo::export_hitlist_v6(world, options.seed);
  }));
  if (options.exclude_aliased_prefixes && !result.hitlist_v6.empty()) {
    m.set("scan.prescan_ms", ledger.time("scan.prescan", "scan", [&] {
      sim::FabricConfig prescan_config = options.fabric;
      prescan_config.seed = options.seed ^ 0xa11a5ed;
      sim::Fabric prescan(model, prescan_config);
      result.aliased_prefixes = scan::detect_aliased_prefixes(
          prescan, {net::Ipv4(198, 51, 100, 7), 54320}, result.hitlist_v6);
      result.hitlist_v6 =
          scan::filter_aliased(result.hitlist_v6, result.aliased_prefixes);
    }));
  }
  for (const auto* dataset : {&result.itdk_v4, &result.itdk_v6, &result.atlas})
    result.router_addresses.insert(dataset->addresses.begin(),
                                   dataset->addresses.end());

  std::unique_ptr<sim::LoopbackReflector> reflector;
  std::optional<net::EngineConfig> engine_config = options.net_engine;
  if (engine_config.has_value()) {
    sim::ReflectorConfig reflector_config;
    reflector_config.rtt = options.net_rtt;
    reflector_config.seed = options.seed ^ 0x5eaf1ec7;
    auto started = sim::LoopbackReflector::start(model, reflector_config);
    if (!started.ok()) {
      std::fprintf(stderr, "net engine unavailable: %s\n",
                   started.error().c_str());
      return 3;
    }
    reflector = std::move(started).value();
    engine_config->sim_peer = reflector->endpoint();
  }

  const auto campaign_options = [&](net::Family family) {
    const bool v6 = family == net::Family::kIpv6;
    scan::CampaignOptions c;
    c.family = family;
    if (v6) c.targets = result.hitlist_v6;
    c.first_scan_start = v6 ? 0 : 3 * util::kDay;
    c.scan_gap = v6 ? options.v6_scan_gap : options.v4_scan_gap;
    c.rate_pps = v6 ? options.v6_rate_pps : options.v4_rate_pps;
    c.seed = options.seed + (v6 ? 1 : 2);
    c.shards = options.scan_shards;
    c.parallel = options.parallel;
    c.obs = obs::ObsOptions{&observer, v6 ? "v6" : "v4"};
    c.pacer = options.pacer;
    c.wire_fast_path = options.wire_fast_path;
    c.fabric = options.fabric;
    c.net_engine = engine_config;
    if (!options.store.dir.empty()) {
      c.store = options.store;
      c.store.dir = options.store.dir + (v6 ? "/v6" : "/v4");
    }
    return c;
  };
  const scan::CampaignOptions v6_options = campaign_options(net::Family::kIpv6);
  long span = ledger.open("scan.campaign_v6", "scan");
  result.v6_campaign = scan::run_two_scan_campaign(model, v6_options);
  const double v6_ms = ledger.close(span);
  const auto v6_scans =
      adopt_scan_spans(observer, "v6", epoch_offset_ms, span, ledger);
  const scan::CampaignOptions v4_options = campaign_options(net::Family::kIpv4);
  span = ledger.open("scan.campaign_v4", "scan");
  result.v4_campaign = scan::run_two_scan_campaign(model, v4_options);
  const double v4_ms = ledger.close(span);
  const auto v4_scans =
      adopt_scan_spans(observer, "v4", epoch_offset_ms, span, ledger);
  if (!result.v4_campaign.net_error.empty() ||
      !result.v6_campaign.net_error.empty()) {
    std::fprintf(stderr, "net engine failed: %s%s\n",
                 result.v6_campaign.net_error.c_str(),
                 result.v4_campaign.net_error.c_str());
    return 3;
  }
  m.set("scan.campaign_v6_ms", v6_ms);
  m.set("scan.campaign_v4_ms", v4_ms);
  const double scan1_ms = v6_scans.first + v4_scans.first;
  const double scan2_ms = v6_scans.second + v4_scans.second;
  m.set("scan.scan1_ms", scan1_ms);
  m.set("scan.scan2_ms", scan2_ms);
  m.set("scan.campaign_unattributed_ms", v6_ms + v4_ms - scan1_ms - scan2_ms);
  m.set("scan.shard_skew", shard_skew(observer, "v4.scan1"));

  const core::FilterPipeline filter(options.filter);
  const bool store_backed = !options.store.dir.empty();
  double join_ms = 0.0, filter_ms = 0.0, overlap_ms = 0.0;
  const auto join_filter = [&](const scan::CampaignPair& campaign,
                               const char* family, core::JoinStats& stats,
                               std::vector<core::JoinedRecord>& joined,
                               std::vector<core::JoinedRecord>& records,
                               core::FilterReport& report) {
    if (store_backed) {
      bool ok = false;
      overlap_ms += ledger.time(
          std::string("core.join_filter_overlap.") + family, "core", [&] {
            auto outcome = core::join_filter_overlapped(
                campaign.scan1, campaign.scan2, filter, options.parallel, {});
            ok = outcome.ok;
            stats = outcome.stats;
            joined = std::move(outcome.joined);
            records = std::move(outcome.survivors);
            report = outcome.report;
          });
      return ok;
    }
    join_ms += ledger.time(std::string("core.join.") + family, "core", [&] {
      joined = core::join_scans(campaign.scan1, campaign.scan2, &stats,
                                options.parallel);
    });
    filter_ms += ledger.time(std::string("core.filter.") + family, "core", [&] {
      report = filter.apply_columnar(joined, records, options.parallel, {});
    });
    return true;
  };
  const bool joined_ok =
      join_filter(result.v4_campaign, "v4", result.v4_join_stats,
                  result.v4_joined, result.v4_records, result.v4_report) &&
      join_filter(result.v6_campaign, "v6", result.v6_join_stats,
                  result.v6_joined, result.v6_records, result.v6_report);
  if (!joined_ok) {
    std::fprintf(stderr, "overlapped join+filter failed on a store block\n");
    return 4;
  }
  const double alias_ms = ledger.time("core.alias", "core", [&] {
    const std::span<const core::JoinedRecord> parts[] = {result.v4_records,
                                                         result.v6_records};
    result.resolution = core::resolve_aliases(
        std::span<const std::span<const core::JoinedRecord>>(parts),
        options.alias, options.parallel, {});
  });
  m.set("core.annotate_ms", ledger.time("core.annotate", "core", [&] {
    result.devices = core::annotate_devices(result.resolution, result.as_table,
                                            result.router_addresses);
  }));
  pipeline_ms = ledger.close(root);
  reflector.reset();

  const double scan_records = static_cast<double>(
      result.v4_campaign.scan1.responsive() +
      result.v4_campaign.scan2.responsive() +
      result.v6_campaign.scan1.responsive() +
      result.v6_campaign.scan2.responsive());
  const double filter_input =
      static_cast<double>(result.v4_report.input + result.v6_report.input);
  const double survivors =
      static_cast<double>(result.v4_report.output + result.v6_report.output);
  if (store_backed) {
    m.set("core.join_filter_overlap_ms", overlap_ms);
  } else {
    m.set("core.join_ms", join_ms);
    m.set("core.join_ns_per_record",
          join_ms * 1e6 / std::max(1.0, scan_records));
    m.set("core.filter_ms", filter_ms);
    m.set("core.filter_ns_per_record",
          filter_ms * 1e6 / std::max(1.0, filter_input));
  }
  m.set("core.filter_survivor_frac", survivors / std::max(1.0, filter_input));
  m.set("core.alias_ms", alias_ms);
  m.set("core.alias_ns_per_record", alias_ms * 1e6 / std::max(1.0, survivors));
  if (engine_config.has_value()) {
    net::NetIoStats io = result.v4_campaign.net_io;
    io += result.v6_campaign.net_io;
    set_net_metrics(io, m);
  }
  digest_hex = hex64(digest_pipeline(result).digest);

  // ---- per-layer replays, outside the pipeline span ----
  const long replay = ledger.open("replay", "replay");
  if (store_backed)
    replay_store(result.v4_campaign.scan1.materialize_records(), options.store,
                 ledger, m);
  result = core::PipelineResult();  // release the records before the replays

  // One v4 scan-1 shard over the pre-churn world, cut as the campaign cuts
  // it: the seeded shuffle of the target union, first of `shards` slices.
  topo::MaterializedWorldModel pristine_model(pristine);
  const std::uint64_t v4_churn_seed = v4_options.seed ^ 0xc0ffee;
  std::vector<net::IpAddress> order =
      pristine_model.campaign_targets(net::Family::kIpv4, v4_churn_seed);
  util::Rng rng(v4_options.seed * 2 + 1);
  rng.shuffle(order);
  const std::size_t shard_count = std::max<std::size_t>(v4_options.shards, 1);
  const scan::SpanTargets slice(std::span<const net::IpAddress>(
      order.data(), order.size() / shard_count));
  std::vector<util::Bytes> reports;
  replay_shard(pristine_model, v4_options, slice, ledger, m, reports);
  replay_wire(reports, ledger, m);

  // Target union and churn on the model copy, in campaign order: the v6
  // campaign's churn precedes the v4 campaign's target union.
  const std::uint64_t v6_churn_seed = v6_options.seed ^ 0xc0ffee;
  double targets_ms = ledger.time("replay.topo.campaign_targets.v6", "topo", [&] {
    (void)pristine_model.campaign_targets(net::Family::kIpv6, v6_churn_seed);
  });
  double churn_ms = ledger.time("replay.topo.apply_churn.v6", "topo", [&] {
    pristine_model.apply_churn(v6_churn_seed);
  });
  targets_ms += ledger.time("replay.topo.campaign_targets.v4", "topo", [&] {
    (void)pristine_model.campaign_targets(net::Family::kIpv4, v4_churn_seed);
  });
  churn_ms += ledger.time("replay.topo.apply_churn.v4", "topo", [&] {
    pristine_model.apply_churn(v4_churn_seed);
  });
  ledger.close(replay);
  m.set("topo.campaign_targets_ms", targets_ms);
  m.set("topo.apply_churn_ms", churn_ms);
  return 0;
}

int trace_census(std::uint64_t seed, Ledger& ledger, Metrics& m,
                 std::string& digest_hex, double& pipeline_ms) {
  const topo::ProceduralConfig config = census_world(seed);
  std::unique_ptr<topo::ProceduralWorld> world;
  m.set("topo.generate_world_ms", ledger.time("topo.generate_world", "topo", [&] {
    world = std::make_unique<topo::ProceduralWorld>(config);
  }));
  obs::RunObserver observer;
  const double epoch_offset_ms = ledger.now_ms() - observer.trace().now_ms();
  scan::CampaignOptions options = census_campaign(config, seed);
  options.obs = obs::ObsOptions{&observer, "v4"};

  const long root = ledger.open("pipeline", "pipeline");
  const long span = ledger.open("scan.campaign_v4", "scan");
  const scan::CampaignPair pair = scan::run_two_scan_campaign(*world, options);
  const double campaign_ms = ledger.close(span);
  pipeline_ms = ledger.close(root);
  const auto scans =
      adopt_scan_spans(observer, "v4", epoch_offset_ms, span, ledger);
  m.set("scan.campaign_v4_ms", campaign_ms);
  m.set("scan.scan1_ms", scans.first);
  m.set("scan.scan2_ms", scans.second);
  m.set("scan.campaign_unattributed_ms",
        campaign_ms - scans.first - scans.second);
  m.set("scan.shard_skew", shard_skew(observer, "v4.scan1"));
  m.set("topo.view_cache_hit_rate", pair.responder_cache.hit_rate());
  m.set("topo.view_cache_misses",
        static_cast<double>(pair.responder_cache.misses));
  digest_hex =
      hex64(digest_campaign(pair, options.target_spec->total()).digest);

  // One scan-1 shard of the Feistel sweep over a fresh (pre-churn) world.
  const long replay = ledger.open("replay", "replay");
  const topo::ProceduralWorld replay_world(config);
  const scan::TargetGenerator generator(*options.target_spec,
                                        options.seed * 2 + 1);
  const std::size_t shard_count = std::max<std::size_t>(options.shards, 1);
  const scan::GeneratorSlice slice(generator, 0,
                                   generator.size() / shard_count);
  std::vector<util::Bytes> reports;
  replay_shard(replay_world, options, slice, ledger, m, reports);
  replay_wire(reports, ledger, m);
  ledger.close(replay);
  return 0;
}

}  // namespace

int run_traced(Workload workload, std::uint64_t seed,
               const std::string& spill_dir, const std::string& spans_path) {
  Ledger ledger(std::string(workload_name(workload)) + "-" +
                std::to_string(seed) + "-" + std::to_string(::getpid()));
  Metrics m;
  std::string digest_hex;
  double pipeline_ms = 0.0;
  const int status =
      workload == Workload::kCensusSweep
          ? trace_census(seed, ledger, m, digest_hex, pipeline_ms)
          : trace_pipeline(workload, seed, spill_dir, ledger, m, digest_hex,
                           pipeline_ms);
  if (status != 0) return status;
  if (!ledger.write(spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    return 5;
  }
  std::printf("{\"digest\":\"%s\",\"pipeline_s\":%.9f,\"metrics\":%s}\n",
              digest_hex.c_str(), pipeline_ms / 1e3, m.json().c_str());
  return 0;
}

}  // namespace perfbench
