#include "workload.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {

// The census world and campaign seeds are the workload seed xor this, so
// kDefaultSeed maps onto the library's default (20210416).
constexpr std::uint64_t kCensusSeedXor = kDefaultSeed ^ 20210416;

class Fnv {
 public:
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void i64(std::int64_t value) { bytes(&value, sizeof value); }
  void str(std::string_view text) {
    u64(text.size());
    bytes(text.data(), text.size());
  }
  void address(const net::IpAddress& address) {
    if (address.is_v4()) {
      u64(4);
      u64(address.v4().value());
    } else {
      u64(6);
      bytes(address.v6().bytes().data(), 16);
    }
  }
  void engine(const snmp::EngineId& engine) {
    u64(engine.size());
    bytes(engine.raw().data(), engine.size());
  }
  void record(const scan::ScanRecord& r) {
    address(r.target);
    engine(r.engine_id);
    u64(r.engine_boots);
    u64(r.engine_time);
    i64(r.send_time);
    i64(r.receive_time);
    u64(r.response_count);
    u64(r.response_bytes);
    u64(r.extra_engines.size());
    for (const auto& extra : r.extra_engines) engine(extra);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// The deterministic subset the loopback reflector mirrors bit for bit
// (zero loss, one fixed RTT, no rng-observable agent behaviour), over a
// full-Internet-shaped world scaled down so that a run through kernel
// sockets spends its time on probe traffic rather than on the engines'
// linger waits. Mega-amplifiers are off: one probe's 500-2000 copies
// overflow a default-sized engine receive buffer, and which copies the
// kernel drops varies from run to run.
topo::WorldConfig loopback_world() {
  topo::WorldConfig config = topo::WorldConfig::full_internet();
  config.future_time_rate = 0.0;
  config.time_jitter_rate = 0.0;
  config.load_balancer_rate = 0.0;
  config.mega_amplifier_inverse = 0;
  config.tail_as_count = 600;
  config.router_scale = 36.0;
  config.mega_scale = 36.0;
  config.device_scale = 150.0;
  return config;
}

sim::FabricConfig loopback_fabric() {
  sim::FabricConfig fabric;
  fabric.probe_loss = 0.0;
  fabric.response_loss = 0.0;
  fabric.min_rtt = 20 * util::kMillisecond;
  fabric.max_rtt = 20 * util::kMillisecond;
  return fabric;
}

void hash_report(Fnv& h, const core::FilterReport& report,
                 const core::JoinStats& stats) {
  h.u64(stats.first_only);
  h.u64(stats.second_only);
  h.u64(stats.overlap);
  h.u64(report.input);
  for (const std::size_t dropped : report.dropped) h.u64(dropped);
  h.u64(report.output);
}

bool funnel_adds_up(const core::FilterReport& report,
                    std::size_t joined, std::size_t survivors) {
  return report.input == joined && report.output == survivors &&
         report.input == report.output + report.total_dropped();
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "table1") return Workload::kTable1;
  if (name == "census_sweep") return Workload::kCensusSweep;
  if (name == "table1_store") return Workload::kTable1Store;
  if (name == "table1_loopback") return Workload::kTable1Loopback;
  return std::nullopt;
}

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::kTable1: return "table1";
    case Workload::kCensusSweep: return "census_sweep";
    case Workload::kTable1Store: return "table1_store";
    case Workload::kTable1Loopback: return "table1_loopback";
  }
  return "?";
}

core::PipelineOptions pipeline_options(Workload workload, std::uint64_t seed,
                                       const std::string& store_dir,
                                       bool sim_twin) {
  // The world keeps its library seed whatever the workload seed: between
  // world seeds the heavy-tailed AS sizes move the probe count and RSS by
  // about 10%, a different workload rather than noise. The workload seed
  // drives the measurement's own randomness: probe order, loss and RTT
  // draws, churn and dataset sampling.
  core::PipelineOptions options;
  options.seed = seed;
  options.parallel.threads = kThreads;
  if (workload == Workload::kTable1Loopback) {
    options.world = loopback_world();
    options.fabric = loopback_fabric();
    options.parallel.threads = kThreads - 1;  // the reflector takes one
    if (!sim_twin) {
      net::EngineConfig engine;
      engine.clock = net::EngineClock::kVirtual;
      // Eight shard engines share the reflector's receive buffer; the flow
      // window (2 x batch) keeps their combined in-flight load under it.
      engine.batch_size = 32;
      options.net_engine = engine;
      options.net_rtt = loopback_fabric().min_rtt;
    }
    return options;
  }
  options.world = topo::WorldConfig::full_internet();
  if (workload == Workload::kTable1Store) {
    options.store.dir = store_dir;
    // ~1/30 of the v4 record volume stays resident; the rest spills.
    options.store.max_resident_bytes = std::size_t{1} << 20;
  }
  return options;
}

topo::ProceduralConfig census_world(std::uint64_t seed) {
  topo::ProceduralConfig config = topo::ProceduralConfig::census(kCensusAddresses);
  config.seed = seed ^ kCensusSeedXor;
  return config;
}

scan::CampaignOptions census_campaign(const topo::ProceduralConfig& world,
                                      std::uint64_t seed) {
  scan::CampaignOptions options;
  options.seed = seed ^ kCensusSeedXor;
  // Virtual-time rate: it sizes the outstanding-probe window, never the
  // wall speed (same choice as bench_world).
  options.rate_pps = 50000.0;
  options.parallel.threads = kThreads;
  scan::TargetSpec spec;
  for (const auto& region : world.regions) spec.ranges.push_back(region.v4);
  options.target_spec = spec;
  return options;
}

PipelineDigest digest_pipeline(const core::PipelineResult& result) {
  PipelineDigest out;
  Fnv h;
  for (const auto* joined : {&result.v4_joined, &result.v6_joined}) {
    h.u64(joined->size());
    for (const auto& record : *joined) {
      h.address(record.address);
      h.record(record.first);
      h.record(record.second);
    }
  }
  for (const auto* survivors : {&result.v4_records, &result.v6_records}) {
    h.u64(survivors->size());
    for (const auto& record : *survivors) h.address(record.address);
  }
  hash_report(h, result.v4_report, result.v4_join_stats);
  hash_report(h, result.v6_report, result.v6_join_stats);
  h.u64(result.resolution.sets.size());
  for (const auto& set : result.resolution.sets) {
    h.u64(set.addresses.size());
    for (const auto& address : set.addresses) h.address(address);
    h.engine(set.engine_id);
    h.u64(set.engine_boots);
    h.i64(set.last_reboot);
  }
  h.u64(result.devices.size());
  for (const auto& device : result.devices) {
    h.address(device.set != nullptr && !device.set->addresses.empty()
                  ? device.set->addresses.front()
                  : net::IpAddress());
    h.str(device.fingerprint.vendor);
    h.u64(static_cast<std::uint64_t>(device.fingerprint.source));
    h.u64(static_cast<std::uint64_t>(device.stack));
    h.u64(device.is_router ? 1 : 0);
    h.u64(device.as_info.has_value() ? device.as_info->asn : 0);
    h.i64(device.last_reboot);
  }
  out.digest = h.value();
  for (const auto* campaign : {&result.v4_campaign, &result.v6_campaign})
    out.probes += campaign->scan1.targets_probed + campaign->scan2.targets_probed;
  out.v4_joined = result.v4_joined.size();
  out.v4_survivors = result.v4_records.size();
  out.v6_survivors = result.v6_records.size();
  out.alias_sets = result.resolution.sets.size();
  out.devices = result.devices.size();
  out.consistent =
      !result.interrupted && result.v4_campaign.net_error.empty() &&
      out.v4_survivors > 0 && out.v6_survivors > 0 && out.alias_sets > 0 &&
      out.devices == out.alias_sets &&
      funnel_adds_up(result.v4_report, result.v4_joined.size(),
                     result.v4_records.size()) &&
      funnel_adds_up(result.v6_report, result.v6_joined.size(),
                     result.v6_records.size());
  return out;
}

CampaignDigest digest_campaign(const scan::CampaignPair& pair,
                               std::uint64_t expected_targets_per_scan) {
  CampaignDigest out;
  Fnv h;
  bool readable = true;
  for (const auto* scan : {&pair.scan1, &pair.scan2}) {
    h.u64(scan->targets_probed);
    h.u64(scan->responsive());
    h.i64(scan->start_time);
    h.i64(scan->end_time);
    readable = readable && scan->for_each_record([&](const scan::ScanRecord& r) {
                             h.record(r);
                           }).ok();
  }
  out.digest = h.value();
  out.probes = pair.scan1.targets_probed + pair.scan2.targets_probed;
  out.scan1_responsive = pair.scan1.responsive();
  out.scan2_responsive = pair.scan2.responsive();
  out.consistent = readable && !pair.interrupted &&
                   pair.scan1.targets_probed == expected_targets_per_scan &&
                   pair.scan2.targets_probed == expected_targets_per_scan &&
                   out.scan1_responsive > 0 && out.scan2_responsive > 0;
  return out;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
  return buffer;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
