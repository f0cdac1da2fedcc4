#include "core/report.hpp"

#include <algorithm>
#include <sstream>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace snmpv3fp::core {

namespace {

double ratio(std::size_t numerator, std::size_t denominator) {
  if (denominator == 0) return 0.0;
  return static_cast<double>(numerator) / static_cast<double>(denominator);
}

RunReport::CampaignReport summarize_campaign(const std::string& family,
                                             const scan::CampaignPair& pair) {
  RunReport::CampaignReport out;
  out.family = family;
  out.targets = pair.scan1.targets_probed;
  out.responsive1 = pair.scan1.responsive();
  out.responsive2 = pair.scan2.responsive();
  out.response_rate1 = ratio(out.responsive1, pair.scan1.targets_probed);
  out.response_rate2 = ratio(out.responsive2, pair.scan2.targets_probed);
  // Overlap of scan-1 responders that answered scan 2 (by address). The
  // accessors stream the stores; addresses (16 bytes each) are cheap
  // enough to collect.
  std::vector<net::IpAddress> first, second;
  first.reserve(pair.scan1.responsive());
  (void)pair.scan1.for_each_record(
      [&](const scan::ScanRecord& record) { first.push_back(record.target); });
  second.reserve(pair.scan2.responsive());
  (void)pair.scan2.for_each_record(
      [&](const scan::ScanRecord& record) { second.push_back(record.target); });
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
  std::vector<net::IpAddress> overlap;
  overlap.reserve(std::min(first.size(), second.size()));
  std::set_intersection(first.begin(), first.end(), second.begin(),
                        second.end(), std::back_inserter(overlap));
  out.cross_scan_consistency = ratio(overlap.size(), first.size());
  out.undecodable_responses =
      pair.scan1.undecodable_responses + pair.scan2.undecodable_responses;
  out.pacer_backoffs = pair.scan1.pacer_backoffs + pair.scan2.pacer_backoffs;
  out.unverified_responses =
      pair.scan1.unverified_responses + pair.scan2.unverified_responses;
  out.off_target_responses =
      pair.scan1.off_target_responses + pair.scan2.off_target_responses;
  out.send_ring_overruns =
      pair.scan1.send_ring_overruns + pair.scan2.send_ring_overruns;
  out.fabric = pair.fabric_stats;
  out.net_io = pair.net_io;
  return out;
}

void write_fabric(obs::JsonWriter& json, const sim::FabricStats& fabric) {
  json.begin_object();
  json.kv("datagrams_sent", static_cast<std::uint64_t>(fabric.datagrams_sent));
  json.kv("datagrams_delivered",
          static_cast<std::uint64_t>(fabric.datagrams_delivered));
  json.kv("responses_generated",
          static_cast<std::uint64_t>(fabric.responses_generated));
  json.kv("responses_received",
          static_cast<std::uint64_t>(fabric.responses_received));
  json.key("drops").begin_object();
  json.kv("probes_lost", static_cast<std::uint64_t>(fabric.probes_lost));
  json.kv("probes_dead", static_cast<std::uint64_t>(fabric.probes_dead));
  json.kv("probes_filtered",
          static_cast<std::uint64_t>(fabric.probes_filtered));
  json.kv("probes_rate_limited",
          static_cast<std::uint64_t>(fabric.probes_rate_limited));
  json.kv("responses_lost", static_cast<std::uint64_t>(fabric.responses_lost));
  json.kv("responses_duplicated",
          static_cast<std::uint64_t>(fabric.responses_duplicated));
  json.kv("probes_corrupted",
          static_cast<std::uint64_t>(fabric.probes_corrupted));
  json.kv("responses_corrupted",
          static_cast<std::uint64_t>(fabric.responses_corrupted));
  json.end_object();
  json.end_object();
}

void write_net_io(obs::JsonWriter& json, const net::NetIoStats& net) {
  json.begin_object();
  json.kv("datagrams_sent", net.datagrams_sent);
  json.kv("datagrams_received", net.datagrams_received);
  json.kv("sendmmsg_calls", net.sendmmsg_calls);
  json.kv("recvmmsg_calls", net.recvmmsg_calls);
  json.kv("sendto_calls", net.sendto_calls);
  json.kv("recvfrom_calls", net.recvfrom_calls);
  json.kv("gso_batches", net.gso_batches);
  json.key("drops").begin_object();
  json.kv("send_pressure", net.send_pressure);
  json.kv("send_refused", net.send_refused);
  json.kv("send_errors", net.send_errors);
  json.kv("recv_truncated", net.recv_truncated);
  json.kv("recv_bad_frame", net.recv_bad_frame);
  json.kv("recv_errors", net.recv_errors);
  json.kv("drop_notices", net.drop_notices);
  json.kv("flow_stalls", net.flow_stalls);
  json.end_object();
  json.end_object();
}

}  // namespace

RunReport build_run_report(const PipelineResult& result,
                           const PipelineOptions& options,
                           const obs::RunObserver* observer) {
  RunReport report;
  report.seed = options.seed;
  report.threads = options.parallel.resolved_threads();
  report.scan_shards = options.scan_shards;

  report.campaigns.push_back(summarize_campaign("ipv4", result.v4_campaign));
  if (options.scan_ipv6)
    report.campaigns.push_back(summarize_campaign("ipv6", result.v6_campaign));

  for (const auto& [family, filter_report] :
       {std::make_pair(std::string("ipv4"), &result.v4_report),
        std::make_pair(std::string("ipv6"), &result.v6_report)}) {
    RunReport::Funnel funnel;
    funnel.family = family;
    funnel.input = filter_report->input;
    funnel.dropped = filter_report->dropped;
    funnel.output = filter_report->output;
    report.funnels.push_back(std::move(funnel));
  }

  report.alias.sets = result.resolution.sets.size();
  report.alias.non_singleton_sets = result.resolution.non_singleton_count();
  report.alias.ips_in_non_singletons =
      result.resolution.ips_in_non_singletons();
  report.alias.dual_stack_sets = breakdown_by_stack(result.resolution).dual_sets;

  if (observer != nullptr) {
    report.spans = observer->trace().snapshot();
    report.shard_progress = observer->shard_progress();
    report.metrics = observer->metrics().snapshot();
    report.time_series = observer->timeline().snapshot();
  }
  return report;
}

std::string RunReport::to_json() const {
  obs::JsonWriter json;
  json.begin_object();
  json.kv("schema", std::uint64_t{1});
  json.key("run").begin_object();
  json.kv("seed", seed);
  json.kv("threads", static_cast<std::uint64_t>(threads));
  json.kv("scan_shards", static_cast<std::uint64_t>(scan_shards));
  json.end_object();

  json.key("campaigns").begin_array();
  for (const auto& campaign : campaigns) {
    json.begin_object();
    json.kv("family", campaign.family);
    json.kv("targets", static_cast<std::uint64_t>(campaign.targets));
    json.kv("responsive_scan1",
            static_cast<std::uint64_t>(campaign.responsive1));
    json.kv("responsive_scan2",
            static_cast<std::uint64_t>(campaign.responsive2));
    json.kv("response_rate_scan1", campaign.response_rate1);
    json.kv("response_rate_scan2", campaign.response_rate2);
    json.kv("cross_scan_consistency", campaign.cross_scan_consistency);
    json.kv("undecodable_responses",
            static_cast<std::uint64_t>(campaign.undecodable_responses));
    json.kv("pacer_backoffs",
            static_cast<std::uint64_t>(campaign.pacer_backoffs));
    json.kv("unverified_responses",
            static_cast<std::uint64_t>(campaign.unverified_responses));
    json.kv("off_target_responses",
            static_cast<std::uint64_t>(campaign.off_target_responses));
    json.kv("send_ring_overruns",
            static_cast<std::uint64_t>(campaign.send_ring_overruns));
    json.key("fabric");
    write_fabric(json, campaign.fabric);
    json.key("net_io");
    write_net_io(json, campaign.net_io);
    json.end_object();
  }
  json.end_array();

  json.key("filter_funnels").begin_array();
  for (const auto& funnel : funnels) {
    json.begin_object();
    json.kv("family", funnel.family);
    json.kv("input", static_cast<std::uint64_t>(funnel.input));
    json.key("dropped").begin_object();
    for (std::size_t i = 0; i < kFilterStageCount; ++i)
      json.kv(to_slug(static_cast<FilterStage>(i)),
              static_cast<std::uint64_t>(funnel.dropped[i]));
    json.end_object();
    json.kv("output", static_cast<std::uint64_t>(funnel.output));
    json.end_object();
  }
  json.end_array();

  json.key("alias").begin_object();
  json.kv("sets", static_cast<std::uint64_t>(alias.sets));
  json.kv("non_singleton_sets",
          static_cast<std::uint64_t>(alias.non_singleton_sets));
  json.kv("ips_in_non_singletons",
          static_cast<std::uint64_t>(alias.ips_in_non_singletons));
  json.kv("dual_stack_sets",
          static_cast<std::uint64_t>(alias.dual_stack_sets));
  json.end_object();

  json.key("spans").begin_array();
  for (const auto& span : spans) {
    json.begin_object();
    json.kv("name", span.name);
    json.kv("depth", static_cast<std::uint64_t>(span.depth));
    json.kv("wall_ms", span.wall_ms);
    json.kv("virtual_s", util::to_seconds(span.virtual_duration));
    json.end_object();
  }
  json.end_array();

  json.key("shard_progress").begin_array();
  for (const auto& row : shard_progress) {
    json.begin_object();
    json.kv("stage", row.stage);
    json.kv("shard", static_cast<std::uint64_t>(row.shard));
    json.kv("targets", static_cast<std::uint64_t>(row.targets));
    json.kv("responses", static_cast<std::uint64_t>(row.responses));
    json.kv("wall_ms", row.wall_ms);
    json.end_object();
  }
  json.end_array();

  // MetricsSnapshot and TimelineSnapshot render themselves; splice the
  // pre-rendered objects in via the writer's raw string (both are already
  // valid JSON).
  json.key("metrics");
  json.raw(metrics.to_json());
  json.key("time_series");
  json.raw(time_series.to_json());

  json.end_object();
  return json.str();
}

std::string RunReport::to_table() const {
  std::ostringstream out;

  out << "Run: seed=" << seed << " threads=" << threads
      << " scan_shards=" << scan_shards << "\n\n";

  util::TablePrinter campaigns_table(
      {"Campaign", "Targets", "Scan1", "Scan2", "Rate1", "Rate2",
       "Consistency"});
  for (const auto& campaign : campaigns) {
    campaigns_table.add_row(
        {campaign.family, util::fmt_count(campaign.targets),
         util::fmt_count(campaign.responsive1),
         util::fmt_count(campaign.responsive2),
         util::fmt_percent(campaign.response_rate1),
         util::fmt_percent(campaign.response_rate2),
         util::fmt_percent(campaign.cross_scan_consistency)});
  }
  out << campaigns_table.render() << "\n";

  util::TablePrinter fabric_table(
      {"Campaign", "Sent", "Delivered", "Lost", "Dead", "RateLim", "RespLost",
       "Dup"});
  for (const auto& campaign : campaigns) {
    const auto& fabric = campaign.fabric;
    fabric_table.add_row({campaign.family,
                          util::fmt_count(fabric.datagrams_sent),
                          util::fmt_count(fabric.datagrams_delivered),
                          util::fmt_count(fabric.probes_lost),
                          util::fmt_count(fabric.probes_dead),
                          util::fmt_count(fabric.probes_rate_limited),
                          util::fmt_count(fabric.responses_lost),
                          util::fmt_count(fabric.responses_duplicated)});
  }
  out << fabric_table.render() << "\n";

  // Kernel I/O accounting appears only when a campaign actually probed
  // through real sockets (net/batched_udp.hpp).
  bool any_net = false;
  for (const auto& campaign : campaigns)
    any_net |= campaign.net_io.datagrams_sent != 0;
  if (any_net) {
    util::TablePrinter net_table({"Campaign", "Sent", "Recv", "sendmmsg",
                                  "GSO", "Pressure", "Refused", "Trunc",
                                  "Stalls"});
    for (const auto& campaign : campaigns) {
      const auto& net = campaign.net_io;
      net_table.add_row({campaign.family, util::fmt_count(net.datagrams_sent),
                         util::fmt_count(net.datagrams_received),
                         util::fmt_count(net.sendmmsg_calls),
                         util::fmt_count(net.gso_batches),
                         util::fmt_count(net.send_pressure),
                         util::fmt_count(net.send_refused),
                         util::fmt_count(net.recv_truncated),
                         util::fmt_count(net.flow_stalls)});
    }
    out << net_table.render() << "\n";
  }

  // Robustness counters only clutter the output when something actually
  // dropped, failed validation, backed off, or got corrupted — clean
  // fixed-rate runs skip it.
  bool any_robustness = false;
  for (const auto& campaign : campaigns)
    any_robustness |= campaign.undecodable_responses != 0 ||
                      campaign.unverified_responses != 0 ||
                      campaign.off_target_responses != 0 ||
                      campaign.send_ring_overruns != 0 ||
                      campaign.pacer_backoffs != 0 ||
                      campaign.fabric.probes_corrupted != 0 ||
                      campaign.fabric.responses_corrupted != 0;
  if (any_robustness) {
    util::TablePrinter robustness_table(
        {"Campaign", "Undecodable", "Unverified", "OffTarget", "RingOverruns",
         "Backoffs", "ProbeCorrupt", "RespCorrupt"});
    for (const auto& campaign : campaigns)
      robustness_table.add_row(
          {campaign.family, util::fmt_count(campaign.undecodable_responses),
           util::fmt_count(campaign.unverified_responses),
           util::fmt_count(campaign.off_target_responses),
           util::fmt_count(campaign.send_ring_overruns),
           util::fmt_count(campaign.pacer_backoffs),
           util::fmt_count(campaign.fabric.probes_corrupted),
           util::fmt_count(campaign.fabric.responses_corrupted)});
    out << robustness_table.render() << "\n";
  }

  util::TablePrinter funnel_table({"Filter stage", "ipv4", "ipv6"});
  if (funnels.size() == 2) {
    funnel_table.add_row({"input", util::fmt_count(funnels[0].input),
                          util::fmt_count(funnels[1].input)});
    for (std::size_t i = 0; i < kFilterStageCount; ++i)
      funnel_table.add_row(
          {std::string(to_string(static_cast<FilterStage>(i))),
           util::fmt_count(funnels[0].dropped[i]),
           util::fmt_count(funnels[1].dropped[i])});
    funnel_table.add_row({"output", util::fmt_count(funnels[0].output),
                          util::fmt_count(funnels[1].output)});
    out << funnel_table.render() << "\n";
  }

  out << "Alias resolution: " << util::fmt_count(alias.sets) << " sets, "
      << util::fmt_count(alias.non_singleton_sets) << " non-singleton ("
      << util::fmt_count(alias.ips_in_non_singletons) << " IPs), "
      << util::fmt_count(alias.dual_stack_sets) << " dual-stack\n\n";

  if (!spans.empty()) {
    util::TablePrinter span_table({"Span", "Wall ms", "Virtual s"});
    for (const auto& span : spans) {
      std::string name(span.depth * 2, ' ');
      name += span.name;
      span_table.add_row({name, util::fmt_double(span.wall_ms, 2),
                          util::fmt_double(util::to_seconds(span.virtual_duration), 1)});
    }
    out << span_table.render() << "\n";
  }

  if (!shard_progress.empty()) {
    util::TablePrinter shard_table(
        {"Stage", "Shard", "Targets", "Responses", "Wall ms"});
    for (const auto& row : shard_progress)
      shard_table.add_row({row.stage, std::to_string(row.shard),
                           util::fmt_count(row.targets),
                           util::fmt_count(row.responses),
                           util::fmt_double(row.wall_ms, 2)});
    out << shard_table.render() << "\n";
  }

  bool any_observations = false;
  for (const auto& row : metrics.histograms) any_observations |= row.total != 0;
  if (any_observations) {
    util::TablePrinter hist_table({"Histogram", "Count", "p50", "p90", "p99"});
    for (const auto& row : metrics.histograms) {
      if (row.total == 0) continue;
      hist_table.add_row({row.name, util::fmt_count(row.total),
                          util::fmt_double(row.p50(), 2),
                          util::fmt_double(row.p90(), 2),
                          util::fmt_double(row.p99(), 2)});
    }
    out << hist_table.render() << "\n";
  }

  if (!time_series.empty()) {
    std::size_t points = 0;
    for (const auto& series : time_series.series) points += series.points.size();
    out << "Timeline: " << util::fmt_count(time_series.series.size())
        << " virtual series (" << util::fmt_count(points) << " points), "
        << util::fmt_count(time_series.wall.size()) << " wall samples\n";
  }

  return out.str();
}

}  // namespace snmpv3fp::core
