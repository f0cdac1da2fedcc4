// Every paper artifact — Tables 1-3, Figures 4-20, the §5-§9 comparisons
// and the identifier ablation — reproduced against two pipeline runs, the
// full-Internet world and the router-focus world, each built once.
//
// Each "paper vs measured" row is a typed claim: a numeric measured value
// held to a closed band. The band comes from one of three places:
//   paper      the paper's own statement: a bound (">80%") as written, a
//              stated value ("39%") within +-2 points, an approximate one
//              ("~60%") within +-5 points or, for ratios, +-10%;
//   pinned     the paper makes a qualitative claim with no number, so the
//              row holds the reproduction to its value at this revision
//              +- a stated tolerance;
//   deviation  the reproduction does not meet the paper; the band is the
//              value at this revision +- a stated tolerance, and the row
//              says so (EXPERIMENTS.md lists every deviation).
// A row whose measured side is not a number is printed as informational
// and not checked. The process exits non-zero, listing every missed row,
// when any gated claim falls outside its band.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>

#include "baselines/compare.hpp"
#include "baselines/midar.hpp"
#include "baselines/nmap_lite.hpp"
#include "baselines/router_names.hpp"
#include "baselines/speedtrap.hpp"
#include "common.hpp"
#include "core/anomaly.hpp"
#include "sim/stack.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace snmpv3fp;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// How a claim's measured value and band bounds print.
struct Unit {
  enum Kind : std::uint8_t { kPercent, kNumber, kYesNo };
  Kind kind = kPercent;
  int dp = 1;
  const char* suffix = "";

  std::string render(double value) const {
    if (std::isinf(value)) return "inf";
    switch (kind) {
      case kPercent:
        return util::fmt_percent(value, dp);
      case kYesNo:
        return value >= 0.5 ? "yes" : "NO";
      case kNumber:
        break;
    }
    if (dp == 0 && value >= 0)
      return util::fmt_count(static_cast<std::size_t>(std::llround(value))) +
             suffix;
    return util::fmt_double(value, dp) + suffix;
  }
};

constexpr Unit kPercent{};
constexpr Unit kCount{Unit::kNumber, 0};
constexpr Unit kYesNo{Unit::kYesNo};
constexpr Unit fixed(int dp, const char* suffix = "") {
  return {Unit::kNumber, dp, suffix};
}

struct Band {
  enum Origin : std::uint8_t { kPaper, kPinned, kDeviation };
  double lo = 0;
  double hi = 0;
  Origin origin = kPaper;
};

Band paper(double lo, double hi) { return {lo, hi, Band::kPaper}; }
Band near(double paper_value, double slack) {
  return paper(paper_value - slack, paper_value + slack);
}
Band pinned(double value, double tolerance) {
  return {value - tolerance, value + tolerance, Band::kPinned};
}
Band deviation(double value, double tolerance) {
  return {value - tolerance, value + tolerance, Band::kDeviation};
}

// Prints every section header and claim row, and keeps the tally.
class Claims {
 public:
  void section(const std::string& experiment, const std::string& title) {
    section_ = experiment;
    benchx::print_header(experiment, title);
  }

  // One typed claim row: prints it and checks `measured` against `band`.
  // `detail` is printed after the measured value.
  void check(const std::string& metric, const std::string& paper_text,
             double measured, const Band& band, const Unit& unit = kPercent,
             const std::string& detail = {}) {
    const bool ok = measured >= band.lo && measured <= band.hi;
    std::string range = band.lo == band.hi
                            ? "= " + unit.render(band.lo)
                            : "[" + unit.render(band.lo) + ", " +
                                  unit.render(band.hi) + "]";
    const std::string tolerance =
        "+-" + unit.render((band.hi - band.lo) / 2) + " ";
    switch (band.origin) {
      case Band::kPaper:
        range = "band " + range;
        ++paper_;
        break;
      case Band::kPinned:
        range = "pinned " + tolerance + range;
        ++pinned_;
        break;
      case Band::kDeviation:
        range = "deviation " + tolerance + range;
        ++deviations_;
        break;
    }
    std::string shown = unit.render(measured);
    if (!detail.empty()) shown += " " + detail;
    std::printf("  %-52s paper: %-14s measured: %-14s %-4s %s\n",
                metric.c_str(), paper_text.c_str(), shown.c_str(),
                ok ? "ok" : "MISS", range.c_str());
    if (!ok)
      misses_.push_back(section_ + ": " + metric + " — measured " + shown +
                        ", " + range);
  }

  // A row whose measured side is not a number: printed, never checked.
  void note(const std::string& metric, const std::string& paper_text,
            const std::string& measured) {
    std::printf("  %-52s paper: %-14s measured: %-14s info\n", metric.c_str(),
                paper_text.c_str(), measured.c_str());
    ++informational_;
  }

  // Prints the tally and every miss; returns the process exit status.
  int finish() const {
    const std::size_t gated = paper_ + pinned_ + deviations_;
    std::printf(
        "\n=== Paper claims: %zu gated (%zu paper bands, %zu pinned, %zu "
        "deviations), %zu informational; %zu missed ===\n",
        gated, paper_, pinned_, deviations_, informational_, misses_.size());
    for (const auto& miss : misses_) std::printf("  MISS %s\n", miss.c_str());
    return misses_.empty() ? 0 : 1;
  }

 private:
  std::string section_;
  std::size_t paper_ = 0, pinned_ = 0, deviations_ = 0, informational_ = 0;
  std::vector<std::string> misses_;
};

// One pipeline run plus the RunReport observed alongside it. The observer
// is execution-only (tests/test_obs.cpp proves bit-identical results).
struct ObservedRun {
  core::PipelineResult result;
  core::RunReport report;
};

ObservedRun run_observed(const char* label, topo::WorldConfig world) {
  std::fprintf(stderr, "[bench] building %s world + campaigns...\n", label);
  obs::RunObserver observer;
  core::PipelineOptions options;
  options.world = std::move(world);
  options.obs.observer = &observer;
  ObservedRun run;
  run.result = core::run_full_pipeline(options);
  run.report = core::build_run_report(run.result, options, &observer);
  return run;
}

// Prints an ECDF as "F(x)" rows at the given x positions.
void print_ecdf_at(const std::string& label, const util::Ecdf& ecdf,
                   const std::vector<double>& xs) {
  std::cout << label << " (n=" << ecdf.size() << ")\n";
  for (const double x : xs) {
    std::printf("  F(%-10.6g) = %.3f\n", x, ecdf.fraction_at_most(x));
  }
}

double ratio(std::size_t num, std::size_t den) {
  return static_cast<double>(num) /
         static_cast<double>(std::max<std::size_t>(den, 1));
}

std::string stage_name(std::size_t stage) {
  return std::string(core::to_string(static_cast<core::FilterStage>(stage)));
}

// An alias resolution's sets as plain address lists, as the baselines
// compare them.
baselines::AliasSets address_lists(const core::AliasResolution& resolution) {
  baselines::AliasSets sets;
  for (const auto& set : resolution.sets) sets.push_back(set.addresses);
  return sets;
}

// ECDF of `value(rollup)` over the ASes with at least `min_routers`
// identified routers.
template <typename Value>
util::Ecdf rollup_ecdf(const std::vector<core::AsRollup>& rollups,
                       std::size_t min_routers, Value value) {
  util::Ecdf ecdf;
  for (const auto& rollup : rollups)
    if (rollup.routers >= min_routers) ecdf.add(value(rollup));
  ecdf.finalize();
  return ecdf;
}

// ---- Table 1 ---------------------------------------------------------------
// SNMPv3 campaign overview — responsive IPs, unique engine IDs and filter
// survivors per family — plus the §4.4 per-stage drop funnel and the
// observed RunReport, written machine-readable to BENCH_run_report.json.

void print_funnel(const std::string& label, const core::JoinStats& join,
                  const core::FilterReport& report) {
  std::cout << "\n" << label << " filtering funnel (paper §4.4):\n";
  std::printf("  %-32s %10zu\n", "overlapping responsive IPs", report.input);
  for (std::size_t i = 0; i < core::kFilterStageCount; ++i) {
    std::printf("  - %-30s %10zu\n", stage_name(i).c_str(),
                report.dropped[i]);
  }
  std::printf("  %-32s %10zu\n", "= IPs w/ valid ID & time", report.output);
  std::printf("  (responsive in one scan only: %zu + %zu)\n", join.first_only,
              join.second_only);
}

// 1 = the stage dropping the most records.
std::size_t stage_rank(const core::FilterReport& report,
                       core::FilterStage stage) {
  const std::size_t dropped = report.dropped_at(stage);
  return 1 + static_cast<std::size_t>(
                 std::count_if(report.dropped.begin(), report.dropped.end(),
                               [&](std::size_t d) { return d > dropped; }));
}

void table1(const ObservedRun& run, Claims& claims) {
  claims.section("Table 1", "SNMPv3 scan campaign overview");
  const auto& r = run.result;

  util::TablePrinter table({"Measurement", "#IPs", "#Engine IDs",
                            "#IPs valid engine ID",
                            "#IPs valid engine ID & time"});
  const auto row = [&](const std::string& name, const scan::ScanResult& scan,
                       const core::FilterReport& report) {
    table.add_row({name, util::fmt_count(scan.responsive()),
                   util::fmt_count(scan.unique_engine_ids()),
                   util::fmt_count(report.valid_engine_id_count()),
                   util::fmt_count(report.output)});
  };
  row("IPv4 scan 1", r.v4_campaign.scan1, r.v4_report);
  row("IPv4 scan 2", r.v4_campaign.scan2, r.v4_report);
  row("IPv6 scan 1", r.v6_campaign.scan1, r.v6_report);
  row("IPv6 scan 2", r.v6_campaign.scan2, r.v6_report);
  table.print(std::cout);

  std::cout << "\nPaper (Table 1): IPv4 31.8M/31.5M IPs, 18.8M/18.6M engine "
               "IDs, 27.0M valid, 12.5M valid+time\n"
               "                 IPv6 182k/180k IPs, 68k/67k engine IDs, "
               "152k valid, 140k valid+time\n";

  std::cout << "\nShape checks (ratios, paper -> measured):\n";
  claims.check("IPv4 valid+time / responsive", "39%",
               ratio(r.v4_report.output, r.v4_campaign.scan1.responsive()),
               near(0.39, 0.02));
  claims.check("IPv6 valid+time / responsive", "77%",
               ratio(r.v6_report.output, r.v6_campaign.scan1.responsive()),
               deviation(0.655, 0.02));
  claims.check("IPv4 engine IDs / responsive IPs", "59%",
               ratio(r.v4_campaign.scan1.unique_engine_ids(),
                     r.v4_campaign.scan1.responsive()),
               deviation(0.733, 0.02));

  print_funnel("IPv4", r.v4_join_stats, r.v4_report);
  print_funnel("IPv6", r.v6_join_stats, r.v6_report);

  std::cout << "\nFunnel checks (all ten §4.4 stages fire, paper order):\n";
  for (const auto& [family, report] :
       {std::pair{"IPv4", &r.v4_report}, std::pair{"IPv6", &r.v6_report}}) {
    for (std::size_t i = 0; i < core::kFilterStageCount; ++i) {
      claims.check(std::string(family) + " stage drops: " + stage_name(i),
                   ">0", static_cast<double>(report->dropped[i]),
                   paper(1, kInf), kCount);
    }
  }
  claims.check("IPv4 rank of stage: inconsistent last reboot",
               "largest (9.8M)",
               static_cast<double>(stage_rank(
                   r.v4_report, core::FilterStage::kInconsistentReboot)),
               paper(1, 1), kCount);
  claims.check("IPv4 rank of stage: inconsistent engine boots",
               "second (3.8M)",
               static_cast<double>(stage_rank(
                   r.v4_report, core::FilterStage::kInconsistentBoots)),
               paper(2, 2), kCount);

  std::cout << "\nProbe sizes: IPv4 payload " << r.v4_campaign.scan1.probe_bytes
            << " B (+28 B IP/UDP = 88 B on the wire, paper: 88 B); "
            << "IPv6 payload " << r.v6_campaign.scan1.probe_bytes
            << " B (+48 B = 108 B, paper: 108 B)\n";

  std::cout << "\nRun report (observability layer):\n\n"
            << run.report.to_table();
  if (std::ofstream("BENCH_run_report.json") << run.report.to_json())
    std::cout << "wrote BENCH_run_report.json\n";
}

// ---- Table 2 ---------------------------------------------------------------
// Router datasets (ITDK, RIPE Atlas, IPv6 Hitlist): unique router addresses
// per dataset and how many of them answered the SNMPv3 scans.

void table2(const core::PipelineResult& r, Claims& claims) {
  claims.section("Table 2", "router datasets and SNMPv3 coverage");

  // Responsive = answered both scans consistently enough to be joined.
  core::AddressSet responsive;
  for (const auto& record : r.v4_joined) responsive.insert(record.address);
  for (const auto& record : r.v6_joined) responsive.insert(record.address);

  const auto count_family = [](const std::vector<net::IpAddress>& addresses,
                               net::Family family) {
    std::size_t n = 0;
    for (const auto& a : addresses) n += a.family() == family;
    return n;
  };
  const auto count_responsive = [&](const std::vector<net::IpAddress>& addrs,
                                    net::Family family) {
    std::size_t n = 0;
    for (const auto& a : addrs)
      if (a.family() == family && responsive.count(a) > 0) ++n;
    return n;
  };

  util::TablePrinter table({"Router dataset", "IPv4 addrs (SNMPv3)",
                            "IPv6 addrs (SNMPv3)"});
  const auto row = [&](const std::string& name,
                       const std::vector<net::IpAddress>& addresses) {
    table.add_row(
        {name,
         util::fmt_count(count_family(addresses, net::Family::kIpv4)) + " (" +
             util::fmt_count(count_responsive(addresses, net::Family::kIpv4)) +
             ")",
         util::fmt_count(count_family(addresses, net::Family::kIpv6)) + " (" +
             util::fmt_count(count_responsive(addresses, net::Family::kIpv6)) +
             ")"});
  };
  row("ITDK (v4 MIDAR-curated)", r.itdk_v4.addresses);
  row("ITDK (v6 Speedtrap)", r.itdk_v6.addresses);
  row("RIPE Atlas", r.atlas.addresses);
  row("IPv6 Hitlist", r.hitlist_v6);

  std::set<net::IpAddress> union_set(r.itdk_v4.addresses.begin(),
                                     r.itdk_v4.addresses.end());
  union_set.insert(r.itdk_v6.addresses.begin(), r.itdk_v6.addresses.end());
  union_set.insert(r.atlas.addresses.begin(), r.atlas.addresses.end());
  union_set.insert(r.hitlist_v6.begin(), r.hitlist_v6.end());
  std::vector<net::IpAddress> union_addrs(union_set.begin(), union_set.end());
  row("Union", union_addrs);
  table.print(std::cout);

  std::cout << "\nPaper (Table 2): ITDK v4 2.9M (447k) / Speedtrap 533k (36k); "
               "Atlas 560k (85k) v4, 260k (36k) v6; Hitlist 63.7M (54k); "
               "union 3.1M (461k) v4, 65M (78k) v6\n";

  claims.check("IPv4 union router addresses responsive", "~15%",
               ratio(count_responsive(union_addrs, net::Family::kIpv4),
                     count_family(union_addrs, net::Family::kIpv4)),
               near(0.15, 0.05));
}

// ---- Table 3 (Appendix A) --------------------------------------------------
// The alias-resolution strategy matrix: exact / round / divide-by-20 /
// divide-by-20+round last-reboot matching, keyed on one scan or both.

void table3(const core::PipelineResult& r, Claims& claims) {
  claims.section("Table 3 (Appendix A)",
                 "comparison of alias resolution approaches");

  std::vector<core::JoinedRecord> combined = r.v4_records;
  combined.insert(combined.end(), r.v6_records.begin(), r.v6_records.end());

  util::TablePrinter table({"Strategy", "Alias sets", "Non-singleton sets",
                            "IPs in non-singletons", "IPs per non-singleton"});
  for (const auto match :
       {core::RebootMatch::kExact, core::RebootMatch::kRound,
        core::RebootMatch::kDivide20, core::RebootMatch::kDivide20Round}) {
    for (const bool both : {false, true}) {
      core::AliasOptions options;
      options.match = match;
      options.use_both_scans = both;
      const auto resolution = core::resolve_aliases(combined, options);
      table.add_row({std::string(core::to_string(match)) +
                         (both ? " both" : " first"),
                     util::fmt_count(resolution.sets.size()),
                     util::fmt_count(resolution.non_singleton_count()),
                     util::fmt_count(resolution.ips_in_non_singletons()),
                     util::fmt_double(resolution.mean_ips_per_non_singleton(),
                                      1)});
    }
  }
  table.print(std::cout);

  std::cout <<
      "\nPaper (Table 3): Exact first 5.3M sets / 903k ns / 8.2M IPs / 9.1;"
      "\n                 Exact both 5.9M / 892k / 7.5M / 8.4;"
      "\n                 Round first 4.6M / 826k / 8.7M / 10.6;"
      "\n                 Divide-by-20 both (shipped) 4.6M / 824k / 8.7M / 10.6\n"
      "\nExpected shape: exact matching fragments sets (more sets, fewer IPs"
      "\nper set); coarser binning merges them back. Both-scan keying splits"
      "\nsets that exact matching over one scan would (wrongly) keep merged.\n";
}

// ---- Figure 4 --------------------------------------------------------------
// ECDF of the number of IP addresses per engine ID, per family.

void fig04(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 4", "number of occurrences per engine ID");

  const auto v4 = core::ips_per_engine_id(r.v4_joined);
  const auto v6 = core::ips_per_engine_id(r.v6_joined);

  const std::vector<double> xs = {1, 2, 5, 10, 100, 1000};
  print_ecdf_at("IPv4: IPs per engine ID", v4, xs);
  print_ecdf_at("IPv6: IPs per engine ID", v6, xs);

  std::cout << "\nShape checks:\n";
  claims.check("IPv4 engine IDs on a single IP", ">80%",
               v4.fraction_at_most(1.0), paper(0.8, 1));
  claims.check("IPv6 engine IDs on a single IP", ">50%",
               v6.fraction_at_most(1.0), paper(0.5, 1));
  claims.check("IPv4 engine IDs on <= 10 IPs", "vast majority",
               v4.fraction_at_most(10.0), paper(0.9, 1));
  claims.check("max IPs on one IPv4 engine ID", ">1000 (181k bug)", v4.max(),
               paper(1000, kInf), kCount);
}

// ---- Figure 5 --------------------------------------------------------------
// Distribution of engine-ID formats for the IPv4 and IPv6 scans.

void fig05(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 5", "engine ID format distribution");

  const auto v4 = core::engine_id_format_shares(r.v4_joined);
  const auto v6 = core::engine_id_format_shares(r.v6_joined);

  util::TablePrinter table({"Format", "IPv4 share", "IPv6 share"});
  // Keep a stable row order covering every format either family saw.
  for (const auto format :
       {snmp::EngineIdFormat::kMac, snmp::EngineIdFormat::kOctets,
        snmp::EngineIdFormat::kNonConforming, snmp::EngineIdFormat::kNetSnmp,
        snmp::EngineIdFormat::kIpv4, snmp::EngineIdFormat::kIpv6,
        snmp::EngineIdFormat::kText,
        snmp::EngineIdFormat::kEnterpriseSpecific}) {
    const std::string key{snmp::to_string(format)};
    table.add_row({key, util::fmt_percent(v4.fraction(key)),
                   util::fmt_percent(v6.fraction(key))});
  }
  table.print(std::cout);

  std::cout << "\nShape checks:\n";
  claims.check("MAC-based share (IPv4)", "~60%", v4.fraction("MAC"),
               near(0.60, 0.05));
  claims.check("MAC-based share (IPv6)", "~60%", v6.fraction("MAC"),
               near(0.60, 0.05));
  claims.check("IPv4-format share within IPv6 scan", ">15%",
               v6.fraction("IPv4"), deviation(0.077, 0.02));
}

// ---- Figure 6 --------------------------------------------------------------
// Relative Hamming weight of Octets vs non-SNMPv3-conforming engine IDs.

void print_histogram(const std::string& label,
                     const std::vector<double>& weights) {
  util::Histogram histogram(0.0, 1.0, 20);
  util::RunningStats stats;
  for (const double w : weights) {
    histogram.add(w);
    stats.add(w);
  }
  std::cout << label << " (n=" << weights.size()
            << ", mean=" << util::fmt_double(stats.mean(), 3) << ")\n";
  for (std::size_t bin = 0; bin < histogram.bins(); ++bin) {
    const int bar = static_cast<int>(histogram.bin_fraction(bin) * 200);
    std::printf("  [%.2f-%.2f) %5.1f%% %s\n", histogram.bin_low(bin),
                histogram.bin_low(bin) + 0.05,
                histogram.bin_fraction(bin) * 100.0,
                std::string(static_cast<std::size_t>(bar), '#').c_str());
  }
}

void fig06(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 6",
                 "relative Hamming weight of Octets vs non-conforming");

  const auto octets = core::relative_hamming_weights(
      r.v4_joined, snmp::EngineIdFormat::kOctets);
  const auto nonconforming = core::relative_hamming_weights(
      r.v4_joined, snmp::EngineIdFormat::kNonConforming);

  print_histogram("Octets format", octets);
  std::cout << "\n";
  print_histogram("Non-SNMPv3-conforming", nonconforming);

  util::RunningStats octet_stats, nc_stats;
  for (const double w : octets) octet_stats.add(w);
  for (const double w : nonconforming) nc_stats.add(w);
  std::cout << "\nShape checks:\n";
  claims.check("Octets mean relative weight", "~0.50", octet_stats.mean(),
               near(0.50, 0.05), fixed(3));
  claims.check("Non-conforming mean (positive skew)", "<0.45",
               nc_stats.mean(), paper(0, 0.45), fixed(3));
}

// ---- Figure 7 --------------------------------------------------------------
// Last-reboot spread of the most-shared engine IDs: five of the paper's six
// most popular engine IDs span years of reboot times — proof they are
// reused across devices (the Cisco constant-engine-ID bug is the #1 IPv4
// entry) and why the (last reboot, boots) tuple must back the ID up.

void print_top(const std::string& family,
               const std::vector<core::SharedEngineId>& top) {
  for (std::size_t i = 0; i < top.size(); ++i) {
    const auto& shared = top[i];
    const double span_days =
        shared.last_reboots.max() - shared.last_reboots.min();
    std::printf("  %s #%zu: %-28s IPs=%-7zu reboot span=%.0f days\n",
                family.c_str(), i + 1,
                shared.engine_id.to_hex().substr(0, 28).c_str(),
                shared.address_count, span_days);
  }
}

void fig07(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 7",
                 "last reboot time of the top-3 engine IDs per family");

  const auto top_v4 = core::top_shared_engine_ids(r.v4_joined, 3);
  const auto top_v6 = core::top_shared_engine_ids(r.v6_joined, 3);
  print_top("IPv4", top_v4);
  print_top("IPv6", top_v6);

  std::cout << "\nShape checks:\n";
  const std::string cisco_bug = "800000090300000000000000";
  const std::string top_hex =
      top_v4.empty() ? "none" : top_v4.front().engine_id.to_hex();
  claims.check("#1 IPv4 engine ID", cisco_bug,
               top_hex == cisco_bug ? 1.0 : 0.0, paper(1, 1), kYesNo,
               "(" + top_hex + ")");
  const double span_years =
      top_v4.empty() ? 0.0
                     : (top_v4.front().last_reboots.max() -
                        top_v4.front().last_reboots.min()) /
                           365.0;
  claims.check("#1 IPv4 reboot span", "multiple years", span_years,
               paper(2, kInf), fixed(1, " years"));
  std::cout << "\n(An engine ID reused across devices shows a last-reboot\n"
               "distribution spanning years; a genuinely unique engine ID\n"
               "would collapse to one point.)\n";
}

// ---- Figure 8 --------------------------------------------------------------
// ECDF of |last-reboot difference| between the two scans, all IPs vs router
// IPs: IPv6 and router IPs are tight, IPv4-all spreads out (cheap CPE
// clocks), and the 10 s filter threshold sits at the router curve's knee.

void fig08(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 8",
                 "last-reboot difference between scans (seconds)");

  // Consistency is evaluated *before* the reboot-consistency filter: keep
  // records with matching engine IDs and boots (a reboot in between makes
  // the delta meaningless) but do not yet enforce the 10 s rule.
  auto v4 = r.v4_joined;
  auto v6 = r.v6_joined;
  std::erase_if(v4, [](const core::JoinedRecord& j) {
    return !j.engine_ids_match() || !j.boots_match();
  });
  std::erase_if(v6, [](const core::JoinedRecord& j) {
    return !j.engine_ids_match() || !j.boots_match();
  });

  const auto v4_all = core::reboot_delta_ecdf(v4);
  const auto v6_all = core::reboot_delta_ecdf(v6);
  const auto v4_router = core::reboot_delta_ecdf(v4, &r.router_addresses);
  const auto v6_router = core::reboot_delta_ecdf(v6, &r.router_addresses);

  const std::vector<double> xs = {0, 1, 2, 5, 10, 20, 60, 120};
  print_ecdf_at("IPv4 all IPs", v4_all, xs);
  print_ecdf_at("IPv4 router IPs", v4_router, xs);
  print_ecdf_at("IPv6 all IPs", v6_all, xs);
  print_ecdf_at("IPv6 router IPs", v6_router, xs);

  std::cout << "\nShape checks:\n";
  const double v4_router_tight = v4_router.fraction_at_most(10);
  claims.check("IPv6 delta <= 10 s", "very consistent (~1.0)",
               v6_all.fraction_at_most(10), deviation(0.756, 0.02));
  claims.check("IPv4 routers <= 10 s (knee)", "high", v4_router_tight,
               pinned(0.763, 0.02));
  claims.check("IPv4 all <= 10 s (spread out)", "lower than routers",
               v4_all.fraction_at_most(10), paper(0, v4_router_tight));
}

// ---- Figure 9 --------------------------------------------------------------
// ECDF of IP addresses per alias set for IPv4, IPv6 and router sets: router
// alias sets are much larger (SNMPv3 runs on many-interface routers).

void fig09(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 9", "IP addresses per alias set");

  const auto v4 = core::alias_set_sizes(r.resolution, net::Family::kIpv4);
  const auto v6 = core::alias_set_sizes(r.resolution, net::Family::kIpv6);
  const auto routers =
      core::alias_set_sizes(r.resolution, std::nullopt, &r.router_addresses);

  const std::vector<double> xs = {1, 2, 5, 10, 50, 100, 1000};
  print_ecdf_at("IPv4 alias sets", v4, xs);
  print_ecdf_at("IPv6 alias sets", v6, xs);
  print_ecdf_at("Router alias sets", routers, xs);

  const auto breakdown = core::breakdown_by_stack(r.resolution);
  const double dual_mean = breakdown.dual_sets == 0
                               ? 0.0
                               : ratio(breakdown.dual_ips, breakdown.dual_sets);
  std::cout << "\nDual-stack merge (paper §5.1):\n";
  std::printf("  IPv4-only sets: %zu (non-singleton %zu, IPs %zu)\n",
              breakdown.v4_only_sets, breakdown.v4_only_non_singleton,
              breakdown.v4_only_ips_nonsingleton);
  std::printf("  IPv6-only sets: %zu (non-singleton %zu, IPs %zu)\n",
              breakdown.v6_only_sets, breakdown.v6_only_non_singleton,
              breakdown.v6_only_ips_nonsingleton);
  std::printf("  dual-stack sets: %zu (IPs %zu, %.1f per set)\n",
              breakdown.dual_sets, breakdown.dual_ips, dual_mean);

  std::cout << "\nShape checks:\n";
  claims.check("router sets larger than all-device sets", "yes (fig 9)",
               routers.mean() / std::max(v4.mean(), 1e-9), paper(1, kInf),
               fixed(1, "x"),
               "(" + util::fmt_double(routers.mean(), 1) + " vs " +
                   util::fmt_double(v4.mean(), 1) + " mean IPs)");
  claims.check("dual-stack sets have the most addresses", "45.4 per set",
               dual_mean, deviation(7.9, 0.5), fixed(1));
}

// ---- Figure 10 -------------------------------------------------------------
// Per-AS SNMPv3 coverage of router IPv4 addresses: the fraction of an AS's
// union-dataset IPv4 addresses that answered, as ECDFs over ASes with
// >= 2/5/10/50/100 dataset IPs.

void fig10(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 10", "SNMPv3 router coverage per AS (IPv4)");

  // Union router dataset, IPv4 only (paper Table 2 union row).
  std::set<net::IpAddress> union_set;
  for (const auto* dataset : {&r.itdk_v4, &r.atlas})
    for (const auto& a : dataset->addresses)
      if (a.is_v4()) union_set.insert(a);
  const std::vector<net::IpAddress> union_addresses(union_set.begin(),
                                                    union_set.end());

  core::AddressSet responsive;
  for (const auto& record : r.v4_joined) responsive.insert(record.address);

  const auto coverage =
      core::as_coverage(union_addresses, responsive, r.as_table);

  std::size_t covered_total = 0;
  for (const auto& address : union_addresses)
    covered_total += responsive.count(address);
  const double overall = ratio(covered_total, union_addresses.size());
  std::printf("Union router IPv4 addresses: %zu, responsive: %zu (%.1f%%)\n\n",
              union_addresses.size(), covered_total, 100.0 * overall);

  // ECDF of per-AS coverage over the ASes with >= `min_ips` dataset IPs.
  const auto coverage_ecdf = [&](std::size_t min_ips) {
    util::Ecdf ecdf;
    for (const auto& [total, cov] : coverage)
      if (total >= min_ips) ecdf.add(cov);
    ecdf.finalize();
    return ecdf;
  };
  const std::vector<double> xs = {0.0, 0.1, 0.25, 0.5, 0.8, 1.0};
  for (const std::size_t threshold : {2u, 5u, 10u, 50u, 100u}) {
    print_ecdf_at("ASes with " + std::to_string(threshold) + "+ dataset IPs",
                  coverage_ecdf(threshold), xs);
  }

  const auto all = coverage_ecdf(2);
  std::cout << "\nShape checks:\n";
  claims.check("overall router IP coverage", "16%", overall,
               deviation(0.190, 0.02));
  claims.check("ASes with coverage < 10%", "~25%",
               all.fraction_at_most(0.0999), deviation(0.610, 0.02));
  claims.check("ASes with coverage > 80%", "~10%",
               1.0 - all.fraction_at_most(0.8), near(0.10, 0.05));
}

// ---- Figure 11 -------------------------------------------------------------
// Vendor popularity across all de-aliased devices, stacked by IPv4-only /
// IPv6-only / dual-stack.

void fig11(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 11", "vendor popularity (all devices)");

  const auto popularity = core::vendor_popularity(r.devices,
                                                  /*routers_only=*/false);
  std::size_t total = 0, top10 = 0, v4_only = 0;
  for (const auto& entry : popularity) {
    total += entry.total();
    v4_only += entry.v4_only;
  }

  util::TablePrinter table(
      {"Vendor", "Alias sets", "IPv4 only", "IPv6 only", "Dual-stack", "Share"});
  for (std::size_t i = 0; i < popularity.size() && i < 12; ++i) {
    const auto& entry = popularity[i];
    if (i < 10) top10 += entry.total();
    table.add_row({entry.vendor, util::fmt_count(entry.total()),
                   util::fmt_count(entry.v4_only),
                   util::fmt_count(entry.v6_only), util::fmt_count(entry.dual),
                   util::fmt_percent(ratio(entry.total(), total))});
  }
  table.print(std::cout);
  std::printf("\nTotal de-aliased devices: %zu (paper: 4,617,690 at 1:1 scale)\n",
              total);

  std::cout << "\nShape checks:\n";
  claims.check("top-10 vendors' share", ">80%", ratio(top10, total),
               paper(0.8, 1));
  const auto devices_of = [&](const std::string& vendor) -> std::size_t {
    for (const auto& e : popularity)
      if (e.vendor == vendor) return e.total();
    return 0;
  };
  claims.check("Net-SNMP ~ Cisco (both ~0.9-1M)", "ratio ~1.05",
               ratio(devices_of("Net-SNMP"), devices_of("Cisco")),
               near(1.05, 0.105), fixed(2));
  claims.check("Cisco / Huawei devices", "~4.2x",
               ratio(devices_of("Cisco"), devices_of("Huawei")),
               near(4.2, 0.42), fixed(1, "x"));
  claims.check("majority of devices IPv4-only", "yes", ratio(v4_only, total),
               paper(0.5, 1));
}

// ---- Figure 12 -------------------------------------------------------------
// Router vendor popularity (alias sets tagged by the ITDK / RIPE Atlas
// router datasets), stacked by stack class.

void fig12(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 12", "router vendor popularity");

  const auto popularity = core::vendor_popularity(r.devices,
                                                  /*routers_only=*/true);
  std::size_t total = 0;
  for (const auto& entry : popularity) total += entry.total();

  util::TablePrinter table(
      {"Vendor", "Router sets", "IPv4 only", "IPv6 only", "Dual-stack",
       "Share"});
  for (std::size_t i = 0; i < popularity.size() && i < 10; ++i) {
    const auto& entry = popularity[i];
    table.add_row({entry.vendor, util::fmt_count(entry.total()),
                   util::fmt_count(entry.v4_only),
                   util::fmt_count(entry.v6_only), util::fmt_count(entry.dual),
                   util::fmt_percent(ratio(entry.total(), total))});
  }
  table.print(std::cout);
  std::printf("\nIdentified routers: %zu (paper: 346,951 at 1:1 scale)\n",
              total);

  std::cout << "\nShape checks:\n";
  const auto share = [&](const std::string& vendor) {
    for (const auto& e : popularity)
      if (e.vendor == vendor) return ratio(e.total(), total);
    return 0.0;
  };
  claims.check("Cisco share of routers", "~69%", share("Cisco"),
               near(0.69, 0.05));
  claims.check("Huawei share of routers", "~15%", share("Huawei"),
               near(0.15, 0.05));
  claims.check("top-4 vendors (Cisco+Huawei+Juniper+H3C+NetSNMP)",
               ">95% with Net-SNMP",
               share("Cisco") + share("Huawei") + share("Juniper") +
                   share("H3C") + share("Net-SNMP"),
               deviation(0.933, 0.02));
}

// ---- Figure 13 -------------------------------------------------------------
// CDF of the time since the last reboot for identified routers.

void fig13(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 13", "time since last reboot (routers)");

  // The v4 scans start at day 3 of simulated time.
  const util::VTime scan_time = 3 * util::kDay;
  const auto uptimes = core::uptime_days(r.devices, /*routers_only=*/true,
                                         scan_time);

  const std::vector<double> xs = {7, 30, 105, 182, 365, 730, 1825, 3650};
  print_ecdf_at("Router uptime (days)", uptimes, xs);

  std::cout << "\nShape checks:\n";
  claims.check("rebooted within last month", "~20%",
               uptimes.fraction_at_most(30), near(0.20, 0.05));
  claims.check("rebooted since start of year (~105 days)", ">50%",
               uptimes.fraction_at_most(105), deviation(0.469, 0.02));
  claims.check("last reboot more than a year ago", "<25%",
               1.0 - uptimes.fraction_at_most(365), deviation(0.275, 0.02));
  std::cout << "\n(Implication the paper draws: a large fraction of routers\n"
               "have not recently installed updates requiring a reboot.)\n";
}

// ---- Figure 14 -------------------------------------------------------------
// Distinct router vendors per AS, as ECDFs over ASes with >= 5/20/100/1000
// identified routers.

void fig14(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 14", "router vendors per AS");
  const auto rollups = core::rollup_by_as(r.devices);

  std::printf("ASes with identified routers: %zu\n\n", rollups.size());

  const auto vendors = [](const core::AsRollup& rollup) {
    return static_cast<double>(rollup.distinct_vendors());
  };
  const std::vector<double> xs = {1, 2, 3, 5, 10};
  for (const std::size_t threshold : {1u, 5u, 20u, 100u, 1000u}) {
    const auto ecdf = rollup_ecdf(rollups, threshold, vendors);
    if (ecdf.empty()) continue;
    print_ecdf_at("ASes with " + std::to_string(threshold) +
                      "+ routers: #vendors",
                  ecdf, xs);
  }

  const auto five_plus = rollup_ecdf(rollups, 5, vendors);
  std::cout << "\nShape checks:\n";
  claims.check("5+ router ASes with a single vendor", "~40%",
               five_plus.fraction_at_most(1), near(0.40, 0.05));
  claims.check("5+ router ASes with > 5 vendors", "<10%",
               1.0 - five_plus.fraction_at_most(5), paper(0, 0.10));
  std::cout << "\nPer-AS router-count funnel (paper §6.4.1: 22,787 / 4,059 / "
               "1,557 / 381 / 55 at 1:1):\n";
  for (const std::size_t threshold : {1u, 5u, 20u, 100u, 1000u}) {
    std::size_t count = 0;
    for (const auto& rollup : rollups) count += rollup.routers >= threshold;
    std::printf("  ASes with >= %4zu routers: %zu\n", threshold, count);
  }
}

// ---- Figure 15 -------------------------------------------------------------
// Router vendor popularity per continent (the heatmap's rows).

void fig15(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 15", "router vendor popularity per continent");

  const auto rows = core::vendor_share_by_region(r.devices);
  const std::vector<std::string> vendors = {"Cisco", "Huawei", "Net-SNMP",
                                            "Juniper"};
  util::TablePrinter table({"Region (routers)", "Cisco", "Huawei", "Net-SNMP",
                            "Juniper", "Other"});
  std::size_t cisco_leads = 0;
  for (const auto& row : rows) {
    std::vector<std::string> cells = {
        row.label + " (" + util::fmt_compact(static_cast<double>(row.routers)) +
        ")"};
    double named = 0.0;
    for (const auto& vendor : vendors) {
      const double share = row.vendor_tally.fraction(vendor);
      named += share;
      cells.push_back(util::fmt_percent(share));
    }
    cells.push_back(util::fmt_percent(1.0 - named));
    table.add_row(std::move(cells));
    const auto sorted = row.vendor_tally.sorted();
    cisco_leads += !sorted.empty() && sorted.front().first == "Cisco";
  }
  table.print(std::cout);

  std::cout << "\nPaper (Fig. 15): regions EU(134k) NA(97k) AS(81k) SA(22k) "
               "AF(5k) OC(5k); Cisco dominant in all; Huawei ~27% AS, ~22% "
               "EU, ~14% SA/AF, ~0% NA, <1% OC\n";

  std::cout << "\nShape checks:\n";
  const auto share_of = [&](const std::string& region,
                            const std::string& vendor) {
    for (const auto& row : rows)
      if (row.label == region) return row.vendor_tally.fraction(vendor);
    return 0.0;
  };
  claims.check("Huawei share in AS", "~27%", share_of("AS", "Huawei"),
               deviation(0.209, 0.02));
  claims.check("Huawei share in EU", "~22%", share_of("EU", "Huawei"),
               near(0.22, 0.05));
  claims.check("Huawei share in NA", "~0%", share_of("NA", "Huawei"),
               paper(0, 0.05));
  // Measured: regions whose most common router vendor is Cisco.
  const auto regions = static_cast<double>(rows.size());
  claims.check("Cisco dominant in every region", "yes",
               static_cast<double>(cisco_leads),
               paper(std::max(regions, 1.0), regions), kCount,
               "of " + std::to_string(rows.size()));
}

// ---- Figure 16 -------------------------------------------------------------
// Vendor popularity inside the top-10 networks by router count.

void fig16(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 16", "vendor popularity in the top-10 ASes");

  const auto rows = core::vendor_share_top_ases(r.devices, 10);
  util::TablePrinter table({"AS (routers)", "Cisco", "Huawei", "Net-SNMP",
                            "Juniper", "Other", "Top-2 vendors"});
  std::size_t cisco_dominant = 0;
  for (const auto& row : rows) {
    const auto sorted = row.vendor_tally.sorted();
    double top2 = 0.0;
    for (std::size_t i = 0; i < sorted.size() && i < 2; ++i)
      top2 += ratio(sorted[i].second, row.routers);
    if (!sorted.empty() && sorted.front().first == "Cisco") ++cisco_dominant;
    std::vector<std::string> cells = {
        row.label + " (" +
        util::fmt_compact(static_cast<double>(row.routers)) + ")"};
    for (const std::string vendor :
         {"Cisco", "Huawei", "Net-SNMP", "Juniper"}) {
      cells.push_back(util::fmt_percent(row.vendor_tally.fraction(vendor)));
    }
    double named = row.vendor_tally.fraction("Cisco") +
                   row.vendor_tally.fraction("Huawei") +
                   row.vendor_tally.fraction("Net-SNMP") +
                   row.vendor_tally.fraction("Juniper");
    cells.push_back(util::fmt_percent(1.0 - named));
    cells.push_back(util::fmt_percent(top2));
    table.add_row(std::move(cells));
  }
  table.print(std::cout);

  std::cout << "\nShape checks:\n";
  claims.check("networks where Cisco dominates", "6 of 10",
               static_cast<double>(cisco_dominant), near(6, 1), kCount,
               "of " + std::to_string(rows.size()));
  std::cout << "\n(Paper regions of the top-10: 4x EU, 4x NA, 1x AS, 1x SA; "
               "sizes 9.4k-4.6k routers. World scale divides sizes by the "
               "configured router_scale.)\n";
}

// ---- Figure 17 -------------------------------------------------------------
// Vendor dominance per AS — the share of an AS's routers from its most
// common vendor — as ECDFs over ASes with >= 2/5/10/50/100 routers.

void fig17(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 17", "vendor dominance per AS");
  const auto rollups = core::rollup_by_as(r.devices);

  const auto dominance = [](const core::AsRollup& rollup) {
    return rollup.vendor_dominance();
  };
  const std::vector<double> xs = {0.3, 0.5, 0.7, 0.9, 1.0};
  for (const std::size_t threshold : {2u, 5u, 10u, 50u, 100u}) {
    const auto ecdf = rollup_ecdf(rollups, threshold, dominance);
    if (ecdf.empty()) continue;
    print_ecdf_at(
        "ASes with " + std::to_string(threshold) + "+ routers: dominance",
        ecdf, xs);
  }

  const auto two_plus = rollup_ecdf(rollups, 2, dominance);
  std::cout << "\nShape checks:\n";
  claims.check("ASes with dominance >= 0.7", ">80%",
               1.0 - two_plus.fraction_at_most(0.699), paper(0.8, 1));
  std::cout << "\n(Security reading from the paper: one vendor's "
               "vulnerability typically exposes most of a network's "
               "routers.)\n";
}

// ---- Figure 18 -------------------------------------------------------------
// Vendor dominance per region for ASes with >= 10 routers: (SA, AS, AF)
// run less homogeneous networks than (OC, NA, EU).

void fig18(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 18",
                 "vendor dominance per region (ASes with 10+ routers)");
  const auto rollups = core::rollup_by_as(r.devices);

  std::map<std::string, util::Ecdf> by_region;
  for (const auto& rollup : rollups) {
    if (rollup.routers < 10) continue;
    by_region[rollup.region].add(rollup.vendor_dominance());
  }

  const std::vector<double> xs = {0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  std::map<std::string, double> median;
  for (auto& [region, ecdf] : by_region) {
    ecdf.finalize();
    median[region] = ecdf.median();
    print_ecdf_at(region, ecdf, xs);
  }

  std::cout << "\nShape checks (median dominance):\n";
  for (const auto& [region, value] : median)
    std::printf("  %-4s median dominance = %.2f\n", region.c_str(), value);
  const auto get = [&](const char* region) {
    const auto it = median.find(region);
    return it == median.end() ? 0.0 : it->second;
  };
  const double group1 = (get("SA") + get("AS") + get("AF")) / 3.0;
  const double group2 = (get("OC") + get("NA") + get("EU")) / 3.0;
  // Measured: how far (OC,NA,EU)'s mean median dominance exceeds the other
  // group's.
  claims.check("(SA,AS,AF) less dominant than (OC,NA,EU)", "yes",
               group2 - group1, paper(0, 1), fixed(3),
               "(" + util::fmt_double(group2, 3) + " vs " +
                   util::fmt_double(group1, 3) + ")");
}

// ---- Figure 19 (Appendix B) ------------------------------------------------
// Uniqueness of the (last reboot time, engine boots) tuple: for each IP,
// how many distinct engine IDs share its tuple.

void fig19(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 19 (Appendix B)",
                 "engine IDs per (last reboot, boots) tuple");

  const auto v4_counts = core::engine_ids_per_tuple(r.v4_joined);
  const auto v6_counts = core::engine_ids_per_tuple(r.v6_joined);

  util::Ecdf v4, v6;
  for (const auto c : v4_counts) v4.add(static_cast<double>(c));
  for (const auto c : v6_counts) v6.add(static_cast<double>(c));
  v4.finalize();
  v6.finalize();

  const std::vector<double> xs = {1, 2, 5, 10, 100};
  print_ecdf_at("IPv4: engine IDs per tuple", v4, xs);
  print_ecdf_at("IPv6: engine IDs per tuple", v6, xs);

  std::cout << "\nShape checks:\n";
  claims.check("IPv4 IPs with unique-engine-ID tuple", "97.2%",
               v4.fraction_at_most(1), near(0.972, 0.02));
  claims.check("IPv6 IPs with unique-engine-ID tuple", "99.8%",
               v6.fraction_at_most(1), deviation(0.961, 0.02));
}

// ---- Figure 20 (Appendix C) ------------------------------------------------
// Identified routers per AS per region: similar distributions across
// continents, but most of the largest networks sit in NA and EU.

void fig20(const core::PipelineResult& r, Claims& claims) {
  claims.section("Figure 20 (Appendix C)", "routers per AS per region");
  const auto rollups = core::rollup_by_as(r.devices);

  std::map<std::string, util::Ecdf> by_region;
  util::Ecdf all;
  for (const auto& rollup : rollups) {
    by_region[rollup.region].add(static_cast<double>(rollup.routers));
    all.add(static_cast<double>(rollup.routers));
  }

  const std::vector<double> xs = {1, 2, 5, 10, 50, 100, 1000};
  for (auto& [region, ecdf] : by_region) {
    ecdf.finalize();
    print_ecdf_at(region, ecdf, xs);
  }
  all.finalize();
  print_ecdf_at("ALL", all, xs);

  std::cout << "\nShape checks:\n";
  // Largest networks concentrated in NA/EU (paper Appendix C).
  std::map<std::string, double> max_by_region;
  for (const auto& rollup : rollups)
    max_by_region[rollup.region] = std::max(
        max_by_region[rollup.region], static_cast<double>(rollup.routers));
  for (const auto& [region, largest] : max_by_region)
    std::printf("  largest AS in %-3s: %.0f routers\n", region.c_str(),
                largest);
  std::size_t routers = 0, mapped = 0;
  for (const auto& device : r.devices) {
    if (!device.is_router) continue;
    ++routers;
    mapped += device.as_info && !device.as_info->region.empty();
  }
  claims.check("AS-to-region mapping coverage", "99.9%",
               ratio(mapped, routers), near(0.999, 0.02));
}

// ---- §5.2 ------------------------------------------------------------------
// Comparison with the (CAIDA-style) Router Names rDNS dataset: the
// techniques are complementary — few exact matches, partial overlap.

void cmp_routernames(const core::PipelineResult& r, Claims& claims) {
  claims.section("§5.2", "comparison with Router Names (rDNS)");

  const auto ptr_records = topo::export_ptr_records(r.world);
  const auto names = baselines::run_router_names(ptr_records);
  std::printf("PTR records: %zu, domains: %zu (with usable rule: %zu)\n",
              ptr_records.size(), names.domains_total,
              names.domains_with_rule);

  const auto snmp_sets = address_lists(r.resolution);
  baselines::AliasSets names_nonsingleton, names_dual;
  std::size_t names_dual_ips = 0;
  for (const auto& set : names.alias_sets) {
    if (set.size() < 2) continue;
    names_nonsingleton.push_back(set);
    const bool has_v4 = std::any_of(set.begin(), set.end(),
                                    [](const auto& a) { return a.is_v4(); });
    const bool has_v6 = std::any_of(set.begin(), set.end(),
                                    [](const auto& a) { return a.is_v6(); });
    if (has_v4 && has_v6) {
      names_dual.push_back(set);
      names_dual_ips += set.size();
    }
  }
  const auto breakdown = core::breakdown_by_stack(r.resolution);

  std::printf("Router Names: %zu non-singleton sets, %zu dual-stack sets "
              "(%zu IPs, %.1f per set)\n",
              names_nonsingleton.size(), names_dual.size(), names_dual_ips,
              names_dual.empty() ? 0.0
                                 : ratio(names_dual_ips, names_dual.size()));
  std::printf("SNMPv3:       %zu non-singleton sets, %zu dual-stack sets\n",
              r.resolution.non_singleton_count(), breakdown.dual_sets);

  const auto comparison =
      baselines::compare_alias_sets(snmp_sets, names_nonsingleton);
  std::printf("\nOverlap: %zu exact matches, %zu partially overlapping "
              "Router-Names sets\n",
              comparison.exact_matches, comparison.partial_overlaps);

  std::cout << "\nShape checks:\n";
  claims.check("SNMPv3 dual-stack sets vs Router Names", ">2.5x",
               ratio(breakdown.dual_sets, names_dual.size()),
               deviation(2.4, 0.24), fixed(1, "x"));
  claims.check("exact set matches", "very few (9 of 12.4k)",
               static_cast<double>(comparison.exact_matches),
               deviation(80, 8), kCount);
  claims.check("partial overlap of Router-Names sets", "~half",
               ratio(comparison.partial_overlaps, names_nonsingleton.size()),
               deviation(0.145, 0.02));
}

// ---- §5.3-§5.4 -------------------------------------------------------------
// Comparison with IP-ID based alias resolution (MIDAR for IPv4, Speedtrap
// for IPv6) and the combined-coverage argument.

void cmp_midar_speedtrap(const core::PipelineResult& r, Claims& claims) {
  claims.section("§5.3-5.4", "comparison with MIDAR / Speedtrap");

  // Probe the union router dataset, as MIDAR does with candidate router IPs.
  std::vector<net::IpAddress> v4_targets, v6_targets;
  std::set<net::IpAddress> seen;
  for (const auto* dataset : {&r.itdk_v4, &r.itdk_v6, &r.atlas}) {
    for (const auto& a : dataset->addresses) {
      if (!seen.insert(a).second) continue;
      (a.is_v4() ? v4_targets : v6_targets).push_back(a);
    }
  }
  // Cap runtime: MIDAR-style probing is far heavier than SNMPv3 — sample.
  const std::size_t kMaxTargets = 60000;
  if (v4_targets.size() > kMaxTargets) v4_targets.resize(kMaxTargets);
  if (v6_targets.size() > kMaxTargets) v6_targets.resize(kMaxTargets);

  sim::StackSimulator stack(r.world, 4242);
  const auto midar = baselines::run_midar(stack, v4_targets, 20 * util::kDay);
  const auto speedtrap =
      baselines::run_speedtrap(stack, v6_targets, 22 * util::kDay);

  const auto summarize = [](const char* name,
                            const baselines::AliasSets& sets,
                            std::size_t probed) {
    std::size_t non_singleton = 0, ips = 0;
    for (const auto& set : sets)
      if (set.size() > 1) {
        ++non_singleton;
        ips += set.size();
      }
    std::printf("%-10s probed %6zu IPs -> %6zu sets, %5zu non-singleton "
                "(%zu IPs, %.1f per set)\n",
                name, probed, sets.size(), non_singleton, ips,
                non_singleton == 0 ? 0.0 : ratio(ips, non_singleton));
    return std::pair{non_singleton, ips};
  };
  const auto [midar_ns, midar_ips] =
      summarize("MIDAR", midar.alias_sets, v4_targets.size());
  summarize("Speedtrap", speedtrap.alias_sets, v6_targets.size());

  const auto snmp_sets = address_lists(r.resolution);
  const std::size_t snmp_ns = r.resolution.non_singleton_count();
  std::printf("%-10s %6s %8s -> %6zu sets, %5zu non-singleton\n", "SNMPv3", "",
              "", r.resolution.sets.size(), snmp_ns);

  const auto midar_cmp = baselines::compare_alias_sets(snmp_sets,
                                                       midar.alias_sets);
  std::printf("\nMIDAR sets matching SNMPv3 exactly: %zu, partially: %zu\n",
              midar_cmp.exact_matches, midar_cmp.partial_overlaps);

  // §5.4 combined coverage over the IPv4 union dataset.
  core::AddressSet snmp_dealiased;
  for (const auto& set : r.resolution.sets)
    if (set.addresses.size() > 1)
      for (const auto& a : set.addresses) snmp_dealiased.insert(a);
  core::AddressSet midar_dealiased;
  for (const auto& set : midar.alias_sets)
    if (set.size() > 1)
      for (const auto& a : set) midar_dealiased.insert(a);

  std::size_t universe = 0, by_snmp = 0, by_midar = 0, by_either = 0;
  for (const auto& a : v4_targets) {
    ++universe;
    const bool s = snmp_dealiased.count(a) > 0;
    const bool m = midar_dealiased.count(a) > 0;
    by_snmp += s;
    by_midar += m;
    by_either += s || m;
  }
  std::cout << "\nCombined de-aliased coverage of router IPv4 addresses "
               "(paper §5.4):\n";
  claims.check("MIDAR only", "11.7%", ratio(by_midar, universe),
               near(0.117, 0.02));
  claims.check("SNMPv3 only", "14.8%", ratio(by_snmp, universe),
               near(0.148, 0.02));
  claims.check("combined", "~23%", ratio(by_either, universe),
               near(0.23, 0.05));

  std::cout << "\nShape checks:\n";
  claims.check("SNMPv3 non-singleton sets vs MIDAR", "~9x",
               ratio(snmp_ns, midar_ns), deviation(21.2, 2.1),
               fixed(1, "x"));
  claims.check("MIDAR IPs per non-singleton set", "3.9",
               midar_ns == 0 ? 0.0 : ratio(midar_ips, midar_ns),
               deviation(10.0, 1.0), fixed(1));
}

// ---- §6.2.3 ----------------------------------------------------------------
// Comparison with Nmap fingerprinting on a random sample of SNMPv3-
// identified routers (one IPv4 address per router).

void cmp_nmap(const core::PipelineResult& r, Claims& claims) {
  claims.section("§6.2.3", "comparison with Nmap");

  // One random IPv4 address per SNMPv3-identified router.
  util::Rng rng(7331);
  std::vector<std::pair<net::IpAddress, std::string>> sample;
  for (const auto& device : r.devices) {
    if (!device.is_router) continue;
    // Comparison needs an SNMPv3-side vendor verdict to agree/disagree with.
    if (device.fingerprint.vendor == "Unknown") continue;
    std::vector<net::IpAddress> v4;
    for (const auto& a : device.set->addresses)
      if (a.is_v4()) v4.push_back(a);
    if (v4.empty()) continue;
    sample.emplace_back(v4[rng.next_below(v4.size())],
                        device.fingerprint.vendor);
  }

  sim::StackSimulator stack(r.world, 999);
  baselines::NmapLite nmap;
  std::size_t no_result = 0, agree = 0, disagree = 0, guesses = 0;
  for (const auto& [address, snmp_vendor] : sample) {
    const auto fp = nmap.fingerprint(stack, address, 25 * util::kDay);
    switch (fp.outcome) {
      case baselines::NmapOutcome::kNoResult:
        ++no_result;
        break;
      case baselines::NmapOutcome::kExactMatch:
        fp.vendor == snmp_vendor ? ++agree : ++disagree;
        break;
      case baselines::NmapOutcome::kBestGuess:
        ++guesses;
        fp.vendor == snmp_vendor ? ++agree : ++disagree;
        break;
    }
  }

  std::printf("Routers sampled: %zu (paper: 26.4k)\n", sample.size());
  std::printf("  Nmap no result:        %zu (%.1f%%)\n", no_result,
              100.0 * ratio(no_result, sample.size()));
  std::printf("  Nmap agrees w/ SNMPv3: %zu (%.1f%%)\n", agree,
              100.0 * ratio(agree, sample.size()));
  std::printf("  Nmap disagrees:        %zu (%.1f%%), of which best-guesses: "
              "%zu\n",
              disagree, 100.0 * ratio(disagree, sample.size()), guesses);

  std::cout << "\nShape checks:\n";
  claims.check("no Nmap result (closed routers)", "84% (22.2k/26.4k)",
               ratio(no_result, sample.size()), deviation(0.917, 0.02));
  claims.check("matches SNMPv3", "11% (2.9k)", ratio(agree, sample.size()),
               deviation(0.083, 0.02));
  if (disagree == 0) {
    claims.note("disagreements are best-guesses", "all 1.3k", "n/a");
  } else {
    claims.check("disagreements are best-guesses", "all 1.3k",
                 ratio(guesses, disagree), paper(1, 1));
  }
  std::cout << "\n(SNMPv3 needed exactly one UDP packet per router; Nmap "
               "needed dozens of TCP/ICMP probes and still failed on "
               "TCP-silent routers.)\n";
}

// ---- §8 --------------------------------------------------------------------
// The amplification anomaly: some SNMPv3 agents answer one discovery
// request with many identical responses.

void sec8_amplification(const core::PipelineResult& r, Claims& claims) {
  claims.section("§8", "multi-response / amplification census");

  const auto census = [](const scan::ScanResult& scan) {
    std::size_t multi = 0, over_10 = 0, over_100 = 0;
    std::size_t max_count = 0;
    (void)scan.for_each_record([&](const scan::ScanRecord& record) {
      if (record.response_count > 1) ++multi;
      if (record.response_count > 10) ++over_10;
      if (record.response_count > 100) ++over_100;
      max_count = std::max(max_count, record.response_count);
    });
    std::printf("  responsive IPs: %zu; multi-response: %zu (%.2f%%); "
                ">10 responses: %zu; >100: %zu; max: %zu\n",
                scan.responsive(), multi,
                100.0 * ratio(multi, scan.responsive()), over_10, over_100,
                max_count);
    return multi;
  };
  std::cout << "IPv4 scan 1:\n";
  const std::size_t multi1 = census(r.v4_campaign.scan1);
  std::cout << "IPv4 scan 2:\n";
  census(r.v4_campaign.scan2);

  // The worst offender: responses received to one probe.
  std::size_t worst = 0;
  net::IpAddress worst_addr;
  (void)r.v4_campaign.scan1.for_each_record(
      [&](const scan::ScanRecord& record) {
        if (record.response_count > worst) {
          worst = record.response_count;
          worst_addr = record.target;
        }
      });
  std::cout << "\nShape checks:\n";
  claims.check("IPs answering more than once (scan 1)", "~0.6%",
               ratio(multi1, r.v4_campaign.scan1.responsive()),
               deviation(0.0044, 0.001), Unit{Unit::kPercent, 2});
  claims.check("worst amplifier (responses to one probe)",
               "48.5M over 2h (1 host)", static_cast<double>(worst),
               deviation(1655, 165), kCount,
               "from " + worst_addr.to_string());
  std::cout << "\n(UDP + spoofable source + >1 response per request = "
               "reflective amplification primitive; the paper reported this "
               "to vendors.)\n";
}

// ---- Ablation --------------------------------------------------------------
// Which parts of the identifier design matter, graded by alias-pair
// precision and recall against simulation ground truth:
//  A. engine ID alone vs engine ID + (last reboot, boots) tuple — the
//     tuple splits misconfigured/buggy shared engine IDs (§4.3, App. B);
//  B. one scan vs two — without the second scan the consistency filters
//     cannot run and ephemeral addresses contaminate the sets (§4.4).

baselines::PairMetrics metrics_for(const core::AliasResolution& resolution,
                                   const topo::World& world,
                                   const std::vector<net::IpAddress>& universe) {
  return baselines::pair_metrics(
      address_lists(resolution),
      [&](const net::IpAddress& address) -> std::int64_t {
        const auto index = world.device_index_at(address);
        return index == topo::kNoDevice ? -1
                                        : static_cast<std::int64_t>(index);
      },
      universe);
}

void ablation_identifiers(const core::PipelineResult& r, Claims& claims) {
  claims.section("Ablation", "identifier design choices");

  std::vector<core::JoinedRecord> filtered = r.v4_records;
  filtered.insert(filtered.end(), r.v6_records.begin(), r.v6_records.end());
  std::vector<net::IpAddress> universe;
  for (const auto& record : filtered) universe.push_back(record.address);

  util::TablePrinter table({"Variant", "Alias sets", "Non-singleton",
                            "Pair precision", "Pair recall"});
  const auto add_variant = [&](const std::string& name,
                               const core::AliasOptions& options,
                               std::span<const core::JoinedRecord> records,
                               const std::vector<net::IpAddress>& uni) {
    const auto resolution = core::resolve_aliases(records, options);
    const auto metrics = metrics_for(resolution, r.world, uni);
    table.add_row({name, util::fmt_count(resolution.sets.size()),
                   util::fmt_count(resolution.non_singleton_count()),
                   util::fmt_double(metrics.precision(), 4),
                   util::fmt_double(metrics.recall(), 4)});
    return metrics;
  };

  // A: engine ID alone vs the shipped key.
  core::AliasOptions id_only;
  id_only.engine_id_only = true;
  const auto id_only_metrics =
      add_variant("engine ID only", id_only, filtered, universe);
  const auto shipped_metrics =
      add_variant("engine ID + tuple (shipped)", {}, filtered, universe);

  // B: skip the consistency filtering entirely (single-scan world view):
  // resolve over the raw join of scan 1 with itself.
  std::vector<core::JoinedRecord> unfiltered = r.v4_joined;
  unfiltered.insert(unfiltered.end(), r.v6_joined.begin(), r.v6_joined.end());
  for (auto& record : unfiltered) record.second = record.first;  // one scan
  std::vector<net::IpAddress> raw_universe;
  for (const auto& record : unfiltered) raw_universe.push_back(record.address);
  core::AliasOptions one_scan;
  one_scan.use_both_scans = false;
  add_variant("no filters, one scan", one_scan, unfiltered, raw_universe);

  table.print(std::cout);

  std::cout << "\nShape checks:\n";
  // Measured: the pair precision the tuple adds over the engine ID alone.
  claims.check("tuple rescues precision vs engine-ID-only", "yes (App. B)",
               shipped_metrics.precision() - id_only_metrics.precision(),
               pinned(0.674, 0.02), fixed(4),
               "(" + util::fmt_double(shipped_metrics.precision(), 4) +
                   " vs " + util::fmt_double(id_only_metrics.precision(), 4) +
                   ")");
  claims.check("shipped precision", "~1.0 (validated §6.2.2)",
               shipped_metrics.precision(), paper(0.99, 1), fixed(4));
  claims.check("shipped recall", "n/a (no ground truth)",
               shipped_metrics.recall(), pinned(0.911, 0.02), fixed(4));
  std::cout << "\n(The paper's operator survey §6.2.2 confirmed all surveyed\n"
               "alias sets; against full simulation ground truth we can also\n"
               "measure recall, which no Internet measurement could.)\n";
}

// ---- §9 extension ----------------------------------------------------------
// Future work implemented: addresses with inconsistent SNMPv3 identities,
// which the paper discards during filtering, re-probed and classified as
// NAT frontends, load balancers, churn or unstable, and the verdicts
// validated against simulation ground truth.

void sec9_nat_lb(const core::PipelineResult& r, Claims& claims) {
  claims.section("§9 extension", "NAT / load-balancer inference");

  // Re-probe through a fresh fabric over the (post-campaign) world.
  sim::FabricConfig config;
  config.seed = 1234;
  config.probe_loss = 0.0;
  config.response_loss = 0.0;
  sim::Fabric fabric(r.world, config);
  fabric.clock().advance(20 * util::kDay);

  const auto report = core::classify_anomalies(
      r.v4_campaign.scan1, r.v4_campaign.scan2, fabric,
      {net::Ipv4(198, 51, 100, 7), 4444}, r.as_table);

  std::printf("anomalous addresses classified: %zu\n",
              report.anomalies.size());
  std::printf("  load balancers: %zu\n", report.load_balancer_count());
  std::printf("  address churn:  %zu\n", report.churn_count());
  std::printf("  NAT frontends:  %zu\n", report.nat_count());
  std::printf("  unstable:       %zu\n", report.unstable_count());

  // Ground-truth validation of the two novel verdicts.
  std::size_t lb_checked = 0, lb_correct = 0;
  std::size_t nat_checked = 0, nat_correct = 0;
  for (const auto& anomaly : report.anomalies) {
    const auto* device = r.world.device_at(anomaly.address);
    if (anomaly.kind == core::AnomalyKind::kLoadBalancer) {
      ++lb_checked;
      lb_correct += device != nullptr && !device->backend_engines.empty();
    } else if (anomaly.kind == core::AnomalyKind::kNat) {
      ++nat_checked;
      if (device != nullptr) {
        // True NAT devices hold interfaces in more than one AS prefix.
        std::set<std::uint32_t> ases;
        for (const auto& itf : device->interfaces)
          if (itf.v4)
            if (const auto info = r.as_table.lookup(net::IpAddress(*itf.v4)))
              ases.insert(info->asn);
        nat_correct += ases.size() >= 2;
      }
    }
  }

  std::cout << "\nGround-truth validation:\n";
  const auto verdicts = [&](const std::string& metric, std::size_t correct,
                            std::size_t checked) {
    if (checked == 0) {
      claims.note(metric, "n/a (future work)", "n/a");
      return;
    }
    claims.check(metric, "n/a (future work)", ratio(correct, checked),
                 pinned(1.0, 0.02), kPercent,
                 "of " + std::to_string(checked));
  };
  verdicts("load-balancer verdicts correct", lb_correct, lb_checked);
  verdicts("NAT verdicts correct", nat_correct, nat_checked);
  std::cout << "\n(The paper: \"We hope that our technique can be used for\n"
               "answering other network analytics questions in the future,\n"
               "e.g., inferring NAT and load balancers in the wild.\" — §9)\n";
}

}  // namespace

int main() {
  const ObservedRun full =
      run_observed("full-Internet", topo::WorldConfig::full_internet());
  const ObservedRun router =
      run_observed("router-focus", topo::WorldConfig::router_focus());
  const core::PipelineResult& f = full.result;
  const core::PipelineResult& rf = router.result;

  Claims claims;
  table1(full, claims);
  table2(f, claims);
  table3(f, claims);
  fig04(f, claims);
  fig05(f, claims);
  fig06(f, claims);
  fig07(f, claims);
  fig08(f, claims);
  fig09(f, claims);
  fig10(rf, claims);
  fig11(f, claims);
  fig12(rf, claims);
  fig13(rf, claims);
  fig14(rf, claims);
  fig15(rf, claims);
  fig16(rf, claims);
  fig17(rf, claims);
  fig18(rf, claims);
  fig19(f, claims);
  fig20(rf, claims);
  cmp_routernames(rf, claims);
  cmp_midar_speedtrap(rf, claims);
  cmp_nmap(rf, claims);
  sec8_amplification(f, claims);
  ablation_identifiers(f, claims);
  sec9_nat_lb(f, claims);
  return claims.finish();
}
