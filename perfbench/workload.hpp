// Workload definitions shared by the measured and the traced runs of the
// census benchmark: which world, which campaign options, which seeds — all
// derived from the one workload seed passed on the command line — plus the
// output digest the runner compares across runs and against golden values.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/pipeline.hpp"
#include "scan/campaign.hpp"
#include "topo/procedural.hpp"

namespace perfbench {

using namespace snmpv3fp;

enum class Workload { kTable1, kCensusSweep, kTable1Store, kTable1Loopback };

std::optional<Workload> parse_workload(std::string_view name);
std::string_view workload_name(Workload workload);

// The seed the committed golden digests were taken at. It reproduces the
// library defaults: pipeline seed 20210413 and census world seed 20210416.
inline constexpr std::uint64_t kDefaultSeed = 20210413;

// Threads the workloads use (the loopback workload gives one of them to the
// reflector).
inline constexpr std::size_t kThreads = 4;

// Census sweep size: 2^23 addresses per scan (~500 responders), so the
// per-probe path still does nearly all the work. A 2^25 repetition takes
// 6-11 s on a shared 4-vCPU box, and with one static shard chunk per thread
// a briefly slow vCPU sets the wall time: shorter repetitions let a run
// take the median of several instead of two or three.
inline constexpr std::uint64_t kCensusAddresses = std::uint64_t{1} << 23;

// Inputs for the table1* workloads. `store_dir` is only used by
// table1_store (the spill directory; the caller creates and removes it).
// `sim_twin` turns the loopback workload into its sim-fabric twin: same
// world, same deterministic fabric, no sockets.
core::PipelineOptions pipeline_options(Workload workload, std::uint64_t seed,
                                       const std::string& store_dir,
                                       bool sim_twin);

// Inputs for census_sweep.
topo::ProceduralConfig census_world(std::uint64_t seed);
scan::CampaignOptions census_campaign(const topo::ProceduralConfig& world,
                                      std::uint64_t seed);

// Output digest (FNV-1a 64 over a canonical serialization) and the counts
// the runner prints and checks.
struct PipelineDigest {
  std::uint64_t digest = 0;
  std::uint64_t probes = 0;  // probes sent by every scan of both families
  std::uint64_t v4_joined = 0;
  std::uint64_t v4_survivors = 0;
  std::uint64_t v6_survivors = 0;
  std::uint64_t alias_sets = 0;
  std::uint64_t devices = 0;
  bool consistent = false;  // funnel accounting adds up, nothing empty
};

// Digest over joined records, funnel counts, join stats, alias sets and
// annotated devices of both families.
PipelineDigest digest_pipeline(const core::PipelineResult& result);

struct CampaignDigest {
  std::uint64_t digest = 0;
  std::uint64_t probes = 0;
  std::uint64_t scan1_responsive = 0;
  std::uint64_t scan2_responsive = 0;
  bool consistent = false;
};

// Digest over both scans' records of a two-scan campaign.
CampaignDigest digest_campaign(const scan::CampaignPair& pair,
                               std::uint64_t expected_targets_per_scan);

std::string hex64(std::uint64_t value);

// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

}  // namespace perfbench
