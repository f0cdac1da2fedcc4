// Property-style validation of the full methodology against simulation
// ground truth, across seeds — the evaluation an Internet measurement
// cannot do. Invariants:
//   * alias-pair precision stays near 1 under default noise,
//   * dual-stack merges never join different physical devices,
//   * the whole pipeline is bit-deterministic for a given config.
#include <gtest/gtest.h>

#include "baselines/compare.hpp"
#include "core/pipeline.hpp"

namespace snmpv3fp {
namespace {

core::PipelineResult run_tiny(std::uint64_t seed) {
  core::PipelineOptions options;
  options.world = topo::WorldConfig::tiny();
  options.world.seed = seed;
  options.seed = seed * 31 + 7;
  return core::run_full_pipeline(options);
}

class GroundTruth : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroundTruth, AliasPrecisionAcrossSeeds) {
  const auto r = run_tiny(GetParam());

  baselines::AliasSets sets;
  for (const auto& set : r.resolution.sets) sets.push_back(set.addresses);
  std::vector<net::IpAddress> universe;
  for (const auto& record : r.v4_records) universe.push_back(record.address);
  for (const auto& record : r.v6_records) universe.push_back(record.address);

  const auto metrics = baselines::pair_metrics(
      sets,
      [&](const net::IpAddress& address) -> std::int64_t {
        const auto index = r.world.device_index_at(address);
        return index == topo::kNoDevice ? -1
                                        : static_cast<std::int64_t>(index);
      },
      universe);
  ASSERT_GT(metrics.inferred_pairs, 0u);
  // Measured over the three seeds: precision 1.000 on each, recall
  // 0.474 / 0.876 / 0.820 for seeds 7 / 1001 / 20210416. Recall's floor
  // sits 0.05 below its lowest value; precision's 0.97 already sits above
  // that rule's 0.95.
  EXPECT_GT(metrics.precision(), 0.97) << "seed " << GetParam();
  // Recall is substantially below 1 even over the filtered universe: bin
  // straddling and clock drift between the IPv6 (day 0-1) and IPv4
  // (day 3-9) campaigns split some true cross-family aliases. That is the
  // honest cost of the conservative keying the paper chose.
  EXPECT_GT(metrics.recall(), 0.424) << "seed " << GetParam();
}

TEST_P(GroundTruth, DualStackSetsNeverMixDevices) {
  const auto r = run_tiny(GetParam());
  std::size_t dual_sets = 0;
  for (const auto& set : r.resolution.sets) {
    if (!set.dual_stack()) continue;
    ++dual_sets;
    const auto first = r.world.device_index_at(set.addresses.front());
    for (const auto& address : set.addresses) {
      const auto device = r.world.device_index_at(address);
      if (device != topo::kNoDevice && first != topo::kNoDevice) {
        EXPECT_EQ(device, first) << "seed " << GetParam();
      }
    }
  }
  EXPECT_GT(dual_sets, 0u);
}

TEST_P(GroundTruth, FingerprintsMatchTrueVendors) {
  const auto r = run_tiny(GetParam());
  std::size_t checked = 0, correct = 0;
  for (const auto& device : r.devices) {
    if (device.fingerprint.vendor == "Unknown") continue;
    const auto index = r.world.device_index_at(device.set->addresses.front());
    if (index == topo::kNoDevice) continue;
    ++checked;
    correct += r.world.devices[index].vendor->name == device.fingerprint.vendor;
  }
  ASSERT_GT(checked, 100u);
  // Small impurities are expected: cross-vendor clones, SoC OUIs, etc.
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(checked), 0.97)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroundTruth,
                         ::testing::Values(7u, 1001u, 20210416u));

TEST(GroundTruthDeterminism, IdenticalRunsProduceIdenticalSets) {
  const auto a = run_tiny(7);
  const auto b = run_tiny(7);
  ASSERT_EQ(a.resolution.sets.size(), b.resolution.sets.size());
  for (std::size_t i = 0; i < a.resolution.sets.size(); ++i) {
    EXPECT_EQ(a.resolution.sets[i].addresses, b.resolution.sets[i].addresses);
    EXPECT_EQ(a.resolution.sets[i].engine_id, b.resolution.sets[i].engine_id);
  }
  EXPECT_EQ(a.v4_report.dropped, b.v4_report.dropped);
  EXPECT_EQ(a.v4_campaign.scan1.responsive(),
            b.v4_campaign.scan1.responsive());
}

TEST(GroundTruthDeterminism, DifferentSeedsDiffer) {
  const auto a = run_tiny(7);
  const auto b = run_tiny(8);
  EXPECT_NE(a.v4_campaign.scan1.responsive(),
            b.v4_campaign.scan1.responsive());
}

}  // namespace
}  // namespace snmpv3fp
