#include <gtest/gtest.h>

#include "core/join.hpp"
#include "scan/campaign.hpp"
#include "store/record_store.hpp"
#include "topo/datasets.hpp"
#include "scan/prober.hpp"
#include "sim/fabric.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp::scan {
namespace {

class ScanTest : public ::testing::Test {
 protected:
  ScanTest() : world_(topo::generate_world(topo::WorldConfig::tiny())) {}

  topo::World world_;
};

TEST_F(ScanTest, ProbeRecordsMatchAgents) {
  sim::FabricConfig fabric_config;
  fabric_config.probe_loss = 0.0;
  fabric_config.response_loss = 0.0;
  sim::Fabric fabric(world_, fabric_config);
  Prober prober(fabric, {net::Ipv4(198, 51, 100, 7), 4444});

  const auto targets = world_.addresses(net::Family::kIpv4);
  ProbeConfig config;
  config.seed = 42;
  const auto result = prober.run(targets, config, 0);

  EXPECT_EQ(result.targets_probed, targets.size());
  EXPECT_GT(result.responsive(), 0u);
  EXPECT_LT(result.responsive(), targets.size());
  EXPECT_EQ(result.probe_bytes, 60u);

  // Every record corresponds to a device that really answers, with the
  // device's true engine state at the (virtual) probe time.
  for (const auto& record : result.materialize_records()) {
    const auto* device = world_.device_at(record.target);
    ASSERT_NE(device, nullptr) << record.target.to_string();
    EXPECT_TRUE(device->snmpv3_enabled);
    if (!device->empty_engine_id_bug && !device->zero_time_bug &&
        !device->future_time_bug && device->backend_engines.empty()) {
      EXPECT_EQ(record.engine_id, device->engine_id);
    }
    EXPECT_GE(record.receive_time, record.send_time);
  }
}

TEST_F(ScanTest, NoLossMeansAllEnabledDevicesRespond) {
  sim::FabricConfig fabric_config;
  fabric_config.probe_loss = 0.0;
  fabric_config.response_loss = 0.0;
  sim::Fabric fabric(world_, fabric_config);
  Prober prober(fabric, {net::Ipv4(198, 51, 100, 7), 4444});
  const auto result =
      prober.run(world_.addresses(net::Family::kIpv4), {}, 0);

  std::size_t expected = 0;
  for (const auto& device : world_.devices) {
    if (!device.snmpv3_enabled) continue;
    for (const auto& itf : device.interfaces) expected += itf.v4.has_value();
  }
  EXPECT_EQ(result.responsive(), expected);
}

TEST_F(ScanTest, LastRebootDerivation) {
  ScanRecord record;
  record.receive_time = 100 * util::kDay;
  record.engine_time = 86400;  // one day of uptime
  EXPECT_EQ(record.last_reboot(), 99 * util::kDay);
}

TEST_F(ScanTest, UniqueEngineIdCounting) {
  ScanResult result;
  ScanRecord a, b, c;
  a.engine_id = snmp::EngineId(util::Bytes{0x80, 1, 2, 3, 4});
  b.engine_id = a.engine_id;
  c.engine_id = snmp::EngineId(util::Bytes{0x80, 9, 9, 9, 9});
  result.store = std::make_shared<store::RecordStore>(store::StoreOptions{},
                                                      "unique_ids");
  for (const auto& record : {a, b, c}) result.store->append(record);
  EXPECT_EQ(result.unique_engine_ids(), 2u);
}

TEST_F(ScanTest, TwoScanCampaignJoins) {
  CampaignOptions options;
  options.seed = 77;
  options.fabric.probe_loss = 0.0;
  options.fabric.response_loss = 0.0;
  const auto pair = run_two_scan_campaign(world_, options);
  EXPECT_GT(pair.scan1.responsive(), 0u);
  EXPECT_GT(pair.scan2.responsive(), 0u);
  EXPECT_EQ(pair.scan2.start_time - pair.scan1.start_time, 6 * util::kDay);

  core::JoinStats stats;
  const auto joined = core::join_scans(pair.scan1, pair.scan2, &stats);
  EXPECT_EQ(stats.overlap, joined.size());
  EXPECT_EQ(stats.overlap + stats.first_only, pair.scan1.responsive());
  EXPECT_EQ(stats.overlap + stats.second_only, pair.scan2.responsive());
  // Churn means overlap < full, but most addresses answer both scans.
  EXPECT_GT(stats.overlap, pair.scan1.responsive() / 2);
  EXPECT_GT(stats.first_only, 0u);

  // Engine time advanced ~6 days for consistent non-rebooted devices
  // (within a generous skew envelope: CPE clocks drift by design).
  std::size_t checked = 0;
  for (const auto& join : joined) {
    if (!join.engine_ids_match() || !join.boots_match()) continue;
    const auto delta = static_cast<std::int64_t>(join.second.engine_time) -
                       static_cast<std::int64_t>(join.first.engine_time);
    EXPECT_GT(delta, 5 * 86400);
    EXPECT_LT(delta, 7 * 86400);
    if (++checked == 50) break;
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(ScanTest, ExplicitTargetListIsrespected) {
  CampaignOptions options;
  options.family = net::Family::kIpv6;
  options.targets = topo::export_hitlist_v6(world_, 1);
  options.scan_gap = util::kDay;
  const auto pair = run_two_scan_campaign(world_, options);
  EXPECT_EQ(pair.scan1.targets_probed, options.targets->size());
  for (const auto& record : pair.scan1.materialize_records()) {
    EXPECT_TRUE(record.target.is_v6());
  }
}

TEST_F(ScanTest, JoinIsDeterministicOrder) {
  CampaignOptions options;
  options.seed = 5;
  auto world_copy = world_;
  const auto pair = run_two_scan_campaign(world_copy, options);
  const auto joined1 = core::join_scans(pair.scan1, pair.scan2);
  const auto joined2 = core::join_scans(pair.scan1, pair.scan2);
  ASSERT_EQ(joined1.size(), joined2.size());
  for (std::size_t i = 0; i < joined1.size(); ++i)
    EXPECT_EQ(joined1[i].address, joined2[i].address);
  EXPECT_TRUE(std::is_sorted(joined1.begin(), joined1.end(),
                             [](const auto& a, const auto& b) {
                               return a.address < b.address;
                             }));
}

}  // namespace
}  // namespace snmpv3fp::scan
