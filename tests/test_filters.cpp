#include <gtest/gtest.h>

#include <algorithm>

#include "core/filters.hpp"
#include "filter_oracle.hpp"
#include "net/registry.hpp"

namespace snmpv3fp::core {
namespace {

using snmp::EngineId;

// A record that sails through every filter stage.
JoinedRecord good_record(std::uint32_t host = 1) {
  JoinedRecord record;
  record.address = net::Ipv4(0x08000000u + host);
  record.first.target = record.address;
  record.first.engine_id = EngineId::make_mac(
      net::kPenCisco, net::MacAddress::from_oui(0x00000c, host));
  record.first.engine_boots = 5;
  record.first.engine_time = 1000000;
  record.first.receive_time = 10 * util::kDay;
  record.second = record.first;
  record.second.receive_time = 16 * util::kDay;
  record.second.engine_time = 1000000 + 6 * 86400;
  return record;
}

// Runs the funnel and checks it against the reference oracle: same drop
// accounting, same survivors in the same order.
FilterReport run(std::vector<JoinedRecord> records,
                 std::vector<JoinedRecord>* survivors = nullptr,
                 FilterOptions options = {}) {
  FilterPipeline pipeline(options);
  std::vector<JoinedRecord> kept;
  const auto report = pipeline.apply_columnar(records, kept);
  auto expected = records;
  const auto expected_report = oracle::filter(expected, options);
  EXPECT_EQ(report.input, expected_report.input);
  EXPECT_EQ(report.dropped, expected_report.dropped);
  EXPECT_EQ(report.output, expected_report.output);
  EXPECT_EQ(kept.size(), expected.size());
  for (std::size_t i = 0; i < std::min(kept.size(), expected.size()); ++i)
    EXPECT_EQ(kept[i].address, expected[i].address) << "survivor " << i;
  if (survivors != nullptr) *survivors = std::move(kept);
  return report;
}

TEST(Filters, GoodRecordSurvivesEverything) {
  const auto report = run({good_record()});
  EXPECT_EQ(report.input, 1u);
  EXPECT_EQ(report.output, 1u);
  EXPECT_EQ(report.total_dropped(), 0u);
}

TEST(Filters, MissingEngineId) {
  auto record = good_record();
  record.first.engine_id = EngineId();
  record.second.engine_id = EngineId();
  const auto report = run({record});
  EXPECT_EQ(report.dropped_at(FilterStage::kMissingEngineId), 1u);
  EXPECT_EQ(report.output, 0u);
}

TEST(Filters, MissingInOnlyOneScanStillDrops) {
  auto record = good_record();
  record.second.engine_id = EngineId();
  const auto report = run({record});
  EXPECT_EQ(report.dropped_at(FilterStage::kMissingEngineId), 1u);
}

TEST(Filters, InconsistentEngineId) {
  auto record = good_record();
  record.second.engine_id = EngineId::make_mac(
      net::kPenCisco, net::MacAddress::from_oui(0x00000c, 999999));
  const auto report = run({record});
  EXPECT_EQ(report.dropped_at(FilterStage::kInconsistentEngineId), 1u);
}

TEST(Filters, TooShortEngineId) {
  auto record = good_record();
  record.first.engine_id = EngineId(util::Bytes{0x01, 0x02, 0x03});
  record.second.engine_id = record.first.engine_id;
  const auto report = run({record});
  EXPECT_EQ(report.dropped_at(FilterStage::kTooShortEngineId), 1u);
  // Exactly 4 bytes passes (keeps IPv4-derived engine IDs, paper §4.4).
  auto four = good_record();
  four.first.engine_id = EngineId(util::Bytes{0x01, 0x02, 0x03, 0x04});
  four.second.engine_id = four.first.engine_id;
  const auto report4 = run({four});
  EXPECT_EQ(report4.dropped_at(FilterStage::kTooShortEngineId), 0u);
}

TEST(Filters, PromiscuousPayloadAcrossEnterprises) {
  // Same payload bytes under two enterprise numbers -> both dropped.
  const util::Bytes payload = {0xde, 0xad, 0xbe, 0xef, 0x42};
  auto a = good_record(1);
  a.first.engine_id = EngineId::make_octets(net::kPenCisco, payload);
  a.second.engine_id = a.first.engine_id;
  auto b = good_record(2);
  b.first.engine_id = EngineId::make_octets(net::kPenHuawei, payload);
  b.second.engine_id = b.first.engine_id;
  auto c = good_record(3);  // unique payload, survives
  c.first.engine_id =
      EngineId::make_octets(net::kPenCisco, util::Bytes{1, 2, 3, 4, 5});
  c.second.engine_id = c.first.engine_id;

  std::vector<JoinedRecord> survivors;
  const auto report = run({a, b, c}, &survivors);
  EXPECT_EQ(report.dropped_at(FilterStage::kPromiscuousEngineId), 2u);
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0].address, c.address);
}

TEST(Filters, SamePayloadSameEnterpriseIsNotPromiscuous) {
  const util::Bytes payload = {0xde, 0xad, 0xbe, 0xef, 0x42};
  auto a = good_record(1);
  a.first.engine_id = EngineId::make_octets(net::kPenCisco, payload);
  a.second.engine_id = a.first.engine_id;
  auto b = good_record(2);
  b.first.engine_id = a.first.engine_id;
  b.second.engine_id = a.first.engine_id;
  const auto report = run({a, b});
  EXPECT_EQ(report.dropped_at(FilterStage::kPromiscuousEngineId), 0u);
}

TEST(Filters, UnroutableIpv4EngineId) {
  auto record = good_record();
  record.first.engine_id =
      EngineId::make_ipv4(net::kPenCisco, net::Ipv4(10, 0, 0, 1));
  record.second.engine_id = record.first.engine_id;
  const auto report = run({record});
  EXPECT_EQ(report.dropped_at(FilterStage::kUnroutableIpv4), 1u);

  auto routable = good_record();
  routable.first.engine_id =
      EngineId::make_ipv4(net::kPenCisco, net::Ipv4(8, 8, 8, 8));
  routable.second.engine_id = routable.first.engine_id;
  EXPECT_EQ(run({routable}).output, 1u);
}

TEST(Filters, UnregisteredMacEngineId) {
  auto record = good_record();
  record.first.engine_id = EngineId::make_mac(
      net::kPenCisco, net::MacAddress::from_oui(0xdeadbe, 0x1234));
  record.second.engine_id = record.first.engine_id;
  const auto report = run({record});
  EXPECT_EQ(report.dropped_at(FilterStage::kUnregisteredMac), 1u);
}

TEST(Filters, ZeroTimeOrBoots) {
  auto zero_boots = good_record(1);
  zero_boots.first.engine_boots = 0;
  zero_boots.second.engine_boots = 0;
  auto zero_time = good_record(2);
  zero_time.first.engine_time = 0;
  const auto report = run({zero_boots, zero_time});
  EXPECT_EQ(report.dropped_at(FilterStage::kZeroTimeOrBoots), 2u);
}

TEST(Filters, FutureEngineTime) {
  auto record = good_record();
  // engineTime exceeding seconds-since-1970 implies a reboot before 1970.
  record.first.engine_time = 0x70000000u;
  record.second.engine_time = 0x70000000u;
  const auto report = run({record});
  EXPECT_EQ(report.dropped_at(FilterStage::kFutureEngineTime), 1u);
}

TEST(Filters, InconsistentBoots) {
  auto record = good_record();
  record.second.engine_boots = record.first.engine_boots + 1;  // rebooted
  const auto report = run({record});
  EXPECT_EQ(report.dropped_at(FilterStage::kInconsistentBoots), 1u);
}

TEST(Filters, RebootDriftThreshold) {
  auto drifted = good_record(1);
  drifted.second.engine_time += 11;  // last reboot shifts by 11 s
  auto borderline = good_record(2);
  borderline.second.engine_time += 10;  // exactly at the threshold: kept
  std::vector<JoinedRecord> survivors;
  const auto report = run({drifted, borderline}, &survivors);
  EXPECT_EQ(report.dropped_at(FilterStage::kInconsistentReboot), 1u);
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0].address, borderline.address);
}

TEST(Filters, ThresholdIsConfigurable) {
  auto drifted = good_record();
  drifted.second.engine_time += 25;
  FilterOptions loose;
  loose.reboot_threshold_seconds = 30.0;
  EXPECT_EQ(run({drifted}, nullptr, loose).output, 1u);
}

TEST(Filters, DropAccountingSumsToInput) {
  std::vector<JoinedRecord> records;
  for (std::uint32_t i = 0; i < 50; ++i) records.push_back(good_record(i));
  records[3].first.engine_id = EngineId();
  records[3].second.engine_id = EngineId();
  records[7].second.engine_boots += 2;
  records[9].first.engine_time = 0;
  const auto report = run(records);
  EXPECT_EQ(report.input, 50u);
  EXPECT_EQ(report.input - report.total_dropped(), report.output);
  EXPECT_EQ(report.output, 47u);
}

TEST(Filters, Idempotent) {
  std::vector<JoinedRecord> records;
  for (std::uint32_t i = 0; i < 30; ++i) records.push_back(good_record(i));
  records[5].second.engine_boots += 1;
  std::vector<JoinedRecord> survivors;
  run(records, &survivors);
  const auto second_pass = run(survivors);
  EXPECT_EQ(second_pass.total_dropped(), 0u);  // nothing more to remove
}

TEST(Filters, ValidEngineIdCountExcludesTimeStages) {
  auto bad_id = good_record(1);
  bad_id.first.engine_id = EngineId();
  bad_id.second.engine_id = EngineId();
  auto bad_time = good_record(2);
  bad_time.second.engine_boots += 1;
  const auto report = run({bad_id, bad_time, good_record(3)});
  // bad_time has a VALID engine ID even though its time fields fail.
  EXPECT_EQ(report.valid_engine_id_count(), 2u);
  EXPECT_EQ(report.output, 1u);
}

TEST(Filters, StageNamesAreDistinct) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kFilterStageCount; ++i)
    names.insert(to_string(static_cast<FilterStage>(i)));
  EXPECT_EQ(names.size(), kFilterStageCount);
}

}  // namespace
}  // namespace snmpv3fp::core
