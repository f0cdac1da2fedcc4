// Field-by-field equality of scan records, scan results, joined records
// and pipeline results, for the bit-identity tests. Scan results compare
// through their record stores, so a resident and a spilled store holding
// the same records compare equal.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "core/pipeline.hpp"
#include "scan/record.hpp"

namespace snmpv3fp::result_equal {

inline void expect_same_records(const std::vector<scan::ScanRecord>& a,
                                const std::vector<scan::ScanRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].target, b[i].target) << "record " << i;
    EXPECT_EQ(a[i].engine_id, b[i].engine_id) << "record " << i;
    EXPECT_EQ(a[i].engine_boots, b[i].engine_boots);
    EXPECT_EQ(a[i].engine_time, b[i].engine_time);
    EXPECT_EQ(a[i].send_time, b[i].send_time);
    EXPECT_EQ(a[i].receive_time, b[i].receive_time);
    EXPECT_EQ(a[i].response_count, b[i].response_count) << "record " << i;
    EXPECT_EQ(a[i].response_bytes, b[i].response_bytes);
    EXPECT_EQ(a[i].extra_engines, b[i].extra_engines) << "record " << i;
  }
}

inline void expect_same_scan(const scan::ScanResult& a,
                             const scan::ScanResult& b) {
  EXPECT_EQ(a.start_time, b.start_time);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.targets_probed, b.targets_probed);
  EXPECT_EQ(a.probe_bytes, b.probe_bytes);
  EXPECT_EQ(a.undecodable_responses, b.undecodable_responses);
  EXPECT_EQ(a.pacer_backoffs, b.pacer_backoffs);
  EXPECT_EQ(a.unverified_responses, b.unverified_responses);
  EXPECT_EQ(a.off_target_responses, b.off_target_responses);
  EXPECT_EQ(a.send_ring_overruns, b.send_ring_overruns);
  expect_same_records(a.materialize_records(), b.materialize_records());
}

inline void expect_same_joined(const std::vector<core::JoinedRecord>& a,
                               const std::vector<core::JoinedRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].address, b[i].address) << "joined " << i;
    EXPECT_EQ(a[i].first.engine_id, b[i].first.engine_id);
    EXPECT_EQ(a[i].second.engine_id, b[i].second.engine_id);
    EXPECT_EQ(a[i].first.engine_boots, b[i].first.engine_boots);
    EXPECT_EQ(a[i].second.engine_boots, b[i].second.engine_boots);
    EXPECT_EQ(a[i].first.engine_time, b[i].first.engine_time);
    EXPECT_EQ(a[i].second.engine_time, b[i].second.engine_time);
    EXPECT_EQ(a[i].first.send_time, b[i].first.send_time);
    EXPECT_EQ(a[i].second.send_time, b[i].second.send_time);
    EXPECT_EQ(a[i].first.receive_time, b[i].first.receive_time);
    EXPECT_EQ(a[i].second.receive_time, b[i].second.receive_time);
    EXPECT_EQ(a[i].first.response_count, b[i].first.response_count);
    EXPECT_EQ(a[i].second.response_count, b[i].second.response_count);
    EXPECT_EQ(a[i].first.extra_engines, b[i].first.extra_engines);
    EXPECT_EQ(a[i].second.extra_engines, b[i].second.extra_engines);
  }
}

// Joins, funnels, alias sets and devices of two full pipeline runs.
inline void expect_same_pipeline_result(const core::PipelineResult& a,
                                        const core::PipelineResult& b) {
  expect_same_joined(a.v4_joined, b.v4_joined);
  expect_same_joined(a.v6_joined, b.v6_joined);
  expect_same_joined(a.v4_records, b.v4_records);
  expect_same_joined(a.v6_records, b.v6_records);
  EXPECT_EQ(a.v4_join_stats.overlap, b.v4_join_stats.overlap);
  EXPECT_EQ(a.v4_join_stats.first_only, b.v4_join_stats.first_only);
  EXPECT_EQ(a.v4_join_stats.second_only, b.v4_join_stats.second_only);
  EXPECT_EQ(a.v6_join_stats.overlap, b.v6_join_stats.overlap);
  for (const auto& [ra, rb] : {std::pair{&a.v4_report, &b.v4_report},
                               std::pair{&a.v6_report, &b.v6_report}}) {
    EXPECT_EQ(ra->input, rb->input);
    EXPECT_EQ(ra->dropped, rb->dropped);
    EXPECT_EQ(ra->output, rb->output);
  }
  EXPECT_EQ(a.hitlist_v6, b.hitlist_v6);
  ASSERT_EQ(a.resolution.sets.size(), b.resolution.sets.size());
  for (std::size_t i = 0; i < a.resolution.sets.size(); ++i) {
    const auto& sa = a.resolution.sets[i];
    const auto& sb = b.resolution.sets[i];
    ASSERT_EQ(sa.addresses, sb.addresses);
    EXPECT_EQ(sa.engine_id, sb.engine_id);
    EXPECT_EQ(sa.engine_boots, sb.engine_boots);
    EXPECT_EQ(sa.last_reboot, sb.last_reboot);
  }
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    const auto& da = a.devices[i];
    const auto& db = b.devices[i];
    EXPECT_EQ(da.fingerprint.vendor, db.fingerprint.vendor);
    EXPECT_EQ(da.stack, db.stack);
    EXPECT_EQ(da.is_router, db.is_router);
    EXPECT_EQ(da.last_reboot, db.last_reboot);
  }
  EXPECT_EQ(a.router_device_count(), b.router_device_count());
}

// Everything two pipeline runs produced: all four scans, then the above.
inline void expect_same_run(const core::PipelineResult& a,
                            const core::PipelineResult& b) {
  expect_same_scan(a.v4_campaign.scan1, b.v4_campaign.scan1);
  expect_same_scan(a.v4_campaign.scan2, b.v4_campaign.scan2);
  expect_same_scan(a.v6_campaign.scan1, b.v6_campaign.scan1);
  expect_same_scan(a.v6_campaign.scan2, b.v6_campaign.scan2);
  expect_same_pipeline_result(a, b);
}

}  // namespace snmpv3fp::result_equal
