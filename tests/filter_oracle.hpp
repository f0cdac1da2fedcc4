// Reference implementation of the paper's §4.4 filter funnel, for tests.
//
// Deliberately naive: the ten stages run one after another in the published
// order, each keeping the survivors of the one before, and the promiscuous
// stage takes a std::map census over exactly the records alive when it
// runs. FilterPipeline::apply_columnar must agree with it record for record.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "core/filters.hpp"
#include "net/registry.hpp"

namespace snmpv3fp::oracle {

inline bool passes(core::FilterStage stage, const core::JoinedRecord& r,
                   const core::FilterOptions& options,
                   const std::set<util::Bytes>& promiscuous) {
  using core::FilterStage;
  const auto& id = r.engine_id();
  switch (stage) {
    case FilterStage::kMissingEngineId:
      return !r.first.engine_id.empty() && !r.second.engine_id.empty();
    case FilterStage::kInconsistentEngineId: return r.engine_ids_match();
    case FilterStage::kTooShortEngineId:
      return id.size() >= options.min_engine_id_bytes;
    case FilterStage::kPromiscuousEngineId: {
      const auto payload = id.payload();
      return !payload ||
             !promiscuous.contains(util::Bytes(payload->begin(), payload->end()));
    }
    case FilterStage::kUnroutableIpv4:
      return !id.ipv4() || id.ipv4()->is_routable();
    case FilterStage::kUnregisteredMac:
      return !id.mac() || net::OuiRegistry::embedded().contains(id.mac()->oui());
    case FilterStage::kZeroTimeOrBoots:
      return r.first.engine_time != 0 && r.first.engine_boots != 0 &&
             r.second.engine_time != 0 && r.second.engine_boots != 0;
    case FilterStage::kFutureEngineTime:
      return r.first.last_reboot() >= util::kUnixEpochVtime &&
             r.second.last_reboot() >= util::kUnixEpochVtime;
    case FilterStage::kInconsistentBoots: return r.boots_match();
    case FilterStage::kInconsistentReboot:
      return r.reboot_delta_seconds() <= options.reboot_threshold_seconds;
  }
  return true;
}

// Runs the funnel over `records`; the survivors are left in `records`.
inline core::FilterReport filter(std::vector<core::JoinedRecord>& records,
                                 const core::FilterOptions& options = {}) {
  core::FilterReport report;
  report.input = records.size();
  for (std::size_t s = 0; s < core::kFilterStageCount; ++s) {
    const auto stage = static_cast<core::FilterStage>(s);
    std::set<util::Bytes> promiscuous;
    if (stage == core::FilterStage::kPromiscuousEngineId) {
      std::map<util::Bytes, std::set<std::uint32_t>> enterprises;
      for (const auto& r : records) {
        const auto enterprise = r.engine_id().enterprise();
        const auto payload = r.engine_id().payload();
        if (enterprise && payload && !payload->empty())
          enterprises[util::Bytes(payload->begin(), payload->end())].insert(
              *enterprise);
      }
      for (const auto& [payload, set] : enterprises)
        if (set.size() > 1) promiscuous.insert(payload);
    }
    std::vector<core::JoinedRecord> kept;
    for (auto& r : records)
      if (passes(stage, r, options, promiscuous)) kept.push_back(std::move(r));
    report.dropped[s] = records.size() - kept.size();
    records = std::move(kept);
  }
  report.output = records.size();
  return report;
}

}  // namespace snmpv3fp::oracle
