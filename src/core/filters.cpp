#include "core/filters.hpp"

namespace snmpv3fp::core {

std::string_view to_string(FilterStage stage) {
  switch (stage) {
    case FilterStage::kMissingEngineId: return "missing engine ID";
    case FilterStage::kInconsistentEngineId: return "inconsistent engine ID";
    case FilterStage::kTooShortEngineId: return "too short engine ID";
    case FilterStage::kPromiscuousEngineId: return "promiscuous engine ID";
    case FilterStage::kUnroutableIpv4: return "unroutable IPv4 engine ID";
    case FilterStage::kUnregisteredMac: return "unregistered MAC engine ID";
    case FilterStage::kZeroTimeOrBoots: return "zero engine time or boots";
    case FilterStage::kFutureEngineTime: return "engine time in the future";
    case FilterStage::kInconsistentBoots: return "inconsistent engine boots";
    case FilterStage::kInconsistentReboot: return "inconsistent last reboot";
  }
  return "?";
}

std::string_view to_slug(FilterStage stage) {
  switch (stage) {
    case FilterStage::kMissingEngineId: return "missing_engine_id";
    case FilterStage::kInconsistentEngineId: return "inconsistent_engine_id";
    case FilterStage::kTooShortEngineId: return "too_short_engine_id";
    case FilterStage::kPromiscuousEngineId: return "promiscuous_engine_id";
    case FilterStage::kUnroutableIpv4: return "unroutable_ipv4_engine_id";
    case FilterStage::kUnregisteredMac: return "unregistered_mac_engine_id";
    case FilterStage::kZeroTimeOrBoots: return "zero_time_or_boots";
    case FilterStage::kFutureEngineTime: return "future_engine_time";
    case FilterStage::kInconsistentBoots: return "inconsistent_boots";
    case FilterStage::kInconsistentReboot: return "inconsistent_reboot";
  }
  return "unknown";
}

std::size_t FilterReport::valid_engine_id_count() const {
  // Stages 0..5 are the engine-ID validity stages.
  std::size_t survivors = input;
  for (std::size_t i = 0;
       i <= static_cast<std::size_t>(FilterStage::kUnregisteredMac); ++i)
    survivors -= dropped[i];
  return survivors;
}

std::size_t FilterReport::total_dropped() const {
  std::size_t total = 0;
  for (const auto d : dropped) total += d;
  return total;
}

}  // namespace snmpv3fp::core
