#include "scan/record.hpp"

#include <algorithm>

#include "store/record_store.hpp"

namespace snmpv3fp::scan {

std::size_t ScanResult::responsive() const {
  return store != nullptr ? store->size() : 0;
}

util::Status ScanResult::for_each_record(
    const std::function<void(const ScanRecord&)>& fn) const {
  if (store == nullptr) return {};
  return store->for_each(
      [&fn](const ScanRecord& record, std::size_t) { fn(record); });
}

std::vector<ScanRecord> ScanResult::materialize_records() const {
  if (store == nullptr) return {};
  return store->materialize();
}

std::size_t ScanResult::unique_engine_ids() const {
  // Streams the store, copying only the (non-empty) IDs, not the records.
  std::vector<snmp::EngineId> ids;
  ids.reserve(responsive());
  (void)for_each_record([&ids](const ScanRecord& r) {
    if (!r.engine_id.empty()) ids.push_back(r.engine_id);
  });
  // Orders by the raw bytes: the same order as EngineId's defaulted <=>,
  // which GCC 12 flags with a false -Wstringop-overread when inlined here.
  std::sort(ids.begin(), ids.end(),
            [](const snmp::EngineId& a, const snmp::EngineId& b) {
              return a.raw() < b.raw();
            });
  const auto end = std::unique(ids.begin(), ids.end());
  return static_cast<std::size_t>(end - ids.begin());
}

}  // namespace snmpv3fp::scan
