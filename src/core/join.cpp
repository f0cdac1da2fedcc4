#include "core/join.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "obs/obs.hpp"
#include "store/record_store.hpp"

namespace snmpv3fp::core {

namespace {

// One side of the merge join: a store cursor and the record it last
// yielded. `have` turns false at the end of the store or on a read error.
struct RecordStream {
  store::RecordStore::Cursor cursor;
  scan::ScanRecord record;
  bool have = false;

  explicit RecordStream(const store::RecordStore& owner)
      : cursor(owner.cursor()) {
    advance();
  }
  void advance() { have = cursor.next(record); }
};

}  // namespace

// Spilled path: external-sort both stores by address (bounded RAM),
// then merge-join the two sorted stores through row cursors, moving each
// matched pair into its JoinedRecord. Addresses are unique within a scan,
// so the address-ordered match sequence is exactly the resident join's
// output.
bool join_stores_blocked(
    const scan::ScanResult& first, const scan::ScanResult& second,
    std::size_t block_rows,
    const std::function<void(std::vector<JoinedRecord>&&)>& emit) {
  const store::StoreOptions& opts = first.store->options();
  const std::size_t chunk = store::sort_chunk_records(opts);
  // The two sorts are independent (distinct sources, distinct output
  // names); running them on dedicated threads halves the pre-join stall
  // the ordered-merge barrier used to serialize.
  std::unique_ptr<store::RecordStore> sorted1, sorted2;
  util::run_overlapped(
      {[&] {
         sorted1 = store::sort_stores({first.store.get()},
                                      store::SortKey::kAddress, opts,
                                      first.store->name() + "_joinkey", chunk);
       },
       [&] {
         sorted2 = store::sort_stores({second.store.get()},
                                      store::SortKey::kAddress, opts,
                                      second.store->name() + "_joinkey",
                                      chunk);
       }});
  if (sorted1 == nullptr || sorted2 == nullptr) {
    if (sorted1 != nullptr) sorted1->remove_files();
    if (sorted2 != nullptr) sorted2->remove_files();
    return false;
  }

  if (block_rows == 0) block_rows = 1;
  std::vector<JoinedRecord> out;
  out.reserve(block_rows);
  RecordStream s1(*sorted1);
  RecordStream s2(*sorted2);
  while (s1.have && s2.have) {
    if (s1.record.target < s2.record.target) {
      s1.advance();
    } else if (s2.record.target < s1.record.target) {
      s2.advance();
    } else {
      const net::IpAddress address = s1.record.target;
      out.push_back({address, std::move(s1.record), std::move(s2.record)});
      if (out.size() >= block_rows) {
        emit(std::move(out));
        out = {};
        out.reserve(block_rows);
      }
      s1.advance();
      s2.advance();
    }
  }
  const bool failed =
      !s1.cursor.error().empty() || !s2.cursor.error().empty();
  sorted1->remove_files();
  sorted2->remove_files();
  if (failed) return false;
  if (!out.empty()) emit(std::move(out));
  return true;
}

namespace {

// A record's address as fixed-width integers plus its row: ordering by
// (family, hi, lo) is IpAddress order — every IPv4 address before every
// IPv6 one, each family by value. IPv4 keeps its value in `lo`; IPv6
// keys are its big-endian halves.
struct JoinKey {
  net::Family family = net::Family::kIpv4;
  std::uint32_t row = 0;
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator<(const JoinKey& other) const {
    if (family != other.family) return family < other.family;
    if (hi != other.hi) return hi < other.hi;
    return lo < other.lo;
  }
};

std::vector<JoinKey> sorted_keys(const std::vector<scan::ScanRecord>& records) {
  std::vector<JoinKey> keys;
  keys.reserve(records.size());
  for (std::size_t row = 0; row < records.size(); ++row) {
    const net::IpAddress& address = records[row].target;
    JoinKey key;
    key.family = address.family();
    key.row = static_cast<std::uint32_t>(row);
    if (address.is_v4()) {
      key.lo = address.v4().value();
    } else {
      key.hi = address.v6().high64();
      key.lo = address.v6().low64();
    }
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Resident path: materialize both scans and sort their address keys
// concurrently, merge the two key runs, then move each matched pair of
// records into its JoinedRecord. Addresses are unique within a scan, so
// the merge emits the matches in address order. Materialize fails closed
// per block, so on a damaged store anything that reads back clean still
// joins.
std::vector<JoinedRecord> join_materialized(
    const scan::ScanResult& first, const scan::ScanResult& second,
    const util::ParallelOptions& parallel) {
  std::vector<scan::ScanRecord> records1, records2;
  std::vector<JoinKey> keys1, keys2;
  util::run_overlapped({[&] {
                          records1 = first.materialize_records();
                          keys1 = sorted_keys(records1);
                        },
                        [&] {
                          records2 = second.materialize_records();
                          keys2 = sorted_keys(records2);
                        }});

  std::vector<std::pair<std::uint32_t, std::uint32_t>> matches;
  matches.reserve(std::min(keys1.size(), keys2.size()));
  for (std::size_t i = 0, j = 0; i < keys1.size() && j < keys2.size();) {
    if (keys1[i] < keys2[j]) {
      ++i;
    } else if (keys2[j] < keys1[i]) {
      ++j;
    } else {
      matches.emplace_back(keys1[i++].row, keys2[j++].row);
    }
  }
  return util::parallel_map<JoinedRecord>(
      matches.size(), parallel, [&](std::size_t i) {
        scan::ScanRecord& a = records1[matches[i].first];
        scan::ScanRecord& b = records2[matches[i].second];
        const net::IpAddress address = a.target;
        return JoinedRecord{address, std::move(a), std::move(b)};
      });
}

}  // namespace

bool stores_spill(const scan::ScanResult& first,
                  const scan::ScanResult& second) {
  return first.store != nullptr && first.store->spills() &&
         second.store != nullptr && second.store->spills();
}

std::vector<JoinedRecord> join_scans(const scan::ScanResult& first,
                                     const scan::ScanResult& second,
                                     JoinStats* stats,
                                     const util::ParallelOptions& parallel) {
  std::vector<JoinedRecord> joined;
  const bool spilled = stores_spill(first, second);
  const bool streamed =
      spilled &&
      join_stores_blocked(first, second, 4096,
                          [&joined](std::vector<JoinedRecord>&& block) {
                            std::move(block.begin(), block.end(),
                                      std::back_inserter(joined));
                          });
  if (!streamed) {
    // Resident stores, or a damaged spilled one: best-effort fallback
    // through materialized vectors.
    if (spilled)
      obs::log_warn("store merge join failed, materializing",
                    {{"first", first.label}, {"second", second.label}});
    joined = join_materialized(first, second, parallel);
  }
  if (stats != nullptr) {
    stats->overlap = joined.size();
    stats->first_only = first.responsive() - joined.size();
    stats->second_only = second.responsive() - joined.size();
  }
  return joined;
}

}  // namespace snmpv3fp::core
