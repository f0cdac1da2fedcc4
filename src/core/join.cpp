#include "core/join.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "store/columnar.hpp"
#include "store/record_store.hpp"

namespace snmpv3fp::core {

namespace {

// Hash-join of two record vectors. Chunks probe the shared
// (read-only) index and concatenate in chunk order — identical to the
// sequential left-to-right join — then the final sort fixes one
// deterministic order regardless of hash-map iteration.
std::vector<JoinedRecord> join_vectors(
    const std::vector<scan::ScanRecord>& first,
    const std::vector<scan::ScanRecord>& second,
    const std::unordered_map<net::IpAddress, std::size_t>& second_index,
    const util::ParallelOptions& parallel) {
  const std::size_t n = first.size();
  std::vector<std::vector<JoinedRecord>> parts(
      std::max<std::size_t>(parallel.resolved_threads(), 1));
  util::parallel_for_chunks(
      0, n, parallel,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        auto& local = parts[chunk];
        local.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          const auto& record = first[i];
          const auto it = second_index.find(record.target);
          if (it == second_index.end()) continue;
          local.push_back({record.target, record, second[it->second]});
        }
      });

  std::size_t matched = 0;
  for (const auto& part : parts) matched += part.size();
  std::vector<JoinedRecord> joined;
  joined.reserve(matched);
  for (auto& part : parts)
    std::move(part.begin(), part.end(), std::back_inserter(joined));
  std::sort(joined.begin(), joined.end(),
            [](const JoinedRecord& a, const JoinedRecord& b) {
              return a.address < b.address;
            });
  return joined;
}

// One side of the columnar merge join: a columnar block cursor plus the
// in-block position. Advancing past the last row loads the next block.
struct BlockStream {
  store::RecordStore::ColumnarCursor cursor;
  store::ColumnarBlock block;
  std::size_t pos = 0;
  bool have = false;

  explicit BlockStream(const store::RecordStore& owner)
      : cursor(owner.columnar_cursor()) {
    advance_block();
  }
  void advance_block() {
    pos = 0;
    have = cursor.next_block(block);
  }
  void advance() {
    if (++pos >= block.size()) advance_block();
  }
  const net::IpAddress& address() const { return block.target[pos]; }
};

}  // namespace

// Spilled path: external-sort both stores by address (bounded RAM),
// then a two-cursor columnar merge join. Addresses are unique within a
// scan, so the address-ordered match sequence is exactly the hash join's
// output after its final sort.
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
  BlockStream s1(*sorted1);
  BlockStream s2(*sorted2);
  while (s1.have && s2.have) {
    if (s1.address() < s2.address()) {
      s1.advance();
    } else if (s2.address() < s1.address()) {
      s2.advance();
    } else {
      out.push_back({s1.address(), s1.block.row(s1.pos), s2.block.row(s2.pos)});
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

// Resident path: materialize both scans, index the second and hash-join
// the vectors. Materialize fails closed per block, so on a damaged store
// anything that reads back clean still joins.
std::vector<JoinedRecord> join_materialized(
    const scan::ScanResult& first, const scan::ScanResult& second,
    const util::ParallelOptions& parallel) {
  const auto records1 = first.materialize_records();
  const auto records2 = second.materialize_records();
  std::unordered_map<net::IpAddress, std::size_t> index2;
  index2.reserve(records2.size());
  for (std::size_t i = 0; i < records2.size(); ++i)
    index2.emplace(records2[i].target, i);
  return join_vectors(records1, records2, index2, parallel);
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
