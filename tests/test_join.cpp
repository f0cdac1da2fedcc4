// The two-scan join's order and shape contracts (core/join.hpp) on
// hand-built record stores. Addresses mix IPv4 with IPv6 whose upper 64
// bits are zero, so a join key that drops the family tag would pair
// 10.0.0.1 with ::10.0.0.1 and interleave the families. The resident
// merge join must equal a std::sort-by-IpAddress reference and the
// spilled streaming join row for row, at any thread count; a damaged
// spilled store still joins every block that reads back clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/join.hpp"
#include "result_equal.hpp"
#include "store/record_store.hpp"
#include "unique_dir.hpp"
#include "util/rng.hpp"

namespace snmpv3fp {
namespace {

using result_equal::expect_same_joined;
using testing_util::UniqueDir;

// Record `i` of scan `scan`: fields that differ per scan and per row, so a
// row paired with the wrong partner shows.
scan::ScanRecord make_record(const net::IpAddress& target, int scan,
                             std::size_t i) {
  scan::ScanRecord r;
  r.target = target;
  r.engine_id = snmp::EngineId(util::Bytes{
      0x80, 0x00, 0x00, 0x09, 0x03, static_cast<std::uint8_t>(i),
      static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(scan)});
  r.engine_boots = static_cast<std::uint32_t>(3 + i % 7);
  r.engine_time = static_cast<std::uint32_t>(1000 + i * 13 + scan);
  r.send_time = static_cast<util::VTime>(i * 100 + scan);
  r.receive_time = r.send_time + 5000 + static_cast<util::VTime>(i % 11);
  r.response_count = 1 + i % 3;
  r.response_bytes = 100 + i % 50;
  if (i % 17 == 0)
    r.extra_engines.push_back(snmp::EngineId(util::Bytes{0x80, 0x01}));
  return r;
}

struct Scans {
  std::vector<scan::ScanRecord> first;
  std::vector<scan::ScanRecord> second;
};

// Per value v: IPv4 v and IPv6 ::v (upper half zero), in one scan, the
// other or both, plus a few IPv6 addresses with a real /64 — each scan's
// records in a shuffled (receive-like) order.
Scans make_scans() {
  util::Rng rng(0x301e);
  Scans scans;
  std::size_t row = 0;
  const auto add = [&](const net::IpAddress& address) {
    const auto where = rng.next_below(4);  // 0: first, 1: second, else both
    if (where != 1) scans.first.push_back(make_record(address, 1, row));
    if (where != 0) scans.second.push_back(make_record(address, 2, row));
    ++row;
  };
  for (std::uint32_t i = 0; i < 700; ++i) {
    const std::uint32_t v4 = 0x0a000000u + i * 3;
    add(net::IpAddress(net::Ipv4(v4)));
    add(net::IpAddress(net::Ipv6::from_halves(0, v4)));
    if (i % 4 == 0)
      add(net::IpAddress(net::Ipv6::from_halves(0x20010db800000000ull, v4)));
  }
  add(net::IpAddress(net::Ipv4(0u)));
  add(net::IpAddress(net::Ipv6()));
  rng.shuffle(scans.first);
  rng.shuffle(scans.second);
  return scans;
}

// A duplicate response to the record appended at `index`: `engine` is a
// further engine ID, or null when the duplicate repeats the record's own.
struct Duplicate {
  std::size_t index = 0;
  const snmp::EngineId* engine = nullptr;
};

scan::ScanResult to_result(const std::vector<scan::ScanRecord>& records,
                           const store::StoreOptions& options,
                           const std::string& name,
                           const std::vector<Duplicate>& duplicates = {}) {
  scan::ScanResult result;
  result.label = name;
  result.store = std::make_shared<store::RecordStore>(options, name);
  for (const auto& record : records) result.store->append(record);
  // Noted before the final seal, as a campaign notes them: sealed records
  // take a patch, the open tail is updated in place.
  for (const auto& duplicate : duplicates)
    result.store->note_duplicate(duplicate.index, duplicate.engine);
  result.store->seal();
  return result;
}

// Duplicates on every 13th record: a new extra engine twice (the count
// rises by two, the engine joins once) and, six records on, a repeat of
// the record's own engine ID.
std::vector<Duplicate> duplicates_for(std::size_t records,
                                      const snmp::EngineId& extra) {
  std::vector<Duplicate> duplicates;
  for (std::size_t i = 0; i + 6 < records; i += 13) {
    duplicates.push_back({i, &extra});
    duplicates.push_back({i, &extra});
    duplicates.push_back({i + 6, nullptr});
  }
  return duplicates;
}

// `records` as a reader must see them once `duplicates` are noted.
std::vector<scan::ScanRecord> with_duplicates(
    std::vector<scan::ScanRecord> records,
    const std::vector<Duplicate>& duplicates) {
  for (const auto& duplicate : duplicates) {
    auto& record = records[duplicate.index];
    ++record.response_count;
    if (duplicate.engine == nullptr) continue;
    auto& extra = record.extra_engines;
    const auto it = std::lower_bound(extra.begin(), extra.end(),
                                     *duplicate.engine);
    if (it == extra.end() || *it != *duplicate.engine)
      extra.insert(it, *duplicate.engine);
  }
  return records;
}

// The join by definition: pair records with equal targets, then sort the
// pairs with IpAddress's own ordering.
std::vector<core::JoinedRecord> reference_join(
    const std::vector<scan::ScanRecord>& first,
    const std::vector<scan::ScanRecord>& second) {
  std::map<net::IpAddress, const scan::ScanRecord*> by_target;
  for (const auto& record : second) by_target.emplace(record.target, &record);
  std::vector<core::JoinedRecord> joined;
  for (const auto& record : first) {
    const auto it = by_target.find(record.target);
    if (it != by_target.end())
      joined.push_back({record.target, record, *it->second});
  }
  std::sort(joined.begin(), joined.end(),
            [](const core::JoinedRecord& a, const core::JoinedRecord& b) {
              return a.address < b.address;
            });
  return joined;
}

store::StoreOptions spilling_options(const UniqueDir& dir) {
  store::StoreOptions options;
  options.dir = dir.path();
  options.records_per_block = 64;
  options.max_resident_bytes = 1;  // evict every block: reads go to disk
  return options;
}

TEST(JoinOrder, MixedFamiliesMatchSortedReferenceAndStreamingJoin) {
  const Scans scans = make_scans();
  const auto expected = reference_join(scans.first, scans.second);
  ASSERT_GT(expected.size(), 500u);
  // The families must stay apart: no IPv4 row pairs with an IPv6 one, and
  // the output holds both.
  const auto first_v6 = std::find_if(
      expected.begin(), expected.end(),
      [](const core::JoinedRecord& r) { return r.address.is_v6(); });
  ASSERT_NE(first_v6, expected.begin());
  ASSERT_NE(first_v6, expected.end());

  const store::StoreOptions resident;
  const auto first = to_result(scans.first, resident, "join_first");
  const auto second = to_result(scans.second, resident, "join_second");
  ASSERT_FALSE(core::stores_spill(first, second));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    util::ParallelOptions parallel;
    parallel.threads = threads;
    core::JoinStats stats;
    const auto joined = core::join_scans(first, second, &stats, parallel);
    expect_same_joined(joined, expected);
    EXPECT_EQ(stats.overlap, expected.size());
    EXPECT_EQ(stats.first_only, scans.first.size() - expected.size());
    EXPECT_EQ(stats.second_only, scans.second.size() - expected.size());
  }

  const UniqueDir dir("join_order");
  const auto options = spilling_options(dir);
  const auto spilled_first = to_result(scans.first, options, "spill_first");
  const auto spilled_second = to_result(scans.second, options, "spill_second");
  ASSERT_TRUE(core::stores_spill(spilled_first, spilled_second));
  expect_same_joined(core::join_scans(spilled_first, spilled_second),
                     expected);

  // Duplicate responses patched onto sealed blocks: the spilled join's
  // external sort folds the overlay into its sorted runs, and the resident
  // join reads it through materialize. Both must see it.
  const snmp::EngineId extra(util::Bytes{0x80, 0x00, 0x00, 0x09, 0x7f});
  const auto dups_first = duplicates_for(scans.first.size(), extra);
  const auto dups_second = duplicates_for(scans.second.size(), extra);
  const auto patched_expected =
      reference_join(with_duplicates(scans.first, dups_first),
                     with_duplicates(scans.second, dups_second));
  const auto patched_first = to_result(scans.first, resident,
                                       "patched_first", dups_first);
  const auto patched_second = to_result(scans.second, resident,
                                        "patched_second", dups_second);
  ASSERT_GT(patched_first.store->patch_count(), 0u);
  expect_same_joined(core::join_scans(patched_first, patched_second),
                     patched_expected);
  const auto spilled_patched_first =
      to_result(scans.first, options, "spill_patched_first", dups_first);
  const auto spilled_patched_second =
      to_result(scans.second, options, "spill_patched_second", dups_second);
  ASSERT_GT(spilled_patched_first.store->patch_count(), 0u);
  ASSERT_GT(spilled_patched_second.store->patch_count(), 0u);
  expect_same_joined(
      core::join_scans(spilled_patched_first, spilled_patched_second),
      patched_expected);
}

TEST(JoinOrder, DamagedSpilledStoreStillJoinsItsCleanBlocks) {
  const Scans scans = make_scans();
  const UniqueDir dir("join_damage");
  const auto options = spilling_options(dir);
  const auto first = to_result(scans.first, options, "damage_first");
  const auto second = to_result(scans.second, options, "damage_second");

  // Flip one byte in the middle of the second scan's segment: the
  // streaming join's external sort fails on that block, and the fallback
  // materializes every block before it.
  const std::string seg = dir / "damage_second.seg";
  const auto size = std::filesystem::file_size(seg);
  {
    std::fstream file(seg, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(size / 2));
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    file.seekp(static_cast<std::streamoff>(size / 2));
    file.write(&byte, 1);
  }
  const auto clean = second.materialize_records();
  ASSERT_GT(clean.size(), 0u);
  ASSERT_LT(clean.size(), scans.second.size());
  // What reads back is exactly a prefix of what was appended.
  for (std::size_t i = 0; i < clean.size(); ++i)
    ASSERT_EQ(clean[i].target, scans.second[i].target) << i;

  const auto expected = reference_join(scans.first, clean);
  ASSERT_GT(expected.size(), 0u);
  core::JoinStats stats;
  expect_same_joined(core::join_scans(first, second, &stats), expected);
  EXPECT_EQ(stats.overlap, expected.size());
}

}  // namespace
}  // namespace snmpv3fp
