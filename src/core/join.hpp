// Joining the two scan campaigns per target (paper §4.4, "Inconsistent
// engine IDs" step): only addresses responsive in *both* scans continue
// into the filtering pipeline; the join also exposes the cross-scan
// consistency signals every later stage keys on.
#pragma once

#include <functional>
#include <vector>

#include "scan/record.hpp"
#include "util/parallel.hpp"

namespace snmpv3fp::core {

struct JoinedRecord {
  net::IpAddress address;
  scan::ScanRecord first;
  scan::ScanRecord second;

  const snmp::EngineId& engine_id() const { return first.engine_id; }

  bool engine_ids_match() const {
    return first.engine_id == second.engine_id;
  }
  bool boots_match() const {
    return first.engine_boots == second.engine_boots;
  }
  // |delta| of the derived last-reboot times, in seconds.
  double reboot_delta_seconds() const {
    const util::VTime delta = first.last_reboot() - second.last_reboot();
    return std::abs(util::to_seconds(delta));
  }
};

struct JoinStats {
  std::size_t first_only = 0;
  std::size_t second_only = 0;
  std::size_t overlap = 0;
};

// True when both results' stores spill to disk (store::RecordStore::
// spills): the shape where the join streams instead of materializing.
bool stores_spill(const scan::ScanResult& first,
                  const scan::ScanResult& second);

// Inner-joins the scans by target address; records responsive in only one
// scan are dropped (counted in stats). The output is in address order,
// identical at any thread count and in either shape. Resident stores are
// materialized on two threads, one per scan, each sorting fixed-width
// address keys; one linear merge of the key runs pairs the rows, and each
// matched record is moved into its JoinedRecord. Spilled stores
// (stores_spill) never come into RAM whole: join_stores_blocked sorts and
// merge-joins them, falling back to the materializing join on a damaged
// block. Both shapes read the stores through store::RecordStore::Cursor.
std::vector<JoinedRecord> join_scans(
    const scan::ScanResult& first, const scan::ScanResult& second,
    JoinStats* stats = nullptr,
    const util::ParallelOptions& parallel = {});

// Streaming join: external-sorts both stores by address — the two sorts
// run concurrently on dedicated threads — then steps one
// store::RecordStore::Cursor over each sorted store, decoding one block at
// a time, and moves each matched pair of records into its JoinedRecord.
// Matched pairs are emitted in address order as blocks of at most
// `block_rows` JoinedRecords; `emit` is called on the joining thread, in
// order. Returns false when a store block read fails (the caller falls
// back to the materializing join).
bool join_stores_blocked(
    const scan::ScanResult& first, const scan::ScanResult& second,
    std::size_t block_rows,
    const std::function<void(std::vector<JoinedRecord>&&)>& emit);

}  // namespace snmpv3fp::core
