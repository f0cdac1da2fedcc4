// Columnar execution of the analysis funnel: the one implementation of the
// ten-stage filter. Its input is joined rows (JoinedRecord); the columns
// are the per-row engine codes and verdicts it builds from them.
// FilterPipeline::apply_columnar and the overlapped store join both drive
// ColumnarFunnel.
//
// The filter funnel consults a handful of scalar fields per record plus a
// few predicates of the engine ID. Both scans' engine IDs are
// dictionary-encoded through ONE run-global dictionary, so
//   - engine-ID equality between the scans is a u32 compare (shared
//     dictionary: code equality <=> byte equality), and
//   - every engine-ID predicate is evaluated once per *distinct* engine ID
//     for the whole run, not once per record per stage.
// The verdict loop is then a single branch-light pass per row. Drop
// accounting: verdict_row = first failed row-local stage (promiscuous
// skipped), the promiscuous census runs over rows alive before its
// position, and the final verdict re-inserts the promiscuous stage — the
// sequential funnel's counts exactly (tests/filter_oracle.hpp).
//
// ColumnarFunnel is incremental so the spilled-store pipeline can overlap
// stages: feed_rows() consumes blocks as the merge join produces them
// (core/overlap.hpp), finish() runs the census and materializes survivors
// once the last block has arrived.
#pragma once

#include <span>

#include "core/filters.hpp"
#include "store/engine_dictionary.hpp"

namespace snmpv3fp::core {

// Incremental columnar filter executor. Usage:
//   ColumnarFunnel funnel(options);
//   for each block (in row order): funnel.feed_rows(block, parallel);
//   report = funnel.finish(all_rows, survivors, parallel, obs);
// feed_rows() encodes both engine IDs of every row into the run-global
// dictionary and computes per-row verdicts for the row-local stages;
// finish() runs the promiscuous census over the accumulated verdicts and
// materializes survivors from `rows` (which must be the concatenation, in
// order, of every row fed). Blocks must arrive in row order — the verdict
// store and the dictionary's first-appearance codes are positional.
class ColumnarFunnel {
 public:
  explicit ColumnarFunnel(FilterOptions options);

  void feed_rows(std::span<const JoinedRecord> rows,
                 const util::ParallelOptions& parallel = {});

  // Emits per-stage dropped.<slug> and output counters on `obs` (the
  // caller owns the surrounding "filter" span and input counter, since
  // feeding may be spread across an overlapped region).
  FilterReport finish(std::span<const JoinedRecord> rows,
                      std::vector<JoinedRecord>& survivors,
                      const util::ParallelOptions& parallel = {},
                      const obs::ObsOptions& obs = {});

  std::size_t rows_fed() const { return verdict_row_.size(); }

 private:
  // Predicates of one distinct engine ID, evaluated once at dictionary
  // insertion and reused by every row that carries the ID.
  struct CodeInfo {
    bool empty = false;
    bool too_short = false;
    bool unroutable_v4 = false;
    bool unregistered_mac = false;
    bool has_payload = false;
    bool has_census_key = false;  // enterprise + non-empty payload
    std::uint32_t enterprise = 0;
    // View into dict_'s entry for this code — stable because entries only
    // append and the underlying byte buffers move, never reallocate.
    util::ByteView payload;
  };

  // Code of `id` in the run-global dictionary, evaluating the CodeInfo
  // predicates once on first appearance.
  std::uint32_t encode_id(const snmp::EngineId& id);

  FilterOptions options_;
  store::EngineDictionary dict_;  // run-global code space
  std::vector<CodeInfo> info_;
  // Per row fed: first failed row-local stage position (promiscuous
  // treated as passing), kFilterStageCount when none; and the first scan's
  // run-global engine-ID code for the census.
  std::vector<std::uint8_t> verdict_row_;
  std::vector<std::uint32_t> code_;
};

}  // namespace snmpv3fp::core
