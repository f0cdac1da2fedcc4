// Producer/consumer overlap of the streaming join and the filter funnel
// (execution-only: the pipeline's shape whenever both scans' stores spill
// to disk, core/pipeline.cpp).
//
// A stage-barriered run finishes the whole merge join — including its
// external-sort I/O — before the filter reads the first record. Here the
// join produces blocks of matched rows into a bounded queue on a
// dedicated thread while the consumer feeds each block to the columnar
// funnel's verdict pass, so filter CPU hides behind join I/O. The queue is
// bounded (backpressure) and strictly FIFO, and the single consumer feeds
// blocks in production order, so every derived artifact is bit-identical
// to join_scans + apply_columnar at any thread count (tests/test_store.cpp,
// tests/test_golden.cpp).
#pragma once

#include "core/filters.hpp"
#include "core/join.hpp"

namespace snmpv3fp::core {

struct OverlapOutcome {
  // False when a store block read failed mid-join: the partial products
  // below are meaningless and the caller must fall back to the
  // materializing join + apply_columnar.
  bool ok = false;
  std::vector<JoinedRecord> joined;  // full raw join, address order
  JoinStats stats;
  FilterReport report;
  std::vector<JoinedRecord> survivors;
};

// Runs the streaming join of two scan results overlapped
// with the columnar filter funnel. `obs` scopes the filter counters (the
// caller owns the surrounding join/filter spans).
OverlapOutcome join_filter_overlapped(const scan::ScanResult& first,
                                      const scan::ScanResult& second,
                                      const FilterPipeline& filter,
                                      const util::ParallelOptions& parallel,
                                      const obs::ObsOptions& obs);

}  // namespace snmpv3fp::core
