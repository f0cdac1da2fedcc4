// Traced run of one census-benchmark workload: the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "workload.hpp"

namespace perfbench {

// Rebuilds the workload from the per-layer public calls, timing each, then
// replays one scan-1 shard through the prober over a timing transport and
// the captured REPORTs and records through the wire and store layers.
// Prints one JSON line of per-layer metrics plus the output digest, and
// writes every span (name, start, end, parent, run id) to `spans_path`.
int run_traced(Workload workload, std::uint64_t seed,
               const std::string& spill_dir, const std::string& spans_path);

}  // namespace perfbench
