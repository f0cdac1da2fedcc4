// Shared plumbing for the benches: a common header, wall-clock timing and
// machine-readable JSON artifacts with run provenance.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "util/table.hpp"

namespace snmpv3fp::benchx {

// Build/run provenance baked into bench JSON artifacts (see
// JsonRows::meta): compiler + flags the bench binary was built with.
std::string build_flags();

void print_header(const std::string& experiment, const std::string& title);

// Wall-clock stopwatch (steady_clock) for benches that time whole stages.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Runs `fn` `repeats` times and returns the fastest wall time in ms (the
// usual noise-resistant estimator for single-shot stage timings).
double best_wall_ms(int repeats, const std::function<void()>& fn);

// Accumulates flat rows of string/number fields and renders them as a JSON
// array of objects — the machine-readable side channel next to a bench's
// human-readable output. Field order within a row is preserved.
//
// With run metadata attached (meta()/stamp_run_metadata), render() emits
// {"meta": {...}, "rows": [...]} instead of the bare array so artifacts
// are self-describing across runs and machines.
class JsonRows {
 public:
  JsonRows& begin_row();
  JsonRows& field(std::string_view key, std::string_view value);
  JsonRows& field(std::string_view key, double value);
  JsonRows& field(std::string_view key, std::int64_t value);

  JsonRows& meta(std::string_view key, std::string_view value);
  JsonRows& meta(std::string_view key, std::int64_t value);

  std::string render() const;
  // Writes `render()` to `path`; returns false (and prints to stderr) on
  // I/O failure instead of throwing — benches should still finish.
  bool write(const std::string& path) const;

 private:
  struct Field {
    std::string key;
    std::string rendered;  // already JSON-encoded value
  };
  std::vector<Field> meta_;
  std::vector<std::vector<Field>> rows_;
};

// Stamps the standard provenance block: schema version, RNG seed, resolved
// thread count, scan shard count, and build flags.
void stamp_run_metadata(JsonRows& rows, std::uint64_t seed,
                        std::size_t threads, std::size_t scan_shards);

}  // namespace snmpv3fp::benchx
