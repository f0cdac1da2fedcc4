// The response filtering pipeline (paper §4.4).
//
// Ten ordered stages turn raw joined responses into records whose engine
// ID and (last reboot time, engine boots) tuple can be trusted as device
// identifiers. Stage order matters for the drop accounting (the paper
// reports per-stage removal counts — our FilterReport reproduces Table 1's
// funnel), so stages run in the paper's published order.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/join.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace snmpv3fp::core {

// Declared in the paper's published order: a stage's enum value is its
// position in the funnel.
enum class FilterStage : std::uint8_t {
  kMissingEngineId,       // no engine ID in the response
  kInconsistentEngineId,  // engine ID differs between the two scans
  kTooShortEngineId,      // < 4 bytes: not unique enough
  kPromiscuousEngineId,   // same payload under multiple enterprise IDs
  kUnroutableIpv4,        // IPv4-format engine ID with non-routable address
  kUnregisteredMac,       // MAC-format engine ID with unknown OUI
  kZeroTimeOrBoots,       // engineTime or engineBoots of zero
  kFutureEngineTime,      // derived last reboot before the Unix epoch
  kInconsistentBoots,     // engineBoots differs between scans (rebooted)
  kInconsistentReboot,    // derived last-reboot drift above threshold
};

inline constexpr std::size_t kFilterStageCount = 10;

std::string_view to_string(FilterStage stage);
// Metric-name form: lowercase with underscores, e.g. "missing_engine_id".
std::string_view to_slug(FilterStage stage);

struct FilterOptions {
  std::size_t min_engine_id_bytes = 4;
  // The paper picks 10 s at the knee of the router-IP distribution (Fig. 8).
  double reboot_threshold_seconds = 10.0;
};

struct FilterReport {
  std::size_t input = 0;
  std::array<std::size_t, kFilterStageCount> dropped{};
  std::size_t output = 0;

  std::size_t dropped_at(FilterStage stage) const {
    return dropped[static_cast<std::size_t>(stage)];
  }
  // Survivors of the engine-ID validity stages only — Table 1's
  // "IPs w/ valid engine ID" column.
  std::size_t valid_engine_id_count() const;
  std::size_t total_dropped() const;
};

class FilterPipeline {
 public:
  explicit FilterPipeline(FilterOptions options = {}) : options_(options) {}

  // Reads `input` without mutating it and appends the survivors, in input
  // order, to `survivors` (cleared first). Both engine IDs of every record
  // are dictionary-encoded so each engine-ID predicate runs once per
  // distinct ID, then one verdict pass attributes every record to the
  // first stage it fails in the published order — the sequential funnel's
  // drop counts exactly, since every stage but the promiscuous census is a
  // per-record predicate and the census runs over the records alive at its
  // position (tests/filter_oracle.hpp is the reference). Report and
  // survivors are identical at any thread count. `obs` (execution-only)
  // records a "filter" span plus `<scope>.input`, `<scope>.output` and
  // per-stage `<scope>.dropped.<stage_slug>` counters. Implemented in
  // core/columnar.cpp, on ColumnarFunnel.
  FilterReport apply_columnar(std::span<const JoinedRecord> input,
                              std::vector<JoinedRecord>& survivors,
                              const util::ParallelOptions& parallel = {},
                              const obs::ObsOptions& obs = {}) const;

  const FilterOptions& options() const { return options_; }

 private:
  FilterOptions options_;
};

}  // namespace snmpv3fp::core
