#include "core/columnar.hpp"

#include <algorithm>

#include "net/registry.hpp"
#include "obs/log.hpp"
#include "util/rng.hpp"

namespace snmpv3fp::core {

// ---- ColumnarFunnel ----

namespace {

// Stage positions in the published order (== FilterStage enum values, so
// `dropped[position]` is also `dropped[enum]`).
constexpr std::uint8_t kPosMissing = 0;
constexpr std::uint8_t kPosInconsistentId = 1;
constexpr std::uint8_t kPosTooShort = 2;
constexpr std::uint8_t kPosPromiscuous = 3;
constexpr std::uint8_t kPosUnroutable = 4;
constexpr std::uint8_t kPosUnregisteredMac = 5;
constexpr std::uint8_t kPosZero = 6;
constexpr std::uint8_t kPosFuture = 7;
constexpr std::uint8_t kPosBoots = 8;
constexpr std::uint8_t kPosReboot = 9;
constexpr std::uint8_t kPosPass = kFilterStageCount;

}  // namespace

ColumnarFunnel::ColumnarFunnel(FilterOptions options) : options_(options) {}

std::uint32_t ColumnarFunnel::encode_id(const snmp::EngineId& id) {
  const auto code = dict_.encode(id.raw());
  if (code == info_.size()) {
    // Evaluate the predicates against the dictionary's own copy so the
    // payload view outlives the caller's batch.
    const snmp::EngineId& owned = dict_.entries()[code];
    CodeInfo info;
    info.empty = owned.empty();
    info.too_short = owned.size() < options_.min_engine_id_bytes;
    if (const auto addr = owned.ipv4())
      info.unroutable_v4 = !addr->is_routable();
    if (const auto mac = owned.mac())
      info.unregistered_mac =
          !net::OuiRegistry::embedded().contains(mac->oui());
    if (const auto payload = owned.payload()) {
      info.has_payload = true;
      info.payload = *payload;
      if (const auto enterprise = owned.enterprise()) {
        info.enterprise = *enterprise;
        info.has_census_key = !info.payload.empty();
      }
    }
    info_.push_back(info);
  }
  return code;
}

void ColumnarFunnel::feed_rows(std::span<const JoinedRecord> rows,
                               const util::ParallelOptions& parallel) {
  const std::size_t base = verdict_row_.size();
  const std::size_t m = rows.size();
  verdict_row_.resize(base + m);
  code_.resize(base + m);
  // Dictionary inserts share one open-addressing table, so the encode pass
  // is serial; the verdict loop below parallelizes over the integer codes.
  // Pre-sizing for the worst case (every ID distinct) trades a few MB of
  // slot table for not re-hashing the dictionary a dozen times mid-pass.
  dict_.reserve(dict_.size() + 2 * m);
  std::vector<std::uint32_t> second_code(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto& row = rows[i];
    const std::uint32_t c1 = encode_id(row.first.engine_id);
    // Clean rows carry the same ID in both scans: byte equality implies
    // code equality, so a memcmp skips the second hash-and-probe.
    second_code[i] = util::equal(row.first.engine_id.raw(),
                                 row.second.engine_id.raw())
                         ? c1
                         : encode_id(row.second.engine_id);
    code_[base + i] = c1;
  }
  const double threshold = options_.reboot_threshold_seconds;
  util::parallel_for(0, m, parallel, [&](std::size_t i) {
    const JoinedRecord& row = rows[i];
    const std::uint32_t c1 = code_[base + i];
    const std::uint32_t c2 = second_code[i];
    const CodeInfo& a = info_[c1];
    std::uint8_t verdict = kPosPass;
    if (a.empty || info_[c2].empty) {
      verdict = kPosMissing;
    } else if (c1 != c2) {
      verdict = kPosInconsistentId;
    } else if (a.too_short) {
      verdict = kPosTooShort;
    } else if (a.unroutable_v4) {
      verdict = kPosUnroutable;
    } else if (a.unregistered_mac) {
      verdict = kPosUnregisteredMac;
    } else if (row.first.engine_time == 0 || row.first.engine_boots == 0 ||
               row.second.engine_time == 0 || row.second.engine_boots == 0) {
      verdict = kPosZero;
    } else {
      const util::VTime lr1 =
          row.first.receive_time -
          static_cast<util::VTime>(row.first.engine_time) * util::kSecond;
      const util::VTime lr2 =
          row.second.receive_time -
          static_cast<util::VTime>(row.second.engine_time) * util::kSecond;
      if (lr1 < util::kUnixEpochVtime || lr2 < util::kUnixEpochVtime) {
        verdict = kPosFuture;
      } else if (row.first.engine_boots != row.second.engine_boots) {
        verdict = kPosBoots;
      } else if (std::abs(util::to_seconds(lr1 - lr2)) > threshold) {
        verdict = kPosReboot;
      }
    }
    verdict_row_[base + i] = verdict;
  });
}

FilterReport ColumnarFunnel::finish(std::span<const JoinedRecord> rows,
                                    std::vector<JoinedRecord>& survivors,
                                    const util::ParallelOptions& parallel,
                                    const obs::ObsOptions& obs) {
  (void)parallel;
  const std::size_t n = verdict_row_.size();

  // Promiscuous census over the rows alive when that stage runs (verdict
  // beyond its position), collapsed to dictionary codes: the payload ->
  // enterprise-set map is built over distinct engine IDs, not rows.
  std::vector<std::uint8_t> alive(info_.size(), 0);
  for (std::size_t i = 0; i < n; ++i)
    if (verdict_row_[i] > kPosPromiscuous) alive[code_[i]] = 1;
  // Payload groups via open addressing on the dictionary's hash (a payload
  // is promiscuous iff any alive census entry's enterprise differs from the
  // group's first — exactly "more than one distinct enterprise"). Keys are
  // payload views into info_; slots store the owning code + 1.
  std::size_t census = 0;
  for (std::size_t c = 0; c < info_.size(); ++c)
    if (alive[c] && info_[c].has_census_key) ++census;
  std::vector<std::uint8_t> code_promiscuous(info_.size(), 0);
  if (census != 0) {
    struct Slot {
      std::uint32_t code_plus1 = 0;
      bool promiscuous = false;
    };
    std::size_t capacity = 16;
    while (capacity < census * 2) capacity <<= 1;
    std::vector<Slot> table(capacity);
    const std::uint64_t mask = capacity - 1;
    const auto find_slot = [&](util::ByteView key) -> Slot& {
      std::uint64_t h = util::fnv1a64(key) & mask;
      while (true) {
        Slot& slot = table[h];
        if (slot.code_plus1 == 0 ||
            util::equal(info_[slot.code_plus1 - 1].payload, key))
          return slot;
        h = (h + 1) & mask;
      }
    };
    for (std::size_t c = 0; c < info_.size(); ++c) {
      if (!alive[c] || !info_[c].has_census_key) continue;
      Slot& slot = find_slot(info_[c].payload);
      if (slot.code_plus1 == 0)
        slot.code_plus1 = static_cast<std::uint32_t>(c) + 1;
      else if (info_[slot.code_plus1 - 1].enterprise != info_[c].enterprise)
        slot.promiscuous = true;
    }
    for (std::size_t c = 0; c < info_.size(); ++c) {
      if (!info_[c].has_payload) continue;
      const Slot& slot = find_slot(info_[c].payload);
      code_promiscuous[c] = slot.code_plus1 != 0 && slot.promiscuous;
    }
  }

  FilterReport report;
  report.input = n;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t verdict = verdict_row_[i];
    // Rows alive at the promiscuous position (verdict beyond it) re-check
    // it here; anything failing an earlier stage keeps that stage.
    if (verdict > kPosPromiscuous && code_promiscuous[code_[i]]) {
      verdict = kPosPromiscuous;
      verdict_row_[i] = verdict;
    }
    if (verdict == kPosPass) {
      ++kept;
    } else {
      ++report.dropped[verdict];
    }
  }
  survivors.clear();
  survivors.reserve(kept);
  for (std::size_t i = 0; i < n && i < rows.size(); ++i)
    if (verdict_row_[i] == kPosPass) survivors.push_back(rows[i]);
  report.output = survivors.size();

  if (obs.enabled()) {
    for (std::size_t s = 0; s < kFilterStageCount; ++s)
      obs.counter(std::string("dropped.") +
                  std::string(to_slug(static_cast<FilterStage>(s))))
          .add(report.dropped[s]);
    obs.counter("output").add(report.output);
  }
  if (obs::Logger::global().enabled(obs::LogLevel::kInfo)) {
    obs::log_info("filter pipeline finished",
                  {{"scope", obs.scope},
                   {"input", report.input},
                   {"dropped", report.total_dropped()},
                   {"output", report.output}});
  }
  return report;
}

// ---- FilterPipeline::apply_columnar ----

FilterReport FilterPipeline::apply_columnar(
    std::span<const JoinedRecord> input, std::vector<JoinedRecord>& survivors,
    const util::ParallelOptions& parallel, const obs::ObsOptions& obs) const {
  obs::Span pipeline_span(obs.trace(), obs.scoped("filter"));
  if (obs.enabled()) obs.counter("input").add(input.size());
  ColumnarFunnel funnel(options_);
  funnel.feed_rows(input, parallel);
  return funnel.finish(input, survivors, parallel, obs);
}

}  // namespace snmpv3fp::core
