// bench_store: the record store's memory bound and checkpoint cost
// (ROADMAP "Streaming record store").
//
// Two experiments, machine-readable in BENCH_store.json:
//   resident_sweep  peak RSS while writing + streaming N synthetic records
//                   through a RecordStore under a resident-budget sweep,
//                   against a plain decoded std::vector reference. Under a
//                   cap the RSS delta stays flat as N grows; the vector
//                   (and the unbounded store) grow with N.
//   checkpoint      bytes of one CampaignCheckpoint at a mid-scan boundary
//                   holding N records. The checkpoint persists only the
//                   store manifest — open tail + patches — so its size is
//                   O(records since the last sealed block), never O(N):
//                   every row must stay under one fixed bound, whatever N.
//
// Usage: bench_store [--quick]
// Exits non-zero when a checkpoint row exceeds its fixed bound or the
// emitted JSON fails its own schema check; scripts/check.sh runs
// `bench_store --quick` and treats a failure as a regression.
//
// Peak RSS comes from /proc/self/status VmHWM, reset per phase by writing
// "5" to /proc/self/clear_refs (Linux-only; elsewhere the reset fails and
// rows carry cumulative peaks, flagged by meta.rss_reset = 0). Phases run
// smallest-footprint first so an earlier phase's freed-but-retained heap
// can never mask a later phase's true demand.
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/registry.hpp"
#include "obs/json.hpp"
#include "scan/checkpoint.hpp"
#include "store/record_store.hpp"

using namespace snmpv3fp;

namespace {

// Parses one "Key:  <n> kB" line out of /proc/self/status.
std::size_t read_status_kb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0)
      return static_cast<std::size_t>(
          std::strtoull(line.c_str() + std::strlen(key), nullptr, 10));
  }
  return 0;
}

// Resets VmHWM to the current RSS; false when unsupported (non-Linux or
// restricted /proc).
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear.is_open()) return false;
  clear << "5";
  clear.flush();
  return clear.good();
}

// Deterministic synthetic record with the fields the codec exercises:
// both families, missing engine IDs, duplicate responses, extra engines.
scan::ScanRecord make_record(std::uint64_t i) {
  scan::ScanRecord r;
  if (i % 3 == 0) {
    const std::array<std::uint16_t, 8> groups{
        0x2001, 0xdb8, 0, 0, 0, 0, static_cast<std::uint16_t>(i >> 16),
        static_cast<std::uint16_t>(i)};
    r.target = net::Ipv6::from_groups(groups);
  } else {
    r.target = net::Ipv4(0x0a000000u + static_cast<std::uint32_t>(i));
  }
  if (i % 5 != 1)
    r.engine_id = snmp::EngineId::make_mac(
        net::kPenCisco,
        net::MacAddress::from_oui(0x00000c,
                                  static_cast<std::uint32_t>(i % 9973)));
  r.engine_boots = static_cast<std::uint32_t>(1 + i % 37);
  r.engine_time = static_cast<std::uint32_t>(i % 100000);
  r.send_time = static_cast<util::VTime>(i) * 40 * util::kMicrosecond;
  r.receive_time = r.send_time + 18 * util::kMillisecond;
  r.response_count = 1 + i % 2;
  r.response_bytes = 90 + i % 40;
  if (i % 11 == 0)
    r.extra_engines.push_back(snmp::EngineId::make_mac(
        net::kPenCisco,
        net::MacAddress::from_oui(0x00000c,
                                  static_cast<std::uint32_t>(i % 131))));
  return r;
}

// Folds the fields every mode must reproduce; equal checksums across modes
// at the same N prove the store read back exactly what the vector holds.
std::uint64_t fold(std::uint64_t h, const scan::ScanRecord& r) {
  h = h * 1099511628211ull ^ static_cast<std::uint64_t>(r.send_time);
  h = h * 1099511628211ull ^ r.engine_boots;
  h = h * 1099511628211ull ^ r.engine_time;
  h = h * 1099511628211ull ^ r.response_count;
  h = h * 1099511628211ull ^ r.extra_engines.size();
  return h;
}

struct PhaseResult {
  std::size_t baseline_kb = 0;
  std::size_t peak_kb = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t spilled_bytes = 0;
  double wall_ms = 0;
  std::uint64_t checksum = 0;
};

// Writes N records then streams them back. cap_bytes < 0 selects the
// decoded std::vector reference; >= 0 is a store resident budget (0 =
// unbounded, spill files still written).
PhaseResult run_phase(std::int64_t cap_bytes, std::size_t records,
                      const std::filesystem::path& dir) {
  PhaseResult out;
  reset_peak_rss();
  out.baseline_kb = read_status_kb("VmRSS:");
  benchx::WallTimer timer;
  std::uint64_t checksum = 1469598103934665603ull;
  if (cap_bytes < 0) {
    std::vector<scan::ScanRecord> decoded;
    for (std::size_t i = 0; i < records; ++i) decoded.push_back(make_record(i));
    for (const auto& r : decoded) checksum = fold(checksum, r);
  } else {
    store::StoreOptions options;
    options.dir = dir.string();
    options.max_resident_bytes = static_cast<std::size_t>(cap_bytes);
    store::RecordStore store(options, "bench");
    for (std::size_t i = 0; i < records; ++i) store.append(make_record(i));
    store.seal();
    out.resident_bytes = store.resident_bytes();
    out.spilled_bytes = store.spilled_bytes();
    auto cursor = store.cursor();
    scan::ScanRecord r;
    while (cursor.next(r)) checksum = fold(checksum, r);
    if (!cursor.error().empty())
      std::fprintf(stderr, "store read failed: %s\n", cursor.error().c_str());
    store.remove_files();
  }
  out.wall_ms = timer.elapsed_ms();
  out.peak_kb = read_status_kb("VmHWM:");
  out.checksum = checksum;
  return out;
}

// Bound on one checkpoint's bytes at any N: the manifest's open tail holds
// fewer than records_per_block (512) records, a few dozen hex bytes each.
constexpr std::size_t kCheckpointBoundBytes = 64 << 10;

// One CampaignCheckpoint holding a single shard mid-scan with N records in
// its store; returns to_json()'s size.
std::size_t checkpoint_bytes(std::size_t records,
                             const std::filesystem::path& dir,
                             std::uint64_t& tail_records) {
  store::StoreOptions options;
  options.dir = dir.string();
  store::RecordStore store(options, "ckpt");
  for (std::size_t i = 0; i < records; ++i) store.append(make_record(i));
  const auto manifest = store.manifest();  // mid-scan: open tail, no seal
  tail_records = records - manifest.committed_records;
  scan::CampaignCheckpoint checkpoint;
  checkpoint.shard_states.emplace_back();
  auto& shard = checkpoint.shard_states.back();
  shard.cursor = records;
  shard.store_manifest = manifest;
  const std::size_t bytes = checkpoint.to_json().size();
  store.remove_files();
  return bytes;
}

// Fails closed on drift: scripts/check.sh relies on this exit code.
bool schema_ok(const std::string& json) {
  const auto parsed = obs::JsonValue::parse(json);
  if (!parsed || !parsed->is_object()) return false;
  const auto* meta = parsed->find("meta");
  if (!meta || !meta->is_object() || !meta->find("schema") ||
      !meta->find("rss_reset"))
    return false;
  const auto* rows = parsed->find("rows");
  if (!rows || !rows->is_array() || rows->items().empty()) return false;
  static constexpr const char* kSweepKeys[] = {
      "mode",          "records",       "cap_bytes", "peak_rss_kb",
      "rss_delta_kb",  "resident_bytes", "spilled_bytes", "wall_ms"};
  static constexpr const char* kCkptKeys[] = {"records", "store_bytes",
                                              "bound_bytes", "tail_records"};
  std::size_t sweeps = 0, ckpts = 0;
  for (const auto& row : rows->items()) {
    if (!row.is_object()) return false;
    const auto* kind = row.find("kind");
    if (!kind) return false;
    if (kind->as_string() == "resident_sweep") {
      for (const char* key : kSweepKeys)
        if (!row.find(key)) return false;
      ++sweeps;
    } else if (kind->as_string() == "checkpoint") {
      for (const char* key : kCkptKeys)
        if (!row.find(key)) return false;
      ++ckpts;
    } else {
      return false;
    }
  }
  return sweeps > 0 && ckpts > 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  benchx::print_header(
      "store", "Record store: peak RSS and checkpoint bytes");

  const auto dir =
      std::filesystem::temp_directory_path() / "snmpv3fp_bench_store";
  std::filesystem::create_directories(dir);
  const bool rss_reset = reset_peak_rss();
  if (!rss_reset)
    std::printf("note: peak-RSS reset unavailable; reporting cumulative "
                "VmHWM\n\n");

  benchx::JsonRows rows;
  benchx::stamp_run_metadata(rows, /*seed=*/1, /*threads=*/0,
                             /*scan_shards=*/0);
  rows.meta("rss_reset", std::int64_t{rss_reset});
  rows.meta("quick", std::int64_t{quick});

  // --- resident sweep ---------------------------------------------------
  struct Mode {
    const char* name;
    std::int64_t cap_bytes;  // -1 = decoded vector reference
  };
  // Smallest working set first (see the peak-RSS note up top).
  const Mode modes[] = {{"store_cap64k", 64 << 10},
                        {"store_cap256k", 256 << 10},
                        {"store_cap1m", 1 << 20},
                        {"store_unbounded", 0},
                        {"vector", -1}};
  std::vector<std::size_t> counts = quick
                                        ? std::vector<std::size_t>{50000}
                                        : std::vector<std::size_t>{50000,
                                                                   200000};

  util::TablePrinter sweep(
      {"Mode", "Records", "RSS delta", "Resident", "Spilled", "Wall ms"});
  std::vector<std::uint64_t> checksums(counts.size(), 0);
  bool checksum_ok = true;
  for (const auto& mode : modes) {
    for (std::size_t ci = 0; ci < counts.size(); ++ci) {
      const std::size_t n = counts[ci];
      const auto r = run_phase(mode.cap_bytes, n, dir);
      if (checksums[ci] == 0) checksums[ci] = r.checksum;
      if (r.checksum != checksums[ci]) checksum_ok = false;
      const std::size_t delta_kb =
          r.peak_kb > r.baseline_kb ? r.peak_kb - r.baseline_kb : 0;
      sweep.add_row({mode.name, util::fmt_count(n),
                     util::fmt_count(delta_kb) + " kB",
                     util::fmt_count(r.resident_bytes) + " B",
                     util::fmt_count(r.spilled_bytes) + " B",
                     util::fmt_double(r.wall_ms, 1)});
      rows.begin_row()
          .field("kind", "resident_sweep")
          .field("mode", mode.name)
          .field("records", static_cast<std::int64_t>(n))
          .field("cap_bytes", mode.cap_bytes)
          .field("peak_rss_kb", static_cast<std::int64_t>(r.peak_kb))
          .field("rss_delta_kb", static_cast<std::int64_t>(delta_kb))
          .field("resident_bytes",
                 static_cast<std::int64_t>(r.resident_bytes))
          .field("spilled_bytes", static_cast<std::int64_t>(r.spilled_bytes))
          .field("wall_ms", r.wall_ms);
    }
  }
  std::printf("%s\n", sweep.render().c_str());
  if (!checksum_ok) {
    std::fprintf(stderr,
                 "FAIL: store read-back checksum differs from the vector "
                 "reference\n");
    return 1;
  }

  // --- checkpoint bytes per boundary ------------------------------------
  // Counts off multiples of the block size, so every row has an open tail.
  const std::vector<std::size_t> ckpt_counts =
      quick ? std::vector<std::size_t>{1000, 4000}
            : std::vector<std::size_t>{1000, 4000, 16000, 60000};
  util::TablePrinter ckpt({"Records", "Checkpoint", "Bound", "Tail records"});
  bool ckpt_bounded = true;
  for (const std::size_t n : ckpt_counts) {
    std::uint64_t tail_records = 0;
    const std::size_t store_bytes = checkpoint_bytes(n, dir, tail_records);
    ckpt_bounded = ckpt_bounded && store_bytes <= kCheckpointBoundBytes;
    ckpt.add_row({util::fmt_count(n), util::fmt_count(store_bytes) + " B",
                  util::fmt_count(kCheckpointBoundBytes) + " B",
                  util::fmt_count(tail_records)});
    rows.begin_row()
        .field("kind", "checkpoint")
        .field("records", static_cast<std::int64_t>(n))
        .field("store_bytes", static_cast<std::int64_t>(store_bytes))
        .field("bound_bytes", static_cast<std::int64_t>(kCheckpointBoundBytes))
        .field("tail_records", static_cast<std::int64_t>(tail_records));
  }
  std::printf("%s\n", ckpt.render().c_str());

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!ckpt_bounded) {
    std::fprintf(stderr,
                 "FAIL: a checkpoint exceeded %zu bytes; the manifest must "
                 "stay O(open tail)\n",
                 kCheckpointBoundBytes);
    return 1;
  }

  const std::string json = rows.render();
  if (!schema_ok(json)) {
    std::fprintf(stderr, "FAIL: BENCH_store.json failed its schema check\n");
    return 1;
  }
  rows.write("BENCH_store.json");
  std::printf("Wrote BENCH_store.json\n");
  return 0;
}
