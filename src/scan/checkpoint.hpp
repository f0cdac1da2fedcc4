// Campaign checkpoint/resume (MIDAR-style staged, resumable probing).
//
// An Internet-wide two-scan campaign runs for days; a killed process must
// not restart from zero. The campaign serializes per-shard progress — the
// cursor into the (globally shuffled) probe order, the prober's RNG
// stream, the shard record store's manifest, the pacer state, the send
// times still inside the prober's horizon and the complete per-shard
// fabric state (virtual clock, in-flight datagrams, stats) — to a JSON
// file via obs::json. Resuming from any checkpoint reproduces the
// uninterrupted campaign bit-for-bit at any thread count, because every
// shard's state is self-contained and thread scheduling never touches it.
// tests/test_crash.cpp enforces this against real SIGKILLs of a child
// process, resuming at a thread count other than the child's.
//
// Records never travel in the JSON: they live in the stores' own
// append-only segment files (store/record_store.hpp), and the file holds
// one StoreManifest per store — committed counters, the open tail and the
// duplicate-patch overlay — so a boundary costs O(records since the last
// boundary), not O(records collected). A checkpoint of any other schema
// (including the retired embedded-records format), or one whose send
// window is malformed, fails closed: it is ignored and the campaign starts
// fresh.
//
// Exactness notes: every 64-bit RNG word and IEEE double travels as a hex
// bit pattern (JSON numbers round-trip only 53 bits); addresses travel as
// strings; payloads as hex.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "scan/pacer.hpp"
#include "scan/record.hpp"
#include "sim/fabric.hpp"
#include "store/record_store.hpp"

namespace snmpv3fp::scan {

// One probe's send time, keyed by its sequence number in the shard's
// slice: a slot of the prober's send ring and an entry of its checkpoint.
struct SentProbe {
  std::uint64_t seq = 0;
  util::VTime send_time = 0;
  friend bool operator==(const SentProbe&, const SentProbe&) = default;
};

// One shard's mid-scan snapshot. `cursor` counts probes already sent from
// the shard's slice of the global probe order; everything else is the
// state needed to continue the shard as if it had never stopped.
struct ShardScanState {
  std::size_t shard = 0;
  std::size_t cursor = 0;
  bool complete = false;       // shard finished its slice (incl. drain)
  util::VTime next_send = 0;   // absolute virtual send time of probe `cursor`
  util::RngState rng;          // shard stream (shuffle, pacer jitter)
  PacerState pacer;
  ScanResult partial;          // scalars so far (final ones when complete)
  // The send ring's entries still inside the prober's horizon, which late
  // first responses need for their send time; strictly ascending by seq,
  // every seq below `cursor`. At most the ring's capacity entries, however
  // far the shard has got.
  std::vector<SentProbe> send_window;
  sim::FabricState fabric;
  // The shard's records: re-adopts its on-disk store on resume.
  store::StoreManifest store_manifest;
};

// Whole-campaign checkpoint: which scan is in progress, the completed
// first scan (once it exists), per-shard states of the in-progress scan,
// and the per-shard fabric states at the scan-1/scan-2 boundary (shards
// that never wrote a mid-scan-2 state still need their fabric continuity).
struct CampaignCheckpoint {
  // 3: shard states carry the bounded `send_window` (2 carried every
  // outstanding send time by address; 1 also embedded the records).
  static constexpr std::uint64_t kSchema = 3;

  // Guards against resuming with a different experiment configuration
  // (seed, shard count, family, rate, target list).
  std::uint64_t config_digest = 0;
  std::size_t scan_index = 1;  // 1 or 2: the scan in progress
  // Scan 1's merged scalars and its merged store's manifest, present once
  // scan 1 is complete.
  std::optional<ScanResult> scan1;
  store::StoreManifest scan1_manifest;
  std::vector<ShardScanState> shard_states;
  std::vector<sim::FabricState> scan_boundary_fabrics;

  std::string to_json() const;
  static std::optional<CampaignCheckpoint> from_json(std::string_view text);
};

// Atomic persistence: write to `<path>.tmp`, then rename over `path`.
// Returns false (after logging) on I/O failure — a scan must not die
// because its checkpoint disk filled up.
bool save_checkpoint(const CampaignCheckpoint& checkpoint,
                     const std::string& path);

// Loads and parses `path`; nullopt when absent, unparseable, of another
// schema or carrying a malformed send window.
std::optional<CampaignCheckpoint> load_checkpoint(const std::string& path);

// Removes a checkpoint file (used after a campaign completes).
void remove_checkpoint(const std::string& path);

}  // namespace snmpv3fp::scan
