// Two-scan campaign orchestration (paper §4.1.1).
//
// The methodology runs two Internet-wide scans days apart and keeps only
// targets that answer both consistently. This orchestrator drives both
// scans over one simulated world, applying CPE address churn in between —
// the effect the consistency filters exist to remove.
#pragma once

#include <optional>
#include <string>

#include "net/batched_udp.hpp"
#include "obs/obs.hpp"
#include "scan/checkpoint.hpp"
#include "scan/pacer.hpp"
#include "scan/prober.hpp"
#include "scan/targets.hpp"
#include "sim/fabric.hpp"
#include "topo/world.hpp"
#include "topo/world_model.hpp"
#include "util/parallel.hpp"

namespace snmpv3fp::scan {

// Default shard count of a campaign. The shard structure (not the thread
// count) decides which per-shard fabric simulates which target, so it is
// part of the experiment configuration: changing `shards` changes RNG
// streams like changing `seed` would, while changing `parallel.threads`
// never changes any output bit.
inline constexpr std::size_t kDefaultScanShards = 8;

struct CampaignOptions {
  net::Family family = net::Family::kIpv4;
  // Explicit target list (e.g. the IPv6 hitlist). When absent, all
  // addresses of `family` assigned in either epoch are probed both times.
  std::optional<std::vector<net::IpAddress>> targets;
  // Streaming target sweep (scan/targets.hpp): probe every address of the
  // given IPv4 prefix ranges in a seeded Feistel permutation, generating
  // each target on demand instead of materializing a list. Memory stays
  // O(shards) regardless of range size — this is how census-scale
  // campaigns over a procedural world run in flat RSS. Takes precedence
  // over `targets`; IPv4 only. The permutation differs from the
  // list-mode Fisher-Yates shuffle, so spec-mode and list-mode campaigns
  // over the same address set probe in different orders (the responder
  // set is the same at zero loss).
  std::optional<TargetSpec> target_spec;
  util::VTime first_scan_start = 0;
  util::VTime scan_gap = 6 * util::kDay;  // paper: Apr 16-20 vs Apr 22-27
  double rate_pps = 5000.0;
  std::uint64_t seed = 99;
  sim::FabricConfig fabric;
  // Scan-layer sharding: each scan's target list is cut into `shards`
  // contiguous slices of the (globally shuffled) probe order, each driven
  // by its own Prober + Fabric, then merged in probe order.
  std::size_t shards = kDefaultScanShards;
  util::ParallelOptions parallel;
  // Execution-only observability (spans, counters, per-shard progress):
  // never changes a single output bit.
  obs::ObsOptions obs;
  // Adaptive rate control (scan/pacer.hpp). Off by default; when on, the
  // backoff decisions are part of the experiment configuration (they move
  // probe send times), deterministically derived from the seed.
  PacerConfig pacer;
  // Checkpoint/resume (scan/checkpoint.hpp). With `checkpoint_path` set,
  // the campaign persists per-shard progress there — between the two scans
  // always, and additionally every `checkpoint_every_n_targets` probes per
  // shard — and, on the next run with the same options and a pre-churn
  // world, resumes from the file instead of restarting. Resume output is
  // bit-identical to an uninterrupted run at any thread count. The file is
  // removed when the campaign completes. A file whose config digest does
  // not match, or of an older format, is ignored with a warning. Records
  // reach the file only as store manifests, so the stores must spill:
  // without `store.dir` they spill under `<checkpoint_path>.store/`, which
  // is removed again on completion (the results come back RAM-only).
  std::string checkpoint_path;
  std::size_t checkpoint_every_n_targets = 0;
  // Record stores (store/record_store.hpp): every shard's records append
  // to a RecordStore and the merged ScanResults hold one each. Empty
  // `store.dir` keeps them RAM-only (resident encoded blocks); with a dir
  // they spill to disk with resident RAM bounded by
  // `store.max_resident_bytes`. Results are bit-identical either way.
  store::StoreOptions store;
  // Wire fast path (src/wire): template-stamped probes and the single-pass
  // REPORT scanner, with full-codec fallback. Execution-only knob — the
  // campaign output is bit-identical on or off; excluded from the
  // checkpoint config digest for the same reason thread count is.
  bool wire_fast_path = true;
  // Real-socket transport (net/batched_udp.hpp): when set, each shard
  // probes through its own BatchedUdpEngine opened from this config
  // instead of a sim::Fabric — batched kernel I/O end to end, usually
  // pointed at a sim::LoopbackReflector via EngineConfig::sim_peer. With
  // EngineClock::kVirtual the campaign schedule (and output) matches the
  // fabric's; with kWall the shards pace in real time: rate_pps splits
  // across shards, send offsets collapse to zero and the pacer releases
  // `pacer.burst_probes` back-to-back (virtual campaigns pace at burst 1).
  // Fabric-side knobs (loss, jitter, policing) do not apply — the far
  // side of the wire decides those.
  std::optional<net::EngineConfig> net_engine;
  // AF_PACKET ring receive (net/packet_ring.hpp): with `net_engine` set
  // and this true, the campaign opens one TPACKET_V3 ring per shard in a
  // PACKET_FANOUT_HASH group and swaps each engine's receive half from
  // recvmmsg to its ring view; sends keep flowing through the UDP
  // sockets. Needs CAP_NET_RAW — when ring setup fails the campaign logs
  // a warning and falls back to recvmmsg (which itself falls back to
  // recvfrom), never errors. Execution-only knob: receive timing rides in
  // the SimFrame header and records sort by send time, so output is
  // bit-identical ring on or off — excluded from the checkpoint config
  // digest like wire_fast_path.
  bool ring_receive = false;
  // Post-send drain window handed to every shard prober. The 5 s default
  // matches ProbeConfig's and the historical schedule bit for bit; wall
  // campaigns shorten it so the tail wait is real seconds, not virtual.
  util::VTime response_timeout = 5 * util::kSecond;
};

struct CampaignPair {
  ScanResult scan1;
  ScanResult scan2;
  sim::FabricStats fabric_stats;
  // Lazy-device cache behavior summed over every shard fabric (all zeros
  // for materialized worlds, whose views derive nothing). Execution-only
  // telemetry: hit rates vary with thread interleaving-independent shard
  // structure only, but play no part in any scan output.
  topo::WorldCacheStats responder_cache;
  // Never set: a campaign either completes or its process dies, and the
  // rerun resumes from the checkpoint. Still declared only because
  // perfbench/workload.cpp reads it; it goes with the next benchmark change.
  bool interrupted = false;
  // Net-engine campaigns only: kernel I/O counters summed over every
  // shard engine (all zeros in fabric mode), and the open() failure that
  // aborted the campaign before any probe left (empty on success). A
  // nonempty net_error means both scans are empty — sockets may simply be
  // unavailable in the sandbox; callers treat it as a skip, not a crash.
  net::NetIoStats net_io;
  std::string net_error;
};

// Runs scan1, applies address churn through the model, runs scan2. The
// model's second epoch persists afterwards. When resuming past scan 1
// (checkpoint at the scan boundary or inside scan 2), the model must be
// in the same pre-churn epoch the original run started from; churn is
// re-applied deterministically.
CampaignPair run_two_scan_campaign(topo::WorldModel& model,
                                   const CampaignOptions& options);

// Materialized-world convenience wrapper: adapts `world` behind a
// MaterializedWorldModel and runs the model campaign. Mutates the world's
// address assignments (the second epoch persists afterwards). Output is
// bit-identical to what this overload produced before the model layer
// existed.
CampaignPair run_two_scan_campaign(topo::World& world,
                                   const CampaignOptions& options);

}  // namespace snmpv3fp::scan
