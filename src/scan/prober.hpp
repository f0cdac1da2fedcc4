// The SNMPv3 discovery prober (the paper's ZMap role, §3.2).
//
// Sends one well-formed unauthenticated discovery packet per target at a
// paced rate in randomized order and captures the REPORT responses.
// Like ZMap it keeps no per-probe state for matching: probe `seq` of the
// shard's slice carries ids derived from `seq` (scan/probe_ids.hpp), the
// agent echoes them, and a response is accepted only when its ids decode
// to a probe already sent AND its source is that probe's target. Anything
// else is counted (ScanResult::unverified_responses / off_target_responses)
// and never becomes a record. The one piece of per-probe state is a flat
// ring of send times covering the response horizon, which stamps each
// record's send_time. Works against any net::Transport — the simulated
// fabric or (for small target lists) a real UDP socket.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "scan/checkpoint.hpp"
#include "scan/pacer.hpp"
#include "scan/record.hpp"
#include "scan/targets.hpp"
#include "util/rng.hpp"

namespace snmpv3fp::scan {

struct ProbeConfig {
  std::string label = "scan";
  double rate_pps = 5000.0;  // paper: 5 kpps IPv4, 20 kpps IPv6
  util::VTime response_timeout = 5 * util::kSecond;  // drain after last send
  std::uint64_t seed = 1;
  bool randomize_order = true;
  // Virtual-time offset of the first probe after `start_time`. A sharded
  // campaign gives shard k an offset of (k's first global target index) x
  // the inter-probe gap, so the union of shard schedules reproduces one
  // sequential scan's global pacing exactly.
  util::VTime send_offset = 0;
  // Send schedule and adaptive rate control (scan/pacer.hpp). The default
  // is fixed-gap pacing at burst 1, bit-identical to the historical
  // schedule; a burst above 1 only makes sense when the transport's now()
  // is a real clock.
  PacerConfig pacer;
  // Checkpoint hook: after every `checkpoint_every_n_targets` probes the
  // prober snapshots its state (cursor, RNG, pacer, store manifest, the
  // send window — the transport/fabric part is the caller's to add) and
  // hands it to `on_checkpoint`, then carries on. A process killed at any
  // instant resumes from the last snapshot the hook persisted.
  std::size_t checkpoint_every_n_targets = 0;
  std::function<void(ShardScanState&)> on_checkpoint;
  // Resume from a prior shard snapshot. The caller must have restored the
  // transport (sim::Fabric::restore) to the snapshot's fabric state; the
  // prober restores everything else and continues bit-identically.
  const ShardScanState* resume = nullptr;
  // Record container. Every record appends to a store::RecordStore, which
  // becomes the result's `store`: this one when set (a campaign shard's,
  // possibly spilling to disk; on resume it must already hold the
  // snapshot's records, see store::RecordStore::restore), otherwise a
  // fresh RAM-only store the result owns.
  std::shared_ptr<store::RecordStore> sink;
  // Wire fast path (src/wire): probes are stamped from a precomputed
  // template into a reusable buffer and responses go through the
  // single-pass REPORT scanner, falling back to the full codec on any
  // structural surprise. Execution-only knob: the scan output is
  // bit-identical on or off (tests/test_wire.cpp enforces it at 1/2/8
  // threads).
  bool wire_fast_path = true;
  // Decode/encode path counters (default handles are no-ops): how many
  // responses the fast scanner handled vs deferred to the full decoder,
  // and how many probes were template-stamped vs fully encoded. A nonzero
  // fallback count on a clean corpus means the fast parser's accept set
  // regressed (WireCampaign.CleanCampaignHasZeroFallbacks gates on it).
  obs::Counter wire_fast_parses;
  obs::Counter wire_parse_fallbacks;
  obs::Counter wire_stamped_probes;
  obs::Counter wire_full_encodes;
  // Live telemetry bundle (obs/obs.hpp): the shard's track (time-series
  // ticks, flight events, status refreshes) and the probe-RTT histogram,
  // all recorded from the probe loop. Default-constructed members are
  // permanent no-ops (one enabled() test per probe); everything behind
  // them is execution-only by the obs contract.
  obs::ShardTelemetry telemetry;
  // Send-time horizon: a first response gets its probe's send time only
  // while that probe was sent no more than this long before the latest
  // send. 0 means `response_timeout`. The send ring holds rate x horizon
  // entries (send_ring_capacity), constant over the sweep size. Responses
  // arriving later than the horizon after their probe still verify and
  // still become records; they lose only their RTT annotation (send_time
  // stays 0), so size it past the transport's worst-case round trip.
  util::VTime sent_horizon = 0;

  util::VTime horizon() const {
    return sent_horizon > 0 ? sent_horizon : response_timeout;
  }
};

// Slots in the prober's send ring for a slice of `slice_length` probes:
// every probe the pacer can release within one horizon — horizon / gap at
// the target rate, plus the burst credit, plus one — and never more than
// the slice. A probe that overwrites a slot still inside the horizon
// counts as ScanResult::send_ring_overruns.
std::size_t send_ring_capacity(std::uint64_t slice_length,
                               const ProbeConfig& config);

class Prober {
 public:
  Prober(net::Transport& transport, net::Endpoint source)
      : transport_(transport), source_(std::move(source)) {}

  // Runs one campaign over `targets` starting at `start_time` (transport
  // time is advanced to it first). One probe per target, no retries. The
  // span is only copied when `randomize_order` needs a mutable shuffle —
  // sharded campaigns pass pre-shuffled views straight into the slices.
  ScanResult run(std::span<const net::IpAddress> targets,
                 const ProbeConfig& config, util::VTime start_time);

  // Runs over any TargetSequence (e.g. a GeneratorSlice of a permuted
  // prefix sweep). No shuffle is applied — generated sequences are already
  // permuted positionally — so `randomize_order` is ignored.
  ScanResult run(const TargetSequence& targets, const ProbeConfig& config,
                 util::VTime start_time);

 private:
  // Shared probe loop. `rng` belongs to the caller because the span
  // overload's shuffle draws from the same stream the pacer's backoff
  // jitter continues (bit-compatibility with historical runs).
  ScanResult run_impl(const TargetSequence& order, const ProbeConfig& config,
                      util::VTime start_time, util::Rng& rng);

  net::Transport& transport_;
  net::Endpoint source_;
};

}  // namespace snmpv3fp::scan
