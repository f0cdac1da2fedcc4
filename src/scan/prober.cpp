#include "scan/prober.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>

#include "net/address_map.hpp"
#include "obs/log.hpp"
#include "scan/probe_ids.hpp"
#include "snmp/message.hpp"
#include "store/record_store.hpp"
#include "wire/probe_template.hpp"
#include "wire/report_codec.hpp"

namespace snmpv3fp::scan {

namespace {
// Probes whose targets and ids are prepared together: batching lets a
// generated sweep permute many positions side by side.
constexpr std::size_t kProbeBatch = 64;

// The shard's progress after `targets_sent` probes: the values a timeline
// tick and a status row both report.
obs::TimelinePoint progress(std::size_t targets_sent, const ScanResult& result,
                            const store::RecordStore& sink,
                            const PacerState& pacer) {
  obs::TimelinePoint point;
  point.targets_sent = targets_sent;
  point.responses = sink.size();
  point.undecodable = result.undecodable_responses;
  point.backoffs = pacer.backoffs;
  point.pacer_rate_pps = pacer.rate_pps;
  point.store_resident_bytes = static_cast<std::int64_t>(sink.resident_bytes());
  return point;
}

// A responsive source we already hold a record for: its index in the
// store plus a copy of its primary engine ID (sealed store records are
// not random-access, so the duplicate-engine comparison needs the copy).
struct SourceEntry {
  std::size_t index = 0;
  snmp::EngineId engine;
};

// Response-path decode state for one run: the fast-path switch plus the
// path counters (copied out of ProbeConfig so drain can bump them).
struct WireState {
  bool enabled = true;
  obs::Counter fast_parses;
  obs::Counter fallbacks;
};

// The prober's only per-probe state: the send times of the probes inside
// the horizon, in a flat ring indexed by seq mod capacity. A slot answers
// for its probe only while it still holds that seq and the probe was sent
// no more than `horizon` before the latest send.
class SendRing {
 public:
  SendRing(std::size_t capacity, util::VTime horizon)
      : slots_(std::max<std::size_t>(capacity, 1), SentProbe{kEmpty, 0}),
        horizon_(horizon) {}

  // Records probe `seq` sent at `time`; true when that overwrote a slot
  // still inside the horizon (its probe loses its send time).
  bool record(std::uint64_t seq, util::VTime time) {
    SentProbe& slot = slots_[seq % slots_.size()];
    const bool overrun =
        slot.seq != kEmpty && slot.send_time >= time - horizon_;
    slot = {seq, time};
    last_send_ = time;
    return overrun;
  }

  std::optional<util::VTime> send_time(std::uint64_t seq) const {
    const SentProbe& slot = slots_[seq % slots_.size()];
    if (slot.seq != seq || slot.send_time < last_send_ - horizon_)
      return std::nullopt;
    return slot.send_time;
  }

  // The entries inside the horizon after `sent` probes, ascending by seq:
  // the checkpoint's send window.
  std::vector<SentProbe> window(std::uint64_t sent) const {
    std::vector<SentProbe> out;
    const std::uint64_t first =
        sent - std::min<std::uint64_t>(sent, slots_.size());
    for (std::uint64_t seq = first; seq < sent; ++seq)
      if (const auto time = send_time(seq)) out.push_back({seq, *time});
    return out;
  }

  // Refills the ring from a checkpoint's window. Its last entry is the
  // latest send, which is always inside its own horizon.
  void restore(const std::vector<SentProbe>& window) {
    for (const SentProbe& sent : window)
      slots_[sent.seq % slots_.size()] = sent;
    if (!window.empty()) last_send_ = window.back().send_time;
  }

 private:
  static constexpr std::uint64_t kEmpty =
      std::numeric_limits<std::uint64_t>::max();

  std::vector<SentProbe> slots_;
  util::VTime horizon_;
  util::VTime last_send_ = 0;
};

// Everything drain needs to accept a response: who answered before, which
// probes have left, and where their send times are.
struct Matcher {
  const TargetSequence& order;
  const ProbeIds& ids;
  const SendRing& ring;
  std::uint64_t sent = 0;
  net::AddressMap<SourceEntry> by_source;
};

// Drains matured responses into `result` and its store; returns the
// number of NEW records (first responses), the signal the adaptive pacer
// watches.
std::size_t drain(net::Transport& transport, ScanResult& result,
                  store::RecordStore& sink, Matcher& matcher, WireState& wire,
                  obs::ShardTelemetry& telemetry) {
  std::size_t new_records = 0;
  while (auto datagram = transport.receive_view()) {
    // Fast path first: the single-pass scanner extracts engineID (as a
    // view), boots and time without allocating. Anything it rejects goes
    // through the full decoder — it accepts a strict subset with equal
    // fields (src/wire/report_codec.hpp), so the combined path's output is
    // bit-identical to the full codec alone. The fallback counter only
    // counts responses the full decoder then accepted; garbage both paths
    // reject is undecodable noise, not a fast-path miss.
    wire::V3Fields fast;
    const bool fast_ok =
        wire.enabled && wire::parse_v3_fast(datagram->payload, fast);
    std::optional<snmp::V3Message> full;
    if (fast_ok) {
      wire.fast_parses.add();
    } else {
      auto message = snmp::V3Message::decode(datagram->payload);
      if (!message) {  // non-SNMPv3 noise or corrupted-in-flight bytes
        ++result.undecodable_responses;
        telemetry.track.record(obs::FlightEventKind::kUndecodable,
                               datagram->time,
                               static_cast<std::int64_t>(
                                   result.undecodable_responses));
        continue;
      }
      if (wire.enabled) {
        wire.fallbacks.add();
        telemetry.track.record(obs::FlightEventKind::kWireFallback,
                               datagram->time, 1);
      }
      full = std::move(message).value();
    }

    // Validation: the echoed ids must name a probe already sent, and the
    // source must be that probe's target.
    const auto& source = datagram->source.address;
    const auto residue =
        fast_ok ? matcher.ids.decode(fast.msg_id, fast.request_id)
                : matcher.ids.decode(full->header.msg_id,
                                     full->scoped_pdu.pdu.request_id);
    const auto seq = residue.has_value()
                         ? ProbeIds::latest_sent(*residue, matcher.sent)
                         : std::nullopt;
    if (!seq.has_value()) {
      ++result.unverified_responses;
      continue;
    }
    if (matcher.order.at(*seq) != source) {
      ++result.off_target_responses;
      continue;
    }

    const util::ByteView engine_view =
        fast_ok ? fast.engine_id
                : util::ByteView(full->usm.authoritative_engine_id.raw());
    // Materializes an owning EngineId; called at most once per datagram
    // (it moves out of the full-decode message).
    const auto materialize_engine = [&]() {
      return fast_ok ? snmp::EngineId(util::Bytes(fast.engine_id.begin(),
                                                  fast.engine_id.end()))
                     : std::move(full->usm.authoritative_engine_id);
    };

    SourceEntry* const known = matcher.by_source.find(source);
    if (known == nullptr) {
      // First response from this address.
      ScanRecord record;
      record.target = source;
      record.engine_id = materialize_engine();
      record.engine_boots = fast_ok ? fast.engine_boots : full->usm.engine_boots;
      record.engine_time = fast_ok ? fast.engine_time : full->usm.engine_time;
      if (const auto sent = matcher.ring.send_time(*seq)) {
        record.send_time = *sent;
        // Virtual-clock RTT: deterministic, so the histogram (and its
        // percentiles) are identical at any thread count.
        telemetry.rtt_ms.observe(
            static_cast<double>(datagram->time - *sent) / 1000.0);
      }
      record.receive_time = datagram->time;
      record.response_count = 1;
      record.response_bytes = datagram->payload.size();
      const std::size_t index = sink.append(record);
      matcher.by_source.try_emplace(
          source, SourceEntry{index, std::move(record.engine_id)});
      ++new_records;
    } else if (util::equal(engine_view, known->engine.raw())) {
      // The store's patch overlay reaches records in sealed blocks too.
      sink.note_duplicate(known->index, nullptr);
    } else {
      const snmp::EngineId engine = materialize_engine();
      sink.note_duplicate(known->index, &engine);
    }
  }
  return new_records;
}
}  // namespace

std::size_t send_ring_capacity(std::uint64_t slice_length,
                               const ProbeConfig& config) {
  const util::VTime gap =
      std::max<util::VTime>(Pacer::gap_at(config.rate_pps), 1);
  const std::uint64_t window =
      static_cast<std::uint64_t>(config.horizon() / gap) +
      std::max<std::size_t>(config.pacer.burst_probes, 1) + 1;
  return static_cast<std::size_t>(std::min(slice_length, window));
}

ScanResult Prober::run(std::span<const net::IpAddress> targets,
                       const ProbeConfig& config, util::VTime start_time) {
  util::Rng rng(config.seed);
  std::span<const net::IpAddress> order = targets;
  std::vector<net::IpAddress> shuffled;
  if (config.randomize_order) {
    shuffled.assign(targets.begin(), targets.end());
    rng.shuffle(shuffled);
    order = shuffled;
  }
  return run_impl(SpanTargets(order), config, start_time, rng);
}

ScanResult Prober::run(const TargetSequence& targets,
                       const ProbeConfig& config, util::VTime start_time) {
  util::Rng rng(config.seed);
  return run_impl(targets, config, start_time, rng);
}

ScanResult Prober::run_impl(const TargetSequence& order,
                            const ProbeConfig& config, util::VTime start_time,
                            util::Rng& rng) {
  Pacer pacer(config.rate_pps, config.pacer, rng);
  // Wire fast path: one template per run (three full encodes to build),
  // stamped into one reusable buffer for every probe thereafter.
  const wire::ProbeTemplate probe_template;
  util::Bytes probe_scratch;
  WireState wire{config.wire_fast_path, config.wire_fast_parses,
                 config.wire_parse_fallbacks};
  obs::Counter stamped_probes = config.wire_stamped_probes;
  obs::Counter full_encodes = config.wire_full_encodes;
  // Local copy: the track handle carries per-run cursor state (next
  // virtual boundary, wall-check countdown) the shared config must not.
  obs::ShardTelemetry telemetry = config.telemetry;
  std::size_t backoffs_reported = 0;
  ScanResult result;
  std::shared_ptr<store::RecordStore> sink_owner =
      config.sink != nullptr
          ? config.sink
          : std::make_shared<store::RecordStore>(store::StoreOptions{},
                                                 config.label);
  store::RecordStore& sink = *sink_owner;
  const ProbeIds ids(config.seed);
  SendRing ring(send_ring_capacity(order.size(), config), config.horizon());
  Matcher matcher{order, ids, ring, 0, {}};
  std::size_t start_index = 0;
  util::VTime next_send = 0;
  // Rate-limit signal feed: track the transport counter so each drain
  // hands the pacer only the delta. The baseline is taken after the
  // fabric restore on resume, so a resumed window sees the same deltas an
  // uninterrupted run would.
  std::uint64_t rate_limit_seen = transport_.rate_limit_signals();

  if (config.resume != nullptr) {
    // Continue a checkpointed run: the caller already restored the
    // transport and the record store; everything prober-side comes from
    // the snapshot.
    result = config.resume->partial;
    start_index = config.resume->cursor;
    next_send = config.resume->next_send;
    rng.restore_state(config.resume->rng);
    pacer.restore(config.resume->pacer);
    std::size_t index = 0;
    auto cursor = sink.cursor();
    ScanRecord record;
    while (cursor.next(record))
      matcher.by_source.try_emplace(
          record.target, SourceEntry{index++, std::move(record.engine_id)});
    ring.restore(config.resume->send_window);
  } else {
    result.label = config.label;
    result.targets_probed = order.size();
    transport_.run_until(start_time);
    result.start_time = transport_.now();
    next_send = transport_.now() + config.send_offset;
    // Generated sweeps can cover billions of positions; pre-sizing must
    // follow the expected working set, not the sweep length. A flat slot
    // (40 bytes here) costs five node-map bucket pointers, so the cap is
    // 4096 positions where the node map's was 65536; a busier shard
    // doubles the table as it fills. A scan probes one family: only the
    // first target's table is sized.
    if (order.size() > 0)
      matcher.by_source.reserve(
          order.at(0).family(),
          static_cast<std::size_t>(
              std::min<std::uint64_t>(order.size(), 4096) / 4));
  }
  result.store = sink_owner;
  // Batches start at the shard's own cursor, so a resume at any cursor
  // prepares exactly the targets and ids an uninterrupted run sends.
  std::array<net::IpAddress, kProbeBatch> batch_targets;
  std::array<ProbeIds::Pair, kProbeBatch> batch_ids;
  std::size_t batch_begin = start_index;
  std::size_t batch_end = start_index;
  for (std::size_t i = start_index; i < order.size(); ++i) {
    if (i == batch_end) {
      batch_begin = i;
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kProbeBatch, order.size() - i));
      order.fill(i, std::span(batch_targets).first(n));
      for (std::size_t j = 0; j < n; ++j) batch_ids[j] = ids.encode(i + j);
      batch_end = i + n;
    }
    const net::IpAddress& target = batch_targets[i - batch_begin];
    transport_.run_until(next_send);
    const auto [msg_id, request_id] = batch_ids[i - batch_begin];
    const util::VTime send_time = transport_.now();
    if (ring.record(i, send_time)) ++result.send_ring_overruns;
    // Zero-copy frame path first: a batching transport hands out a
    // preallocated kernel-bound frame and the template stamps straight
    // into it — no scratch buffer, no copy between here and sendmmsg. The
    // sim fabric returns an empty span and falls through unchanged.
    if (const auto frame = config.wire_fast_path
                               ? transport_.acquire_send_frame(
                                     probe_template.size())
                               : std::span<std::uint8_t>{};
        frame.size() >= probe_template.size() &&
        probe_template.stamp_into(msg_id, request_id,
                                  frame.first(probe_template.size()))) {
      result.probe_bytes = probe_template.size();
      transport_.commit_send_frame(source_, {target, net::kSnmpPort},
                                   probe_template.size(), send_time);
      stamped_probes.add();
    } else if (config.wire_fast_path &&
               probe_template.stamp(msg_id, request_id, probe_scratch)) {
      result.probe_bytes = probe_scratch.size();
      transport_.send_view(source_, {target, net::kSnmpPort}, probe_scratch,
                           send_time);
      stamped_probes.add();
    } else {
      const auto request = snmp::make_discovery_request(msg_id, request_id);
      net::Datagram probe;
      probe.source = source_;
      probe.destination = {target, net::kSnmpPort};
      probe.payload = request.encode();
      probe.time = send_time;
      result.probe_bytes = probe.payload.size();
      transport_.send(std::move(probe));
      full_encodes.add();
    }
    next_send = pacer.on_probe_sent(send_time);
    matcher.sent = i + 1;
    const std::size_t drained =
        drain(transport_, result, sink, matcher, wire, telemetry);
    const auto rate_limit_now = transport_.rate_limit_signals();
    const auto rate_limit_delta =
        static_cast<std::size_t>(rate_limit_now - rate_limit_seen);
    rate_limit_seen = rate_limit_now;
    pacer.on_responses(drained);
    pacer.on_rate_limit_signals(rate_limit_delta);

    if (telemetry.track.enabled()) {
      if (pacer.state().backoffs != backoffs_reported) {
        backoffs_reported = pacer.state().backoffs;
        telemetry.track.record(
            obs::FlightEventKind::kPacerBackoff, transport_.now(),
            static_cast<std::int64_t>(pacer.state().rate_pps));
      }
      telemetry.track.tick(transport_.now(), [&] {
        return progress(i + 1, result, sink, pacer.state());
      });
    }

    // Checkpoint boundaries sit at absolute multiples of the interval, so
    // a resumed run hits the same remaining boundaries as an uninterrupted
    // one would.
    if (config.checkpoint_every_n_targets != 0 && config.on_checkpoint &&
        (i + 1) % config.checkpoint_every_n_targets == 0) {
      result.pacer_backoffs = pacer.state().backoffs;
      ShardScanState state;
      state.cursor = i + 1;
      state.next_send = next_send;
      state.rng = rng.save_state();
      state.pacer = pacer.state();
      state.partial = result;  // scalars; the records ride in the manifest
      state.store_manifest = sink.manifest();
      state.send_window = ring.window(i + 1);
      telemetry.track.record(obs::FlightEventKind::kCheckpoint,
                             transport_.now(),
                             static_cast<std::int64_t>(i + 1));
      config.on_checkpoint(state);
    }
  }
  transport_.run_until(next_send + config.response_timeout);
  matcher.sent = order.size();
  drain(transport_, result, sink, matcher, wire, telemetry);
  pacer.on_rate_limit_signals(static_cast<std::size_t>(
      transport_.rate_limit_signals() - rate_limit_seen));
  sink.seal();
  result.end_time = transport_.now();
  result.pacer_backoffs = pacer.state().backoffs;
  if (telemetry.track.enabled())
    telemetry.track.complete(
        transport_.now(), progress(order.size(), result, sink, pacer.state()));
  if (obs::Logger::global().enabled(obs::LogLevel::kDebug)) {
    obs::log_debug("probe run finished",
                   {{"label", config.label},
                    {"targets", result.targets_probed},
                    {"responsive", sink.size()},
                    {"virtual_s", util::to_seconds(result.end_time -
                                                   result.start_time)}});
  }
  return result;
}

}  // namespace snmpv3fp::scan
