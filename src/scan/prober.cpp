#include "scan/prober.hpp"

#include <algorithm>
#include <deque>
#include <optional>

#include "obs/log.hpp"
#include "snmp/message.hpp"
#include "store/record_store.hpp"
#include "wire/probe_template.hpp"
#include "wire/report_codec.hpp"

namespace snmpv3fp::scan {

namespace {
// msg_id/request_id in [128, 32767] encode as exactly two content bytes,
// which keeps the discovery probe at the paper's 60-byte payload
// (88 bytes on the IPv4 wire, 108 on IPv6).
std::int32_t two_byte_id(util::Rng& rng) {
  return static_cast<std::int32_t>(128 + rng.next_below(32767 - 128));
}

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
}  // namespace

std::size_t Prober::drain(
    ScanResult& result, store::RecordStore& sink,
    std::unordered_map<net::IpAddress, SourceEntry>& by_source,
    const std::unordered_map<net::IpAddress, util::VTime>& sent_at,
    WireState& wire, obs::ShardTelemetry& telemetry) {
  std::size_t new_records = 0;
  while (auto datagram = transport_.receive_view()) {
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
        telemetry.flight.record(obs::FlightEventKind::kUndecodable,
                                datagram->time,
                                static_cast<std::int64_t>(
                                    result.undecodable_responses));
        continue;
      }
      if (wire.enabled) {
        wire.fallbacks.add();
        telemetry.flight.record(obs::FlightEventKind::kWireFallback,
                                datagram->time, 1);
      }
      full = std::move(message).value();
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

    const auto& source = datagram->source.address;
    const auto it = by_source.find(source);
    if (it == by_source.end()) {
      // First response from this address.
      ScanRecord record;
      record.target = source;
      record.engine_id = materialize_engine();
      record.engine_boots = fast_ok ? fast.engine_boots : full->usm.engine_boots;
      record.engine_time = fast_ok ? fast.engine_time : full->usm.engine_time;
      if (const auto sent = sent_at.find(source); sent != sent_at.end()) {
        record.send_time = sent->second;
        // Virtual-clock RTT: deterministic, so the histogram (and its
        // percentiles) are identical at any thread count.
        telemetry.rtt_ms.observe(
            static_cast<double>(datagram->time - sent->second) / 1000.0);
      }
      record.receive_time = datagram->time;
      record.response_count = 1;
      record.response_bytes = datagram->payload.size();
      const std::size_t index = sink.append(record);
      by_source.emplace(source, SourceEntry{index, std::move(record.engine_id)});
      ++new_records;
    } else if (util::equal(engine_view, it->second.engine.raw())) {
      // The store's patch overlay reaches records in sealed blocks too.
      sink.note_duplicate(it->second.index, nullptr);
    } else {
      const snmp::EngineId engine = materialize_engine();
      sink.note_duplicate(it->second.index, &engine);
    }
  }
  return new_records;
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
  // Local copy: the timeline recorder carries per-run cursor state (next
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
  std::unordered_map<net::IpAddress, SourceEntry> by_source;
  std::unordered_map<net::IpAddress, util::VTime> sent_at;
  // Outstanding sends in order, for sent_horizon pruning (empty when off).
  std::deque<std::pair<util::VTime, net::IpAddress>> send_log;
  // Generated sweeps can cover billions of positions; pre-sizing must
  // follow the expected working set, not the sweep length.
  const auto reserve_n =
      static_cast<std::size_t>(std::min<std::uint64_t>(order.size(), 65536));
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
      by_source.emplace(record.target,
                        SourceEntry{index++, std::move(record.engine_id)});
    sent_at.reserve(reserve_n);
    for (const auto& [address, time] : config.resume->sent_at)
      sent_at.emplace(address, time);
    if (config.sent_horizon > 0) {
      // Rebuild the pruning log in the snapshot's (time, address) order so
      // a resumed run forgets entries on exactly the same probes an
      // uninterrupted run would (the snapshot is already sorted that way).
      for (const auto& [address, time] : config.resume->sent_at)
        send_log.emplace_back(time, address);
    }
  } else {
    result.label = config.label;
    result.targets_probed = order.size();
    transport_.run_until(start_time);
    result.start_time = transport_.now();
    next_send = transport_.now() + config.send_offset;
    by_source.reserve(reserve_n / 4);
    sent_at.reserve(reserve_n);
  }
  result.store = sink_owner;
  const auto update_status = [&](std::size_t targets_sent, bool complete) {
    obs::ShardStatusRow row;
    row.point = progress(targets_sent, result, sink, pacer.state());
    if (const auto* net = transport_.net_stats())
      row.ring_frames = net->ring_frames;
    row.virtual_now = transport_.now();
    row.complete = complete;
    telemetry.status.update(row);
  };

  for (std::size_t i = start_index; i < order.size(); ++i) {
    const net::IpAddress target = order.at(i);
    transport_.run_until(next_send);
    // Draw order matters for bit-compatibility with historical runs:
    // request_id consumed the first draw when both ids were drawn inside
    // the make_discovery_request call (right-to-left argument evaluation).
    const std::int32_t request_id = two_byte_id(rng);
    const std::int32_t msg_id = two_byte_id(rng);
    const util::VTime send_time = transport_.now();
    sent_at.emplace(target, send_time);
    if (config.sent_horizon > 0) {
      send_log.emplace_back(send_time, target);
      const util::VTime cutoff = send_time - config.sent_horizon;
      while (!send_log.empty() && send_log.front().first < cutoff) {
        sent_at.erase(send_log.front().second);
        send_log.pop_front();
      }
    }
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
    const std::size_t drained =
        drain(result, sink, by_source, sent_at, wire, telemetry);
    const auto rate_limit_now = transport_.rate_limit_signals();
    const auto rate_limit_delta =
        static_cast<std::size_t>(rate_limit_now - rate_limit_seen);
    rate_limit_seen = rate_limit_now;
    pacer.on_responses(drained);
    pacer.on_rate_limit_signals(rate_limit_delta);

    if (telemetry.flight.enabled() &&
        pacer.state().backoffs != backoffs_reported) {
      backoffs_reported = pacer.state().backoffs;
      telemetry.flight.record(
          obs::FlightEventKind::kPacerBackoff, transport_.now(),
          static_cast<std::int64_t>(pacer.state().rate_pps));
    }
    if (telemetry.timeline.enabled())
      telemetry.timeline.tick(transport_.now(),
                              progress(i + 1, result, sink, pacer.state()));
    if (telemetry.status.enabled() &&
        (i + 1) % telemetry.status.every_n_targets() == 0)
      update_status(i + 1, false);

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
      state.sent_at.assign(sent_at.begin(), sent_at.end());
      std::sort(state.sent_at.begin(), state.sent_at.end());
      telemetry.flight.record(obs::FlightEventKind::kCheckpoint,
                              transport_.now(),
                              static_cast<std::int64_t>(i + 1));
      if (!config.on_checkpoint(state))
        return result;  // simulated kill; the snapshot supersedes this
    }
  }
  transport_.run_until(next_send + config.response_timeout);
  drain(result, sink, by_source, sent_at, wire, telemetry);
  pacer.on_rate_limit_signals(static_cast<std::size_t>(
      transport_.rate_limit_signals() - rate_limit_seen));
  sink.seal();
  result.end_time = transport_.now();
  result.pacer_backoffs = pacer.state().backoffs;
  if (telemetry.status.enabled()) update_status(order.size(), true);
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
