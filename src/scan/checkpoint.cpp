#include "scan/checkpoint.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/log.hpp"

namespace snmpv3fp::scan {

namespace {

using obs::JsonValue;
using obs::JsonWriter;
using obs::parse_u64_hex;
using obs::u64_hex;

std::uint64_t get_u64(const JsonValue& parent, std::string_view name) {
  const auto* value = parent.find(name);
  if (value == nullptr) return 0;
  return static_cast<std::uint64_t>(value->as_number());
}

std::int64_t get_i64(const JsonValue& parent, std::string_view name) {
  const auto* value = parent.find(name);
  if (value == nullptr) return 0;
  return static_cast<std::int64_t>(value->as_number());
}

std::string get_string(const JsonValue& parent, std::string_view name) {
  const auto* value = parent.find(name);
  if (value == nullptr) return {};
  return value->as_string();
}

// ---- RngState ----

void write_rng(JsonWriter& json, const util::RngState& state) {
  json.begin_object();
  json.key("words").begin_array();
  for (const auto word : state.words) json.value(u64_hex(word));
  json.end_array();
  json.kv("have_spare", state.have_spare_normal);
  json.kv("spare_bits", u64_hex(state.spare_normal_bits));
  json.end_object();
}

util::RngState read_rng(const JsonValue& value) {
  util::RngState state;
  if (const auto* words = value.find("words");
      words != nullptr && words->is_array())
    for (std::size_t i = 0; i < words->items().size() && i < 4; ++i)
      state.words[i] = parse_u64_hex(&words->items()[i]);
  if (const auto* spare = value.find("have_spare"))
    state.have_spare_normal = spare->as_bool();
  state.spare_normal_bits = parse_u64_hex(value.find("spare_bits"));
  return state;
}

// ---- PacerState ----

void write_pacer(JsonWriter& json, const PacerState& state) {
  json.begin_object();
  json.kv("rate_bits", u64_hex(std::bit_cast<std::uint64_t>(state.rate_pps)));
  json.kv("baseline_bits",
          u64_hex(std::bit_cast<std::uint64_t>(state.baseline_response_rate)));
  json.kv("window_sent", static_cast<std::uint64_t>(state.window_sent));
  json.kv("window_responses",
          static_cast<std::uint64_t>(state.window_responses));
  json.kv("backoffs", static_cast<std::uint64_t>(state.backoffs));
  json.kv("backoff_wait", static_cast<std::int64_t>(state.backoff_wait));
  json.kv("window_signals",
          static_cast<std::uint64_t>(state.window_rate_limit_signals));
  json.kv("signals", static_cast<std::uint64_t>(state.rate_limit_signals));
  json.end_object();
}

PacerState read_pacer(const JsonValue& value) {
  PacerState state;
  state.rate_pps = std::bit_cast<double>(parse_u64_hex(value.find("rate_bits")));
  state.baseline_response_rate =
      std::bit_cast<double>(parse_u64_hex(value.find("baseline_bits")));
  state.window_sent = get_u64(value, "window_sent");
  state.window_responses = get_u64(value, "window_responses");
  state.backoffs = get_u64(value, "backoffs");
  state.backoff_wait = get_i64(value, "backoff_wait");
  state.window_rate_limit_signals = get_u64(value, "window_signals");
  state.rate_limit_signals = get_u64(value, "signals");
  return state;
}

// ---- ScanResult ----

// Scalars only: the records ride in the store manifests beside it.
void write_scan_result(JsonWriter& json, const ScanResult& result) {
  json.begin_object();
  json.kv("label", result.label);
  json.kv("start_time", static_cast<std::int64_t>(result.start_time));
  json.kv("end_time", static_cast<std::int64_t>(result.end_time));
  json.kv("targets_probed", static_cast<std::uint64_t>(result.targets_probed));
  json.kv("probe_bytes", static_cast<std::uint64_t>(result.probe_bytes));
  json.kv("undecodable_responses",
          static_cast<std::uint64_t>(result.undecodable_responses));
  json.kv("pacer_backoffs",
          static_cast<std::uint64_t>(result.pacer_backoffs));
  json.kv("unverified_responses",
          static_cast<std::uint64_t>(result.unverified_responses));
  json.kv("off_target_responses",
          static_cast<std::uint64_t>(result.off_target_responses));
  json.kv("send_ring_overruns",
          static_cast<std::uint64_t>(result.send_ring_overruns));
  json.end_object();
}

ScanResult read_scan_result(const JsonValue& value) {
  ScanResult result;
  result.label = get_string(value, "label");
  result.start_time = get_i64(value, "start_time");
  result.end_time = get_i64(value, "end_time");
  result.targets_probed = get_u64(value, "targets_probed");
  result.probe_bytes = get_u64(value, "probe_bytes");
  result.undecodable_responses = get_u64(value, "undecodable_responses");
  result.pacer_backoffs = get_u64(value, "pacer_backoffs");
  result.unverified_responses = get_u64(value, "unverified_responses");
  result.off_target_responses = get_u64(value, "off_target_responses");
  result.send_ring_overruns = get_u64(value, "send_ring_overruns");
  return result;
}

void write_manifest(JsonWriter& json, const store::StoreManifest& manifest) {
  std::string rendered;
  store::write_manifest_json(rendered, manifest);
  json.raw(rendered);
}

// ---- FabricState ----

void write_datagram(JsonWriter& json, const net::Datagram& datagram) {
  json.begin_object();
  json.kv("src", datagram.source.address.to_string());
  json.kv("sport", std::uint64_t{datagram.source.port});
  json.kv("dst", datagram.destination.address.to_string());
  json.kv("dport", std::uint64_t{datagram.destination.port});
  json.kv("time", static_cast<std::int64_t>(datagram.time));
  json.kv("payload", util::to_hex(datagram.payload));
  json.end_object();
}

net::Datagram read_datagram(const JsonValue& value) {
  net::Datagram datagram;
  if (const auto address = net::IpAddress::parse(get_string(value, "src")))
    datagram.source.address = address.value();
  datagram.source.port = static_cast<std::uint16_t>(get_u64(value, "sport"));
  if (const auto address = net::IpAddress::parse(get_string(value, "dst")))
    datagram.destination.address = address.value();
  datagram.destination.port =
      static_cast<std::uint16_t>(get_u64(value, "dport"));
  datagram.time = get_i64(value, "time");
  if (auto payload = util::from_hex(get_string(value, "payload")))
    datagram.payload = std::move(payload.value());
  return datagram;
}

void write_fabric_state(JsonWriter& json, const sim::FabricState& state) {
  json.begin_object();
  json.kv("clock", static_cast<std::int64_t>(state.clock));
  json.key("rng");
  write_rng(json, state.rng);
  json.key("stats").begin_object();
  json.kv("sent", static_cast<std::uint64_t>(state.stats.datagrams_sent));
  json.kv("delivered",
          static_cast<std::uint64_t>(state.stats.datagrams_delivered));
  json.kv("generated",
          static_cast<std::uint64_t>(state.stats.responses_generated));
  json.kv("received",
          static_cast<std::uint64_t>(state.stats.responses_received));
  json.kv("probes_lost", static_cast<std::uint64_t>(state.stats.probes_lost));
  json.kv("probes_dead", static_cast<std::uint64_t>(state.stats.probes_dead));
  json.kv("probes_filtered",
          static_cast<std::uint64_t>(state.stats.probes_filtered));
  json.kv("probes_rate_limited",
          static_cast<std::uint64_t>(state.stats.probes_rate_limited));
  json.kv("responses_lost",
          static_cast<std::uint64_t>(state.stats.responses_lost));
  json.kv("responses_duplicated",
          static_cast<std::uint64_t>(state.stats.responses_duplicated));
  json.kv("probes_corrupted",
          static_cast<std::uint64_t>(state.stats.probes_corrupted));
  json.kv("responses_corrupted",
          static_cast<std::uint64_t>(state.stats.responses_corrupted));
  json.end_object();
  json.key("in_flight").begin_array();
  for (const auto& datagram : state.in_flight) write_datagram(json, datagram);
  json.end_array();
  json.key("inbox").begin_array();
  for (const auto& datagram : state.inbox) write_datagram(json, datagram);
  json.end_array();
  json.key("rate_windows").begin_array();
  for (const auto& window : state.rate_windows) {
    json.begin_object();
    json.kv("device", std::uint64_t{window.device});
    json.kv("window_start", static_cast<std::int64_t>(window.window_start));
    json.kv("count", static_cast<std::uint64_t>(window.count));
    json.end_object();
  }
  json.end_array();
  // Lazy-world responder cache, MRU first (empty for materialized worlds;
  // older checkpoints without the key restore to a cold cache).
  json.key("responder_cache").begin_array();
  for (const auto& address : state.responder_cache)
    json.value(address.to_string());
  json.end_array();
  json.end_object();
}

sim::FabricState read_fabric_state(const JsonValue& value) {
  sim::FabricState state;
  state.clock = get_i64(value, "clock");
  if (const auto* rng = value.find("rng")) state.rng = read_rng(*rng);
  if (const auto* stats = value.find("stats")) {
    state.stats.datagrams_sent = get_u64(*stats, "sent");
    state.stats.datagrams_delivered = get_u64(*stats, "delivered");
    state.stats.responses_generated = get_u64(*stats, "generated");
    state.stats.responses_received = get_u64(*stats, "received");
    state.stats.probes_lost = get_u64(*stats, "probes_lost");
    state.stats.probes_dead = get_u64(*stats, "probes_dead");
    state.stats.probes_filtered = get_u64(*stats, "probes_filtered");
    state.stats.probes_rate_limited = get_u64(*stats, "probes_rate_limited");
    state.stats.responses_lost = get_u64(*stats, "responses_lost");
    state.stats.responses_duplicated = get_u64(*stats, "responses_duplicated");
    state.stats.probes_corrupted = get_u64(*stats, "probes_corrupted");
    state.stats.responses_corrupted = get_u64(*stats, "responses_corrupted");
  }
  if (const auto* in_flight = value.find("in_flight");
      in_flight != nullptr && in_flight->is_array())
    for (const auto& item : in_flight->items())
      state.in_flight.push_back(read_datagram(item));
  if (const auto* inbox = value.find("inbox");
      inbox != nullptr && inbox->is_array())
    for (const auto& item : inbox->items())
      state.inbox.push_back(read_datagram(item));
  if (const auto* windows = value.find("rate_windows");
      windows != nullptr && windows->is_array())
    for (const auto& item : windows->items())
      state.rate_windows.push_back(
          {static_cast<std::uint32_t>(get_u64(item, "device")),
           get_i64(item, "window_start"), get_u64(item, "count")});
  if (const auto* cache = value.find("responder_cache");
      cache != nullptr && cache->is_array())
    for (const auto& item : cache->items())
      if (const auto address = net::IpAddress::parse(item.as_string()))
        state.responder_cache.push_back(address.value());
  return state;
}

// ---- ShardScanState ----

void write_shard_state(JsonWriter& json, const ShardScanState& state) {
  json.begin_object();
  json.kv("shard", static_cast<std::uint64_t>(state.shard));
  json.kv("cursor", static_cast<std::uint64_t>(state.cursor));
  json.kv("complete", state.complete);
  json.kv("next_send", static_cast<std::int64_t>(state.next_send));
  json.key("rng");
  write_rng(json, state.rng);
  json.key("pacer");
  write_pacer(json, state.pacer);
  json.key("partial");
  write_scan_result(json, state.partial);
  json.key("send_window").begin_array();
  for (const auto& sent : state.send_window) {
    json.begin_array();
    json.value(sent.seq);
    json.value(static_cast<std::int64_t>(sent.send_time));
    json.end_array();
  }
  json.end_array();
  json.key("fabric");
  write_fabric_state(json, state.fabric);
  json.key("store");
  write_manifest(json, state.store_manifest);
  json.end_object();
}

// A JSON number that is an exact integer: no fraction, and inside the
// +-2^53 range a double carries without rounding.
std::optional<std::int64_t> exact_integer(const JsonValue& value) {
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  if (value.kind() != JsonValue::Kind::kNumber) return std::nullopt;
  const double number = value.as_number();
  if (!(std::abs(number) <= kExactLimit) || number != std::trunc(number))
    return std::nullopt;
  return static_cast<std::int64_t>(number);
}

// The send window fails closed: nullopt when it is absent, or on any entry
// that is not a [seq, time] pair of exact integers, repeats or goes back on
// a seq, or names a probe at or past the cursor.
std::optional<std::vector<SentProbe>> read_send_window(const JsonValue* value,
                                                       std::size_t cursor) {
  if (value == nullptr || !value->is_array()) return std::nullopt;
  std::vector<SentProbe> window;
  window.reserve(value->items().size());
  for (const auto& item : value->items()) {
    if (!item.is_array() || item.items().size() != 2) return std::nullopt;
    const auto seq = exact_integer(item.items()[0]);
    const auto time = exact_integer(item.items()[1]);
    if (!seq || !time || *seq < 0 ||
        static_cast<std::uint64_t>(*seq) >= cursor ||
        (!window.empty() &&
         static_cast<std::uint64_t>(*seq) <= window.back().seq))
      return std::nullopt;
    window.push_back({static_cast<std::uint64_t>(*seq), *time});
  }
  return window;
}

std::optional<ShardScanState> read_shard_state(const JsonValue& value) {
  ShardScanState state;
  state.shard = get_u64(value, "shard");
  state.cursor = get_u64(value, "cursor");
  if (const auto* complete = value.find("complete"))
    state.complete = complete->as_bool();
  state.next_send = get_i64(value, "next_send");
  if (const auto* rng = value.find("rng")) state.rng = read_rng(*rng);
  if (const auto* pacer = value.find("pacer"))
    state.pacer = read_pacer(*pacer);
  if (const auto* partial = value.find("partial"))
    state.partial = read_scan_result(*partial);
  auto window = read_send_window(value.find("send_window"), state.cursor);
  if (!window.has_value()) return std::nullopt;
  state.send_window = std::move(window).value();
  if (const auto* fabric = value.find("fabric"))
    state.fabric = read_fabric_state(*fabric);
  if (const auto* manifest = value.find("store"))
    state.store_manifest = store::read_manifest_json(*manifest);
  return state;
}

}  // namespace

std::string CampaignCheckpoint::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.kv("schema", kSchema);
  json.kv("config_digest", u64_hex(config_digest));
  json.kv("scan_index", static_cast<std::uint64_t>(scan_index));
  if (scan1.has_value()) {
    json.key("scan1");
    write_scan_result(json, *scan1);
    json.key("scan1_store");
    write_manifest(json, scan1_manifest);
  }
  json.key("shard_states").begin_array();
  for (const auto& state : shard_states) write_shard_state(json, state);
  json.end_array();
  json.key("scan_boundary_fabrics").begin_array();
  for (const auto& state : scan_boundary_fabrics)
    write_fabric_state(json, state);
  json.end_array();
  json.end_object();
  return json.str();
}

std::optional<CampaignCheckpoint> CampaignCheckpoint::from_json(
    std::string_view text) {
  const auto root = JsonValue::parse(text);
  if (!root.has_value() || !root->is_object()) return std::nullopt;
  if (get_u64(*root, "schema") != kSchema) return std::nullopt;
  CampaignCheckpoint checkpoint;
  checkpoint.config_digest = parse_u64_hex(root->find("config_digest"));
  checkpoint.scan_index = get_u64(*root, "scan_index");
  if (const auto* scan1 = root->find("scan1"))
    checkpoint.scan1 = read_scan_result(*scan1);
  if (const auto* manifest = root->find("scan1_store"))
    checkpoint.scan1_manifest = store::read_manifest_json(*manifest);
  if (const auto* shards = root->find("shard_states");
      shards != nullptr && shards->is_array())
    for (const auto& item : shards->items()) {
      auto state = read_shard_state(item);
      if (!state.has_value()) return std::nullopt;
      checkpoint.shard_states.push_back(std::move(state).value());
    }
  if (const auto* fabrics = root->find("scan_boundary_fabrics");
      fabrics != nullptr && fabrics->is_array())
    for (const auto& item : fabrics->items())
      checkpoint.scan_boundary_fabrics.push_back(read_fabric_state(item));
  return checkpoint;
}

bool save_checkpoint(const CampaignCheckpoint& checkpoint,
                     const std::string& path) {
  const std::string rendered = checkpoint.to_json();
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    obs::log_warn("checkpoint open failed", {{"path", tmp}});
    return false;
  }
  const bool wrote =
      std::fwrite(rendered.data(), 1, rendered.size(), file) ==
      rendered.size();
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    obs::log_warn("checkpoint write failed", {{"path", path}});
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<CampaignCheckpoint> load_checkpoint(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string text;
  char buffer[1 << 16];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
    text.append(buffer, got);
  std::fclose(file);
  auto checkpoint = CampaignCheckpoint::from_json(text);
  if (!checkpoint.has_value())
    obs::log_warn("checkpoint unparseable, ignoring", {{"path", path}});
  return checkpoint;
}

void remove_checkpoint(const std::string& path) {
  std::remove(path.c_str());
}

}  // namespace snmpv3fp::scan
