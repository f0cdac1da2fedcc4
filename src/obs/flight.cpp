#include "obs/flight.hpp"

#include "obs/json.hpp"

namespace snmpv3fp::obs {

std::string_view to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kUndecodable: return "undecodable";
    case FlightEventKind::kWireFallback: return "wire_fallback";
    case FlightEventKind::kPacerBackoff: return "pacer_backoff";
    case FlightEventKind::kStoreSpill: return "store_spill";
    case FlightEventKind::kStoreEvict: return "store_evict";
    case FlightEventKind::kCheckpoint: return "checkpoint";
    case FlightEventKind::kScanBoundary: return "scan_boundary";
    case FlightEventKind::kNote: return "note";
  }
  return "unknown";
}

std::string render_flight_json(const std::vector<FlightEvent>& events,
                               std::string_view reason,
                               std::size_t ring_capacity,
                               std::uint64_t dropped) {
  JsonWriter json;
  json.begin_object();
  json.kv("schema", std::uint64_t{1});
  json.kv("reason", reason);
  json.kv("ring_capacity", static_cast<std::uint64_t>(ring_capacity));
  json.kv("dropped", dropped);
  json.key("events").begin_array();
  for (const auto& event : events) {
    json.begin_object();
    json.kv("kind", to_string(event.kind));
    json.kv("stage", event.stage);
    json.kv("shard", static_cast<std::uint64_t>(event.shard));
    json.kv("virtual_s", util::to_seconds(event.virtual_time));
    json.kv("wall_ms", event.wall_ms);
    json.kv("value", event.value);
    if (!event.detail.empty()) json.kv("detail", event.detail);
    json.kv("seq", event.seq);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace snmpv3fp::obs
