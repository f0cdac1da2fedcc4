// Live status surface: status.json, a view of the telemetry tracks.
//
// Each scan shard's track (obs/timeline.hpp) holds a status row —
// progress, response rate, pacer state, resident store bytes, an ETA
// from the pacer's effective rate — refreshed on the track's wall-check
// stride. The timeline renders every row with render_status_json() and
// publishes the document with the tmp+rename idiom, throttled so a fast
// campaign does not turn into an fsync benchmark. `census_report --watch`
// polls the file and renders it with render_status_dashboard().
//
// Like every telemetry surface this is execution-only: rows read
// shard-local deterministic values but nothing feeds back into the
// pipeline, and the file contents (wall-time fields, write coalescing)
// are explicitly not part of the determinism contract.
#pragma once

#include <string>
#include <vector>

#include "obs/timeline.hpp"

namespace snmpv3fp::obs {

class JsonValue;

// The status.json document (schema 1): totals plus one object per row.
std::string render_status_json(const std::vector<TrackStatus>& rows,
                               double wall_ms);

// Renders a parsed status.json as a fixed-width ASCII dashboard (one row
// per shard plus a totals line). Library function so tests can cover the
// rendering that `census_report --watch` refreshes.
std::string render_status_dashboard(const JsonValue& status);

}  // namespace snmpv3fp::obs
