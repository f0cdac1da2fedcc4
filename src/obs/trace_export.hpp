// Chrome trace event export.
//
// Serializes a run's spans (and optionally its flight-ring events) in
// the Chrome trace event format — the JSON that chrome://tracing and
// Perfetto's legacy importer load directly. Spans become "X" (complete)
// events with microsecond timestamps relative to the trace epoch, laid
// out per thread id so shard overlap is visible; flight events become "i"
// (instant) events; a metadata ("M") event names each thread track.
// Format reference: the "Trace Event Format" document the Chromium
// project publishes (JSON Array / JSON Object formats; we emit the object
// form: {"traceEvents": [...]}).
#pragma once

#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/trace.hpp"

namespace snmpv3fp::obs {

std::string to_chrome_trace_json(
    const std::vector<SpanRecord>& spans,
    const std::vector<FlightEvent>& flight_events = {});

}  // namespace snmpv3fp::obs
