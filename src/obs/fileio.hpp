// Atomic file publication for telemetry artifacts.
//
// Every live telemetry surface (status.json, flight-ring dumps, trace
// exports) must be readable by an external watcher at any instant, so all
// of them go through the same write-to-temp + rename idiom the checkpoint
// codec uses: a reader either sees the previous complete document or the
// new complete document, never a torn write.
#pragma once

#include <string>
#include <string_view>

namespace snmpv3fp::obs {

// Writes `content` to `path + ".tmp"` and renames it over `path`.
// Returns false (and removes the temp file) on any I/O failure.
bool write_file_atomic(const std::string& path, std::string_view content);

}  // namespace snmpv3fp::obs
