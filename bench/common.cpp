#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace snmpv3fp::benchx {

std::string build_flags() {
#ifdef SNMPFP_BUILD_FLAGS
  std::string flags = SNMPFP_BUILD_FLAGS;
#else
  std::string flags;
#endif
  if (flags.empty()) {
#ifdef NDEBUG
    flags = "release";
#else
    flags = "debug";
#endif
  }
  return flags;
}

void print_header(const std::string& experiment, const std::string& title) {
  std::cout << "\n=== " << experiment << ": " << title << " ===\n"
            << "(simulated reproduction of Albakour et al., IMC 2021 — "
               "scaled world; compare shapes/ratios, not magnitudes)\n\n";
}

double best_wall_ms(int repeats, const std::function<void()>& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::max(repeats, 1); ++i) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.elapsed_ms());
  }
  return best;
}

namespace {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

JsonRows& JsonRows::begin_row() {
  rows_.emplace_back();
  return *this;
}

JsonRows& JsonRows::field(std::string_view key, std::string_view value) {
  rows_.back().push_back({std::string(key), json_escape(value)});
  return *this;
}

JsonRows& JsonRows::field(std::string_view key, double value) {
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.6g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");  // JSON has no Inf/NaN
  }
  rows_.back().push_back({std::string(key), buf});
  return *this;
}

JsonRows& JsonRows::field(std::string_view key, std::int64_t value) {
  rows_.back().push_back({std::string(key), std::to_string(value)});
  return *this;
}

JsonRows& JsonRows::meta(std::string_view key, std::string_view value) {
  meta_.push_back({std::string(key), json_escape(value)});
  return *this;
}

JsonRows& JsonRows::meta(std::string_view key, std::int64_t value) {
  meta_.push_back({std::string(key), std::to_string(value)});
  return *this;
}

std::string JsonRows::render() const {
  std::ostringstream out;
  const std::string indent = meta_.empty() ? "  " : "    ";
  if (!meta_.empty()) {
    out << "{\n  \"meta\": {";
    for (std::size_t f = 0; f < meta_.size(); ++f) {
      if (f) out << ", ";
      out << json_escape(meta_[f].key) << ": " << meta_[f].rendered;
    }
    out << "},\n  \"rows\": ";
  }
  out << "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out << indent << "{";
    for (std::size_t f = 0; f < rows_[r].size(); ++f) {
      if (f) out << ", ";
      out << json_escape(rows_[r][f].key) << ": " << rows_[r][f].rendered;
    }
    out << (r + 1 < rows_.size() ? "},\n" : "}\n");
  }
  if (!meta_.empty()) {
    out << "  ]\n}\n";
  } else {
    out << "]\n";
  }
  return out.str();
}

void stamp_run_metadata(JsonRows& rows, std::uint64_t seed,
                        std::size_t threads, std::size_t scan_shards) {
  rows.meta("schema", std::int64_t{1})
      .meta("seed", static_cast<std::int64_t>(seed))
      .meta("threads", static_cast<std::int64_t>(threads))
      .meta("scan_shards", static_cast<std::int64_t>(scan_shards))
      .meta("build_flags", build_flags());
}

bool JsonRows::write(const std::string& path) const {
  std::ofstream out(path);
  out << render();
  if (!out) {
    std::fprintf(stderr, "[bench] failed to write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace snmpv3fp::benchx
