#include "obs/status.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/fileio.hpp"
#include "obs/json.hpp"
#include "util/table.hpp"

namespace snmpv3fp::obs {

void StatusBoard::configure(StatusConfig config) {
  config_ = config;
  if (config_.every_n_targets == 0) config_.every_n_targets = 1;
  epoch_ = std::chrono::steady_clock::now();
}

StatusHandle StatusBoard::add_shard(std::string stage, std::size_t shard,
                                    std::uint64_t targets_total) {
  StatusHandle out;
  if (!enabled()) return out;
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t slot = rows_.size();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].stage == stage &&
        rows_[i].shard == static_cast<std::uint32_t>(shard)) {
      slot = i;
      break;
    }
  }
  if (slot == rows_.size()) rows_.emplace_back();
  ShardStatusRow& row = rows_[slot];
  row.stage = std::move(stage);
  row.shard = static_cast<std::uint32_t>(shard);
  row.targets_total = targets_total;
  row.complete = false;
  out.board_ = this;
  out.slot_ = slot;
  out.every_ = config_.every_n_targets;
  return out;
}

void StatusHandle::update(const ShardStatusRow& row) {
  if (board_ == nullptr) return;
  board_->update_slot(slot_, row);
}

void StatusBoard::update_slot(std::size_t slot, const ShardStatusRow& row) {
  std::lock_guard<std::mutex> lock(mutex_);
  ShardStatusRow& target = rows_[slot];
  target.point = row.point;
  target.virtual_now = row.virtual_now;
  target.complete = row.complete;
  maybe_write_locked();
}

void StatusBoard::mark_stage_complete(std::string_view stage) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& row : rows_) {
      if (row.stage == stage) {
        row.complete = true;
        row.point.targets_sent =
            std::max(row.point.targets_sent, row.targets_total);
      }
    }
  }
  write_now();
}

std::vector<ShardStatusRow> StatusBoard::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_;
}

namespace {

void row_to_json(JsonWriter& json, const ShardStatusRow& row) {
  json.begin_object();
  json.kv("stage", row.stage);
  json.kv("shard", static_cast<std::uint64_t>(row.shard));
  json.kv("targets_total", row.targets_total);
  json.kv("targets_sent", row.point.targets_sent);
  json.kv("responses", row.point.responses);
  json.kv("undecodable", row.point.undecodable);
  json.kv("backoffs", row.point.backoffs);
  json.kv("response_rate", row.response_rate());
  json.kv("pacer_rate_pps", row.point.pacer_rate_pps);
  json.kv("resident_bytes", row.point.store_resident_bytes);
  json.kv("virtual_s", util::to_seconds(row.virtual_now));
  json.kv("eta_s", row.eta_seconds());
  json.kv("complete", row.complete);
  json.end_object();
}

std::string render_json(const std::vector<ShardStatusRow>& rows,
                        double wall_ms) {
  std::uint64_t targets = 0, sent = 0, responses = 0, undecodable = 0,
                backoffs = 0;
  std::int64_t resident = 0;
  double eta = 0.0;
  bool complete = !rows.empty();
  for (const auto& row : rows) {
    targets += row.targets_total;
    sent += row.point.targets_sent;
    responses += row.point.responses;
    undecodable += row.point.undecodable;
    backoffs += row.point.backoffs;
    resident += std::max<std::int64_t>(row.point.store_resident_bytes, 0);
    // Shards run concurrently, so the campaign finishes with the slowest.
    eta = std::max(eta, row.eta_seconds());
    complete = complete && row.complete;
  }
  JsonWriter json;
  json.begin_object();
  json.kv("schema", std::uint64_t{1});
  json.kv("wall_ms", wall_ms);
  json.kv("complete", complete);
  json.key("totals").begin_object();
  json.kv("targets_total", targets);
  json.kv("targets_sent", sent);
  json.kv("responses", responses);
  json.kv("undecodable", undecodable);
  json.kv("backoffs", backoffs);
  json.kv("response_rate",
          sent == 0 ? 0.0
                    : static_cast<double>(responses) /
                          static_cast<double>(sent));
  json.kv("resident_bytes", resident);
  json.kv("eta_s", eta);
  json.end_object();
  json.key("shards").begin_array();
  for (const auto& row : rows) row_to_json(json, row);
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace

std::string StatusBoard::to_json() const {
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  std::lock_guard<std::mutex> lock(mutex_);
  return render_json(rows_, wall_ms);
}

void StatusBoard::maybe_write_locked() {
  if (config_.path.empty()) return;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  if (wall_ms - last_write_ms_ < config_.min_write_interval_ms) return;
  last_write_ms_ = wall_ms;
  if (write_file_atomic(config_.path, render_json(rows_, wall_ms)))
    writes_.fetch_add(1, std::memory_order_relaxed);
}

bool StatusBoard::write_now() {
  if (config_.path.empty()) return false;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  std::lock_guard<std::mutex> lock(mutex_);
  last_write_ms_ = wall_ms;
  if (!write_file_atomic(config_.path, render_json(rows_, wall_ms)))
    return false;
  writes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

namespace {

double num(const JsonValue* value) {
  return value == nullptr ? 0.0 : value->as_number();
}

std::string fmt_eta(double seconds) {
  if (seconds <= 0.0) return "-";
  char buf[32];
  if (seconds >= 3600.0)
    std::snprintf(buf, sizeof buf, "%.1fh", seconds / 3600.0);
  else if (seconds >= 60.0)
    std::snprintf(buf, sizeof buf, "%.1fm", seconds / 60.0);
  else
    std::snprintf(buf, sizeof buf, "%.0fs", seconds);
  return buf;
}

std::string fmt_progress(double sent, double total) {
  std::string out = util::fmt_compact(sent);
  out += "/";
  out += util::fmt_compact(total);
  if (total > 0) {
    out += " (";
    out += util::fmt_percent(sent / total, 0);
    out += ")";
  }
  return out;
}

}  // namespace

std::string render_status_dashboard(const JsonValue& status) {
  std::string out;
  const JsonValue* totals = status.find("totals");
  const JsonValue* shards = status.find("shards");
  const bool complete =
      status.find("complete") != nullptr && status.find("complete")->as_bool();
  out += complete ? "campaign: COMPLETE" : "campaign: running";
  if (totals != nullptr) {
    out += "  sent ";
    out += fmt_progress(num(totals->find("targets_sent")),
                        num(totals->find("targets_total")));
    out += "  resp ";
    out += util::fmt_percent(num(totals->find("response_rate")));
    out += "  eta ";
    out += fmt_eta(num(totals->find("eta_s")));
    const double resident = num(totals->find("resident_bytes"));
    if (resident >= 1.0) {
      out += "  store ";
      out += util::fmt_compact(resident);
      out += "B";
    }
  }
  out += "\n";
  util::TablePrinter table({"stage", "shard", "progress", "resp%", "pps",
                            "backoffs", "undecodable", "eta"});
  if (shards != nullptr && shards->is_array()) {
    for (const auto& row : shards->items()) {
      const JsonValue* stage = row.find("stage");
      table.add_row({
          stage == nullptr ? "?" : stage->as_string(),
          util::fmt_count(static_cast<std::size_t>(num(row.find("shard")))),
          fmt_progress(num(row.find("targets_sent")),
                       num(row.find("targets_total"))),
          util::fmt_percent(num(row.find("response_rate"))),
          util::fmt_double(num(row.find("pacer_rate_pps")), 0),
          util::fmt_count(
              static_cast<std::size_t>(num(row.find("backoffs")))),
          util::fmt_count(
              static_cast<std::size_t>(num(row.find("undecodable")))),
          row.find("complete") != nullptr && row.find("complete")->as_bool()
              ? "done"
              : fmt_eta(num(row.find("eta_s"))),
      });
    }
  }
  out += table.render();
  return out;
}

}  // namespace snmpv3fp::obs
