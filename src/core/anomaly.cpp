#include "core/anomaly.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "snmp/message.hpp"

namespace snmpv3fp::core {

namespace {

using snmp::EngineId;

// All engines observed at a record (first + any within-scan extras).
std::vector<EngineId> engines_of(const scan::ScanRecord& record) {
  std::vector<EngineId> engines;
  if (!record.engine_id.empty()) engines.push_back(record.engine_id);
  for (const auto& extra : record.extra_engines)
    if (!extra.empty()) engines.push_back(extra);
  return engines;
}

// Sends one confirmation burst and returns the distinct engines that
// answered. `responses_seen` reports whether ANY datagram came back (even
// an undecodable or engine-less one) — the retry logic must not confuse
// "silent" with "answered uselessly".
std::set<util::Bytes> reprobe_burst(net::Transport& transport,
                                    const net::Endpoint& source,
                                    const net::IpAddress& target,
                                    const AnomalyOptions& options,
                                    bool& responses_seen) {
  std::set<util::Bytes> engines;
  responses_seen = false;
  std::int32_t id = 21000;
  for (std::size_t i = 0; i < options.reprobe_count; ++i) {
    const std::int32_t msg_id = ++id;
    const std::int32_t request_id = ++id;
    const auto request = snmp::make_discovery_request(msg_id, request_id);
    net::Datagram probe;
    probe.source = source;
    probe.destination = {target, net::kSnmpPort};
    probe.payload = request.encode();
    probe.time = transport.now();
    transport.send(std::move(probe));
    transport.run_until(transport.now() + 500 * util::kMillisecond);
  }
  transport.run_until(transport.now() + options.reprobe_timeout);
  while (auto datagram = transport.receive()) {
    if (datagram->source.address != target) continue;
    responses_seen = true;
    const auto message = snmp::V3Message::decode(datagram->payload);
    if (!message) continue;
    const auto& engine = message.value().usm.authoritative_engine_id;
    if (!engine.empty()) engines.insert(engine.raw());
  }
  return engines;
}

// Re-probes one address, retrying silent bursts while `budget_left`
// allows. Burst spacing grows with each retry (500 ms, 1 s, ...) so a
// rate-limited target gets room to recover before the budget is spent.
std::set<util::Bytes> reprobe(net::Transport& transport,
                              const net::Endpoint& source,
                              const net::IpAddress& target,
                              const AnomalyOptions& options,
                              AnomalyReport& report,
                              std::size_t& budget_left) {
  bool responses_seen = false;
  report.reprobes_sent += options.reprobe_count;
  auto engines =
      reprobe_burst(transport, source, target, options, responses_seen);
  std::size_t attempt = 0;
  while (!responses_seen && budget_left > 0) {
    --budget_left;
    ++report.retries_used;
    ++attempt;
    transport.run_until(transport.now() +
                        static_cast<util::VTime>(attempt) * 500 *
                            util::kMillisecond);
    report.reprobes_sent += options.reprobe_count;
    engines = reprobe_burst(transport, source, target, options,
                            responses_seen);
  }
  return engines;
}

}  // namespace

std::string_view to_string(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kLoadBalancer: return "load balancer";
    case AnomalyKind::kAddressChurn: return "address churn";
    case AnomalyKind::kNat: return "NAT frontend";
    case AnomalyKind::kUnstable: return "unstable";
  }
  return "?";
}

std::size_t AnomalyReport::count(AnomalyKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(anomalies.begin(), anomalies.end(),
                    [&](const Anomaly& a) { return a.kind == kind; }));
}

AnomalyReport classify_anomalies(const scan::ScanResult& scan1,
                                 const scan::ScanResult& scan2,
                                 net::Transport& transport,
                                 const net::Endpoint& prober_source,
                                 const net::AsTable& as_table,
                                 const AnomalyOptions& options) {
  AnomalyReport report;
  std::size_t budget_left = options.retry_budget;
  // Both scans are materialized once up front: the classifier reprobes a
  // handful of anomalous addresses, so it only runs at scales where the
  // copy is cheap.
  const std::vector<scan::ScanRecord> records1 = scan1.materialize_records();
  const std::vector<scan::ScanRecord> records2 = scan2.materialize_records();
  std::unordered_map<net::IpAddress, std::size_t> index2;
  index2.reserve(records2.size());
  for (std::size_t i = 0; i < records2.size(); ++i)
    index2.emplace(records2[i].target, i);

  // Engine -> addresses index of scan 2, for the churn relocation check.
  std::map<util::Bytes, std::vector<net::IpAddress>> engine_locations2;
  for (const auto& record : records2)
    if (!record.engine_id.empty())
      engine_locations2[record.engine_id.raw()].push_back(record.target);

  for (const auto& record1 : records1) {
    const auto it2 = index2.find(record1.target);
    if (it2 == index2.end()) continue;  // one-scan-only: not classifiable
    const auto& record2 = records2[it2->second];

    // Collect every engine seen at this address across both scans.
    std::set<util::Bytes> engines;
    for (const auto& e : engines_of(record1)) engines.insert(e.raw());
    for (const auto& e : engines_of(record2)) engines.insert(e.raw());
    if (engines.size() <= 1) continue;  // stable identity: not anomalous

    Anomaly anomaly;
    anomaly.address = record1.target;
    for (const auto& raw : engines) anomaly.engines.emplace_back(raw);

    // Active confirmation: a burst of probes separates a rotating VIP from
    // a one-time identity change.
    const auto live = reprobe(transport, prober_source, record1.target,
                              options, report, budget_left);
    if (live.size() >= options.min_lb_engines) {
      anomaly.kind = AnomalyKind::kLoadBalancer;
    } else if (!record1.engine_id.empty() && !record2.engine_id.empty() &&
               record1.engine_id != record2.engine_id) {
      // Did the scan-1 engine move to a different address by scan 2?
      const auto moved = engine_locations2.find(record1.engine_id.raw());
      const bool relocated =
          moved != engine_locations2.end() &&
          std::any_of(moved->second.begin(), moved->second.end(),
                      [&](const net::IpAddress& a) {
                        return !(a == record1.target);
                      });
      anomaly.kind = relocated ? AnomalyKind::kAddressChurn
                               : AnomalyKind::kUnstable;
    } else {
      anomaly.kind = AnomalyKind::kUnstable;
    }
    report.anomalies.push_back(std::move(anomaly));
  }

  // NAT frontends: a *stable* engine identity (same boots, close last
  // reboot) answering from addresses in several ASes.
  std::map<util::Bytes, std::vector<const scan::ScanRecord*>> by_engine;
  for (const auto& record : records1)
    if (!record.engine_id.empty() && record.extra_engines.empty())
      by_engine[record.engine_id.raw()].push_back(&record);
  for (const auto& [raw, records] : by_engine) {
    if (records.size() < 2) continue;
    std::set<std::uint32_t> ases;
    bool identity_consistent = true;
    for (const auto* record : records) {
      if (record->engine_boots != records.front()->engine_boots ||
          std::abs(util::to_seconds(record->last_reboot() -
                                    records.front()->last_reboot())) >
              options.reboot_window_seconds) {
        identity_consistent = false;
        break;
      }
      if (const auto info = as_table.lookup(record->target))
        ases.insert(info->asn);
    }
    if (!identity_consistent || ases.size() < options.min_nat_ases) continue;
    for (const auto* record : records) {
      Anomaly anomaly;
      anomaly.address = record->target;
      anomaly.kind = AnomalyKind::kNat;
      anomaly.engines.emplace_back(raw);
      report.anomalies.push_back(std::move(anomaly));
    }
  }
  return report;
}

}  // namespace snmpv3fp::core
