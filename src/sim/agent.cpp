#include "sim/agent.hpp"

#include "snmp/usm.hpp"
#include "sim/mib.hpp"
#include "wire/report_codec.hpp"

#include <algorithm>

namespace snmpv3fp::sim {

namespace {

using snmp::EngineId;
using snmp::PduType;
using snmp::V3Message;

// REPORT counters are per-engine statistics; deriving them from the boots
// counter gives stable, plausible-looking values without per-device state.
std::uint32_t report_counter(const topo::Device& device, util::VTime now) {
  return device.engine_boots_at(now) * 7 + (device.index % 131);
}

std::vector<util::Bytes> amplify(util::Bytes payload, int factor) {
  std::vector<util::Bytes> out;
  out.reserve(static_cast<std::size_t>(factor));
  for (int i = 1; i < factor; ++i) out.push_back(payload);
  out.push_back(std::move(payload));
  return out;
}

// An authenticated GET from the configured user with a valid HMAC gets a
// real Response (this is how legitimate management traffic looks — and
// what the offline brute-force example captures).
std::vector<util::Bytes> handle_authenticated_v3(const topo::Device& device,
                                                 const V3Message& request,
                                                 util::Rng& rng,
                                                 const AgentConfig& config) {
  constexpr auto kProto = snmp::AuthProtocol::kHmacSha1_96;
  const topo::UsmUser& user = *device.usm;
  const auto auth_key =
      snmp::derive_localized_key(kProto, user.auth_password, device.engine_id);
  // Authentication covers the message as transmitted (ciphertext included).
  if (!snmp::verify_authentication(kProto, auth_key, request))
    return {};  // wrong digest: usmStatsWrongDigests, no disclosure needed

  // authPriv: decrypt the scoped PDU before processing (RFC 3826).
  const bool priv = (request.header.msg_flags & snmp::kFlagPriv) != 0;
  V3Message plain_request = request;
  util::Bytes priv_key;
  if (priv) {
    if (user.priv_password.empty()) return {};  // user has no priv
    priv_key =
        snmp::derive_privacy_key(kProto, user.priv_password, device.engine_id);
    auto decrypted = snmp::decrypt_scoped_pdu(priv_key, request);
    if (!decrypted) return {};  // wrong privacy key / garbled ciphertext
    plain_request = std::move(decrypted).value();
  }

  V3Message response;
  response.header = plain_request.header;
  response.header.msg_flags = snmp::kFlagAuth;
  response.usm = plain_request.usm;
  response.usm.privacy_parameters.clear();
  response.encrypted_scoped_pdu.reset();
  response.scoped_pdu.context_engine_id = device.engine_id.raw();
  response.scoped_pdu.pdu.type = PduType::kResponse;
  response.scoped_pdu.pdu.request_id = plain_request.scoped_pdu.pdu.request_id;
  for (const auto& binding : plain_request.scoped_pdu.pdu.bindings) {
    snmp::VarBind vb;
    vb.oid = binding.oid;
    vb.value = binding.oid == snmp::kOidSysDescr
                   ? snmp::VarValue::string(config.sys_descr_prefix + " " +
                                            device.vendor->name)
                   : snmp::VarValue::null();
    response.scoped_pdu.pdu.bindings.push_back(std::move(vb));
  }
  if (priv)
    response = snmp::encrypt_scoped_pdu(priv_key, rng.next(),
                                        std::move(response));
  response = snmp::authenticate(kProto, auth_key, std::move(response));
  return {response.encode()};
}

// REPORT generation shared by the full-decode path and the wire fast path:
// engine selection (incl. the VIP/bug behaviours), boots/time, and the
// direct single-pass REPORT writer — byte-identical to
// make_discovery_report(...).encode() (tests/test_wire.cpp), without the
// message-tree build and re-encode per response.
std::vector<util::Bytes> discovery_reports(const topo::Device& device,
                                           std::int32_t msg_id,
                                           std::int32_t request_id,
                                           bool discovery, util::VTime now,
                                           util::Rng& rng) {
  EngineId engine_id =
      device.empty_engine_id_bug ? EngineId() : device.engine_id;
  // Load-balancer VIP: each request lands on one of the backends.
  if (!device.backend_engines.empty() && !device.empty_engine_id_bug) {
    const std::size_t pick =
        rng.next_below(device.backend_engines.size() + 1);
    if (pick > 0) engine_id = device.backend_engines[pick - 1];
  }

  std::uint32_t boots = device.engine_boots_at(now);
  std::uint32_t time = reported_engine_time(device, now, rng);
  if (device.zero_time_bug) {
    boots = 0;
    time = 0;
  }

  // Discovery (empty engine ID) -> usmStatsUnknownEngineIDs.
  // Wrong engine ID or unknown user -> usmStatsUnknownUserNames. Either
  // way the authoritative engine fields are disclosed — the paper's core
  // observation.
  const auto& oid = discovery ? snmp::kOidUsmStatsUnknownEngineIds
                              : snmp::kOidUsmStatsUnknownUserNames;
  util::Bytes report;
  wire::encode_report_into(report, msg_id, request_id, engine_id.raw(), boots,
                           time, report_counter(device, now), oid);
  return amplify(std::move(report), std::max(device.amplification, 1));
}

std::vector<util::Bytes> handle_v3(const topo::Device& device,
                                   const V3Message& request, util::VTime now,
                                   util::Rng& rng,
                                   const AgentConfig& config) {
  if (!device.snmpv3_enabled) return {};

  // Configured-user path: correct engine ID + user + HMAC -> Response.
  if ((request.header.msg_flags & snmp::kFlagAuth) &&
      device.usm != nullptr && !device.usm->name.empty() &&
      request.usm.user_name == device.usm->name &&
      request.usm.authoritative_engine_id == device.engine_id)
    return handle_authenticated_v3(device, request, rng, config);

  // Only reportable requests elicit REPORTs (RFC 3412 §7.1).
  if (!(request.header.msg_flags & snmp::kFlagReportable)) return {};

  return discovery_reports(device, request.header.msg_id,
                           request.scoped_pdu.pdu.request_id,
                           request.usm.authoritative_engine_id.empty(), now,
                           rng);
}

std::vector<util::Bytes> handle_v2c(const topo::Device& device,
                                    const snmp::V2cMessage& request,
                                    util::VTime now, const AgentConfig& config) {
  if (!device.snmpv2_enabled) return {};
  if (request.community != config.community) return {};  // silently dropped
  if (request.pdu.type != PduType::kGetRequest &&
      request.pdu.type != PduType::kGetNextRequest)
    return {};

  const auto mib = build_mib(device, now);
  snmp::V2cMessage response;
  response.community = request.community;
  response.pdu.type = PduType::kResponse;
  response.pdu.request_id = request.pdu.request_id;
  for (const auto& binding : request.pdu.bindings) {
    snmp::VarBind vb;
    if (request.pdu.type == PduType::kGetRequest) {
      vb.oid = binding.oid;
      const auto* entry = mib_get(mib, binding.oid);
      if (entry != nullptr && binding.oid == snmp::kOidSysDescr) {
        // Keep the lab-validation wording configurable.
        vb.value = snmp::VarValue::string(config.sys_descr_prefix + " " +
                                          device.vendor->name);
      } else if (entry != nullptr) {
        vb.value = entry->value;
      } else {
        vb.value = snmp::VarValue::null();  // noSuchObject simplification
      }
    } else {  // GetNext: lexicographic successor, endOfMibView as NULL
      const auto* entry = mib_next(mib, binding.oid);
      if (entry == nullptr) {
        vb.oid = binding.oid;
        vb.value = snmp::VarValue::null();
      } else {
        vb = *entry;
      }
    }
    response.pdu.bindings.push_back(std::move(vb));
  }
  return {response.encode()};
}

}  // namespace

std::uint32_t reported_engine_time(const topo::Device& device, util::VTime now,
                                   util::Rng& rng) {
  if (device.future_time_bug) {
    // Misimplementation: engineTime holds a huge bogus value implying a
    // reboot before 1970 ("engine time in the future" filter, paper §4.4).
    return 0x70000000u + static_cast<std::uint32_t>(rng.next_below(1 << 20));
  }
  double seconds = device.engine_time_at(now);
  if (device.time_jitter_s != 0.0)
    seconds += rng.uniform(-device.time_jitter_s, device.time_jitter_s);
  return seconds <= 0.0 ? 0u : static_cast<std::uint32_t>(seconds);
}

std::vector<util::Bytes> handle_udp(const topo::Device& device,
                                    util::ByteView payload, util::VTime now,
                                    util::Rng& rng, const AgentConfig& config) {
  // Wire fast path: census traffic is overwhelmingly plaintext discovery
  // GETs. One allocation-free pass covers them; anything it rejects —
  // authenticated/encrypted v3, v2c, hostile bytes — takes the original
  // full-decode route. The fast parser accepts a strict subset of
  // V3Message::decode with identical fields (src/wire/report_codec.hpp),
  // so behavior and response bytes are identical either way. Requests
  // carrying the auth flag need the whole message for HMAC verification,
  // hence the full-decode route even when the fast parse succeeds.
  wire::V3Fields fast;
  if (wire::parse_v3_fast(payload, fast) &&
      (fast.msg_flags & snmp::kFlagAuth) == 0) {
    if (!device.snmpv3_enabled) return {};
    // Only reportable requests elicit REPORTs (RFC 3412 §7.1).
    if (!(fast.msg_flags & snmp::kFlagReportable)) return {};
    return discovery_reports(device, fast.msg_id, fast.request_id,
                             fast.engine_id.empty(), now, rng);
  }

  const auto version = snmp::peek_version(payload);
  if (!version) return {};  // not SNMP at all
  if (version.value() == 3) {
    auto request = V3Message::decode(payload);
    if (!request) return {};
    return handle_v3(device, request.value(), now, rng, config);
  }
  if (version.value() == 1) {  // SNMPv2c
    auto request = snmp::V2cMessage::decode(payload);
    if (!request) return {};
    return handle_v2c(device, request.value(), now, config);
  }
  return {};
}

}  // namespace snmpv3fp::sim
