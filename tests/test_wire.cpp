// The wire fast path's two contracts (src/wire):
//  1. ProbeTemplate::stamp and encode_report_into are byte-identical to the
//     full codec's encode for every input they accept.
//  2. FastReportParser accepts a subset of V3Message::decode with equal
//     fields — fast-accept implies full-accept, never the other way round
//     ("the fast path and the full codec must never disagree"), fuzzed over
//     a 10k+ mutation corpus.
// Plus the end-to-end consequences: a clean campaign never falls back, and
// the pipeline is bit-identical with the fast path on or off.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "result_equal.hpp"
#include "core/pipeline.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"
#include "sim/agent.hpp"
#include "sim/fabric.hpp"
#include "sim/faults.hpp"
#include "snmp/message.hpp"
#include "topo/generator.hpp"
#include "util/rng.hpp"
#include "wire/probe_template.hpp"
#include "wire/report_codec.hpp"

namespace snmpv3fp {
namespace {

using result_equal::expect_same_run;

using snmp::EngineId;
using snmp::V3Message;
using util::Bytes;
using util::ByteView;

// ---------------------------------------------------------------------------
// ProbeTemplate: stamped bytes == full encode
// ---------------------------------------------------------------------------

TEST(WireTemplate, BuildsValidSixtyByteTemplate) {
  const wire::ProbeTemplate tmpl;
  ASSERT_TRUE(tmpl.valid());
  EXPECT_EQ(tmpl.size(), 60u);  // the paper's discovery payload size
  EXPECT_NE(tmpl.msg_id_offset(), tmpl.request_id_offset());
}

TEST(WireTemplate, StampMatchesFullEncodeAcrossIdRange) {
  const wire::ProbeTemplate tmpl;
  ASSERT_TRUE(tmpl.valid());
  Bytes stamped;
  util::Rng rng(7);
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs = {
      {wire::kMinTwoByteId, wire::kMinTwoByteId},
      {wire::kMinTwoByteId, wire::kMaxTwoByteId},
      {wire::kMaxTwoByteId, wire::kMinTwoByteId},
      {wire::kMaxTwoByteId, wire::kMaxTwoByteId},
      {0x1234, 0x1234},  // the template's own reference ids
      {0x7fff, 0x0080},
  };
  for (int i = 0; i < 500; ++i)
    pairs.emplace_back(
        static_cast<std::int32_t>(
            wire::kMinTwoByteId +
            rng.next_below(wire::kMaxTwoByteId - wire::kMinTwoByteId + 1)),
        static_cast<std::int32_t>(
            wire::kMinTwoByteId +
            rng.next_below(wire::kMaxTwoByteId - wire::kMinTwoByteId + 1)));
  for (const auto& [msg_id, request_id] : pairs) {
    ASSERT_TRUE(tmpl.stamp(msg_id, request_id, stamped));
    const Bytes full =
        snmp::make_discovery_request(msg_id, request_id).encode();
    ASSERT_EQ(stamped, full) << "msg_id=" << msg_id
                             << " request_id=" << request_id;
  }
}

TEST(WireTemplate, RejectsIdsOutsideTwoByteRange) {
  const wire::ProbeTemplate tmpl;
  Bytes out;
  EXPECT_FALSE(tmpl.stamp(wire::kMinTwoByteId - 1, 1000, out));
  EXPECT_FALSE(tmpl.stamp(1000, wire::kMinTwoByteId - 1, out));
  EXPECT_FALSE(tmpl.stamp(wire::kMaxTwoByteId + 1, 1000, out));
  EXPECT_FALSE(tmpl.stamp(1000, wire::kMaxTwoByteId + 1, out));
  EXPECT_FALSE(tmpl.stamp(-1, -1, out));
}

TEST(WireTemplate, StampReusesBufferCapacity) {
  const wire::ProbeTemplate tmpl;
  Bytes out;
  ASSERT_TRUE(tmpl.stamp(1000, 2000, out));
  const auto* data = out.data();
  const auto capacity = out.capacity();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tmpl.stamp(1000 + i, 2000 + i, out));
    EXPECT_EQ(out.data(), data);          // no reallocation
    EXPECT_EQ(out.capacity(), capacity);  // no growth
  }
}

// ---------------------------------------------------------------------------
// FastReportParser: field equality with the full decoder
// ---------------------------------------------------------------------------

void expect_fields_match(const wire::V3Fields& fast, const V3Message& full) {
  EXPECT_EQ(fast.msg_id, full.header.msg_id);
  EXPECT_EQ(fast.msg_flags, full.header.msg_flags);
  EXPECT_TRUE(util::equal(fast.engine_id,
                          ByteView(full.usm.authoritative_engine_id.raw())));
  EXPECT_EQ(fast.engine_boots, full.usm.engine_boots);
  EXPECT_EQ(fast.engine_time, full.usm.engine_time);
  EXPECT_EQ(std::string(fast.user_name.begin(), fast.user_name.end()),
            full.usm.user_name);
  EXPECT_EQ(fast.pdu_tag,
            0xa0 | static_cast<std::uint8_t>(full.scoped_pdu.pdu.type));
  EXPECT_EQ(fast.request_id, full.scoped_pdu.pdu.request_id);
}

std::vector<EngineId> engine_zoo() {
  util::Rng rng(13);
  std::vector<EngineId> zoo = {
      EngineId(),  // the empty-engine-ID bug
      EngineId::make_mac(9, net::MacAddress::from_oui(0x00000c, 0x31db80)),
      EngineId::make_ipv4(2636, net::Ipv4(198, 51, 100, 7)),
      EngineId::make_text(8072, "router-7.example"),
      EngineId::make_text(8072, "core-router-17.example.net"),
      EngineId::make_netsnmp(0x1122334455667788ull),
      EngineId::make_nonconforming(Bytes{0x01, 0x02, 0x03}),
  };
  // Arbitrary raw engine IDs: every length 1..36 (nonconforming lengths
  // included — the decoder does not length-check, so neither may we).
  for (std::size_t len = 1; len <= 36; ++len) {
    Bytes raw(len);
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng.next());
    zoo.emplace_back(std::move(raw));
  }
  return zoo;
}

TEST(WireFastParse, DiscoveryRequestFieldsMatchFullDecode) {
  const Bytes payload = snmp::make_discovery_request(1000, 2000).encode();
  wire::V3Fields fast;
  ASSERT_TRUE(wire::parse_v3_fast(payload, fast));
  const auto full = V3Message::decode(payload);
  ASSERT_TRUE(full.ok());
  expect_fields_match(fast, full.value());
  EXPECT_TRUE(fast.engine_id.empty());
  EXPECT_EQ(fast.msg_id, 1000);
  EXPECT_EQ(fast.request_id, 2000);
}

TEST(WireFastParse, ReportFieldsMatchFullDecodeAcrossEngineFormats) {
  const auto request = snmp::make_discovery_request(300, 400);
  const std::uint32_t extremes[] = {0u, 1u, 0x7fffffffu, 0x80000000u,
                                    0xffffffffu};
  for (const auto& engine : engine_zoo()) {
    for (const std::uint32_t boots : extremes) {
      for (const std::uint32_t time : extremes) {
        for (const auto* oid : {&snmp::kOidUsmStatsUnknownEngineIds,
                                &snmp::kOidUsmStatsUnknownUserNames}) {
          const Bytes payload =
              snmp::make_discovery_report(request, engine, boots, time,
                                          0xdeadbeefu, *oid)
                  .encode();
          wire::V3Fields fast;
          ASSERT_TRUE(wire::parse_v3_fast(payload, fast))
              << "engine len=" << engine.raw().size() << " boots=" << boots
              << " time=" << time;
          const auto full = V3Message::decode(payload);
          ASSERT_TRUE(full.ok());
          expect_fields_match(fast, full.value());
          EXPECT_EQ(fast.engine_boots, boots);
          EXPECT_EQ(fast.engine_time, time);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential fuzz: fast-accept implies full-accept with equal fields
// ---------------------------------------------------------------------------

TEST(WireFastParse, DifferentialFuzzNeverDisagreesWithFullDecoder) {
  util::Rng rng(20210413);
  // Seed corpus: the payloads the census actually exchanges.
  std::vector<Bytes> seeds;
  seeds.push_back(snmp::make_discovery_request(1000, 2000).encode());
  const auto request = snmp::make_discovery_request(555, 666);
  for (const auto& engine : engine_zoo())
    seeds.push_back(snmp::make_discovery_report(request, engine, 5, 86400,
                                                42)
                        .encode());

  std::size_t fast_accepts = 0;
  std::size_t checked = 0;
  const auto check = [&](ByteView payload) {
    ++checked;
    wire::V3Fields fast;
    bool fast_ok = false;
    EXPECT_NO_THROW(fast_ok = wire::parse_v3_fast(payload, fast));
    const auto full = V3Message::decode(payload);
    if (fast_ok) {
      ++fast_accepts;
      // The invariant: whatever the fast path accepts, the full decoder
      // accepts with the same fields.
      ASSERT_TRUE(full.ok())
          << "fast parser accepted a payload the full decoder rejects";
      expect_fields_match(fast, full.value());
    }
  };

  for (const auto& seed : seeds) check(seed);

  // Structured mutations: every fault kind over every seed, repeatedly.
  constexpr int kRoundsPerKind = 40;
  for (const auto& seed : seeds) {
    for (std::size_t kind = 0; kind < sim::kFaultKindCount; ++kind)
      for (int round = 0; round < kRoundsPerKind; ++round)
        check(sim::apply_fault(seed, static_cast<sim::FaultKind>(kind), rng));
    // Every truncation length (the off-by-one hunting ground).
    for (std::size_t len = 0; len <= seed.size(); ++len)
      check(ByteView(seed).subspan(0, len));
    // Single-byte patches at every offset: each one hits a different
    // structural field (tag, length, content) of the message.
    Bytes patched = seed;
    for (std::size_t i = 0; i < patched.size(); ++i) {
      const auto saved = patched[i];
      patched[i] = static_cast<std::uint8_t>(rng.next());
      check(patched);
      patched[i] = saved;
    }
  }
  // Pure garbage of assorted sizes.
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage(rng.next_below(120));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    check(garbage);
  }

  EXPECT_GE(checked, 10000u) << "fuzz corpus shrank below the 10k floor";
  // Sanity: the corpus exercises the accept path too (all seeds, plus any
  // mutation that happens to stay well-formed).
  EXPECT_GE(fast_accepts, seeds.size());
}

// ---------------------------------------------------------------------------
// encode_report_into: byte-identical to the message-tree encoder
// ---------------------------------------------------------------------------

TEST(WireReportWriter, MatchesMessageEncode) {
  util::Rng rng(99);
  Bytes direct;
  const std::int32_t ids[] = {0, 1, 127, 128, 32767, 65536, 0x7fffffff,
                              -1, -32768};
  for (const auto& engine : engine_zoo()) {
    for (const std::int32_t msg_id : ids) {
      for (const std::int32_t request_id : {ids[rng.next_below(9)]}) {
        for (const auto* oid : {&snmp::kOidUsmStatsUnknownEngineIds,
                                &snmp::kOidUsmStatsUnknownUserNames}) {
          const std::uint32_t boots = static_cast<std::uint32_t>(rng.next());
          const std::uint32_t time = static_cast<std::uint32_t>(rng.next());
          const std::uint32_t counter =
              static_cast<std::uint32_t>(rng.next());
          const auto request =
              snmp::make_discovery_request(msg_id, request_id);
          const Bytes full = snmp::make_discovery_report(request, engine,
                                                         boots, time,
                                                         counter, *oid)
                                 .encode();
          wire::encode_report_into(direct, msg_id, request_id, engine.raw(),
                                   boots, time, counter, *oid);
          ASSERT_EQ(direct, full)
              << "engine len=" << engine.raw().size() << " msg_id=" << msg_id
              << " request_id=" << request_id;
        }
      }
    }
  }
}

TEST(WireReportWriter, ReusesBufferCapacity) {
  Bytes out;
  const EngineId engine =
      EngineId::make_mac(9, net::MacAddress::from_oui(0x00000c, 0x31db80));
  wire::encode_report_into(out, 1000, 2000, engine.raw(), 5, 86400, 42,
                           snmp::kOidUsmStatsUnknownEngineIds);
  const auto* data = out.data();
  for (int i = 0; i < 100; ++i) {
    wire::encode_report_into(out, 1000 + i, 2000 + i, engine.raw(), 5,
                             86400u + i, 42, snmp::kOidUsmStatsUnknownEngineIds);
    EXPECT_EQ(out.data(), data);  // same allocation every time
  }
}

// ---------------------------------------------------------------------------
// Transport view API: send_view/receive_view equal send/receive
// ---------------------------------------------------------------------------

TEST(WireTransport, FabricSendViewMatchesSend) {
  const auto world =
      topo::generate_world(topo::WorldConfig::tiny());
  sim::FabricConfig config;
  config.seed = 5;
  sim::Fabric by_send(world, config);
  sim::Fabric by_view(world, config);
  const net::Endpoint prober{net::Ipv4(198, 51, 100, 7), 54321};

  // Probe every v4 address in the world both ways.
  const auto addresses = world.addresses(net::Family::kIpv4);
  const wire::ProbeTemplate tmpl;
  Bytes payload;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    const std::int32_t id =
        static_cast<std::int32_t>(1000 + (i % 30000));
    ASSERT_TRUE(tmpl.stamp(id, id, payload));
    const net::Endpoint target{addresses[i], net::kSnmpPort};
    net::Datagram datagram;
    datagram.source = prober;
    datagram.destination = target;
    datagram.payload = payload;
    datagram.time = by_send.now();
    by_send.send(std::move(datagram));
    by_view.send_view(prober, target, payload, by_view.now());
  }
  by_send.run_until(10 * util::kSecond);
  by_view.run_until(10 * util::kSecond);
  EXPECT_EQ(by_send.stats(), by_view.stats());

  // Same responses in the same order, whichever receive API reads them.
  while (true) {
    auto full = by_send.receive();
    auto view = by_view.receive_view();
    ASSERT_EQ(full.has_value(), view.has_value());
    if (!full.has_value()) break;
    EXPECT_EQ(full->source, view->source);
    EXPECT_EQ(full->time, view->time);
    EXPECT_TRUE(util::equal(ByteView(full->payload), view->payload));
  }
}

// ---------------------------------------------------------------------------
// Campaign: a clean corpus never touches the fallback decoder
// ---------------------------------------------------------------------------

TEST(WireCampaign, CleanCampaignHasZeroFallbacks) {
  auto world = topo::generate_world(topo::WorldConfig::tiny());
  obs::RunObserver observer;
  scan::CampaignOptions options;
  options.obs.observer = &observer;
  const auto pair = scan::run_two_scan_campaign(world, options);
  ASSERT_GT(pair.scan1.responsive(), 0u);

  std::uint64_t fast_parses = 0, fallbacks = 0, stamped = 0, full_encodes = 0;
  for (const auto& row : observer.metrics().snapshot().counters) {
    if (row.name.ends_with(".wire.fast_parses")) fast_parses += row.value;
    if (row.name.ends_with(".wire.parse_fallbacks")) fallbacks += row.value;
    if (row.name.ends_with(".wire.stamped_probes")) stamped += row.value;
    if (row.name.ends_with(".wire.full_encodes")) full_encodes += row.value;
  }
  // Every response the simulated agents emit is a well-formed REPORT: the
  // fast parser must take all of them. A nonzero fallback count means its
  // accept set regressed.
  EXPECT_GT(fast_parses, 0u);
  EXPECT_EQ(fallbacks, 0u);
  // Every probe id fits two bytes: all probes are template-stamped.
  EXPECT_GT(stamped, 0u);
  EXPECT_EQ(full_encodes, 0u);
}

// ---------------------------------------------------------------------------
// Pipeline: bit-identical with the fast path on or off, at any threads
// ---------------------------------------------------------------------------

topo::WorldConfig mid_size_world() {
  topo::WorldConfig config = topo::WorldConfig::tiny();
  config.seed = 11;
  config.router_scale = 120.0;
  config.mega_scale = 120.0;
  config.device_scale = 1200.0;
  config.tail_as_count = 80;
  return config;
}

core::PipelineResult run_pipeline(bool wire_fast_path, std::size_t threads) {
  core::PipelineOptions options;
  options.world = mid_size_world();
  options.parallel.threads = threads;
  options.wire_fast_path = wire_fast_path;
  return core::run_full_pipeline(options);
}

void expect_identical(const core::PipelineResult& a,
                      const core::PipelineResult& b) {
  expect_same_run(a, b);
  // Full data-plane accounting must agree: the fast paths feed identical
  // bytes through identical RNG-draw sequences.
  EXPECT_EQ(a.v4_campaign.fabric_stats, b.v4_campaign.fabric_stats);
  EXPECT_EQ(a.v6_campaign.fabric_stats, b.v6_campaign.fabric_stats);
}

TEST(WirePipeline, BitIdenticalWithFastPathOnOrOffAcrossThreadCounts) {
  const auto slow_path = run_pipeline(false, 1);
  expect_identical(slow_path, run_pipeline(true, 1));
  expect_identical(slow_path, run_pipeline(true, 2));
  expect_identical(slow_path, run_pipeline(true, 8));
}

}  // namespace
}  // namespace snmpv3fp
