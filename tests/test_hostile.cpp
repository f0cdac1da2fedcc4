// Hostile-input hardening: the decode path must reject corrupted bytes
// without throwing, crashing, or reading out of bounds.
//
// A real Internet-wide scan receives truncated datagrams, middlebox-mangled
// payloads and outright garbage on its source port. Every byte sequence —
// valid, mutated or random — must come back from asn1::ber and
// snmp::message as a clean Result failure, never an exception or UB. The
// whole corpus is generated from fixed seeds, so a crash reproduces
// exactly; scripts/check.sh reruns this suite under ASan+UBSan.
#include <gtest/gtest.h>

#include "result_equal.hpp"
#include "scan/campaign.hpp"
#include "sim/fabric.hpp"
#include "sim/faults.hpp"
#include "snmp/message.hpp"
#include "topo/generator.hpp"
#include "util/parallel.hpp"

namespace snmpv3fp {
namespace {

using result_equal::expect_same_scan;

// Recursively walks every TLV, descending into constructed encodings. The
// reader API itself is the surface under test: any parse error just stops
// the walk.
void walk_tlvs(util::ByteView data, int depth) {
  if (depth > 64) return;  // crafted nesting can be as deep as the payload
  asn1::Reader reader(data);
  while (!reader.at_end()) {
    const auto tlv = reader.read_tlv();
    if (!tlv) return;
    if ((tlv.value().tag & 0x20) != 0)  // constructed: descend
      walk_tlvs(tlv.value().content, depth + 1);
  }
}

// Runs every decoder over one payload. Throwing (or tripping a sanitizer)
// fails the suite; returning a failure Result is the expected outcome.
void decode_all(util::ByteView payload) {
  EXPECT_NO_THROW({
    (void)snmp::V3Message::decode(payload);
    (void)snmp::V2cMessage::decode(payload);
    (void)snmp::peek_version(payload);
    walk_tlvs(payload, 0);
  });
}

// The corpus seeds: one valid message of each shape on the wire.
std::vector<util::Bytes> valid_corpus() {
  std::vector<util::Bytes> corpus;
  const auto request = snmp::make_discovery_request(4242, 4243);
  corpus.push_back(request.encode());

  const snmp::EngineId engine(
      util::Bytes{0x80, 0x00, 0x1f, 0x88, 0x80, 0x01, 0x02, 0x03, 0x04});
  corpus.push_back(
      snmp::make_discovery_report(request, engine, 12, 345678, 9).encode());

  snmp::V2cMessage v2c;
  v2c.community = "public";
  v2c.pdu.type = snmp::PduType::kResponse;
  v2c.pdu.request_id = 77;
  v2c.pdu.bindings.push_back(
      {snmp::kOidSysDescr, snmp::VarValue::string("RouterOS 6.47")});
  corpus.push_back(v2c.encode());
  return corpus;
}

TEST(HostileInput, CorpusRoundTripsBeforeMutation) {
  const auto corpus = valid_corpus();
  ASSERT_EQ(corpus.size(), 3u);
  EXPECT_TRUE(snmp::V3Message::decode(corpus[0]).ok());
  EXPECT_TRUE(snmp::V3Message::decode(corpus[1]).ok());
  EXPECT_TRUE(snmp::V2cMessage::decode(corpus[2]).ok());
}

// The acceptance bar: >= 10k deterministic mutations, zero throws. Each
// iteration derives its RNG from (fault kind, iteration), so a failure
// reproduces from the printed seed alone.
TEST(HostileInput, TenThousandDeterministicMutationsNeverThrow) {
  const auto corpus = valid_corpus();
  constexpr std::size_t kIterationsPerKind = 600;
  std::size_t mutations = 0;
  std::size_t decoded_ok = 0;

  for (std::size_t kind = 0; kind < sim::kFaultKindCount; ++kind) {
    for (std::size_t i = 0; i < kIterationsPerKind; ++i) {
      const std::uint64_t seed = util::hash_combine(0x4057 + kind, i);
      util::Rng rng(seed);
      const auto& base = corpus[i % corpus.size()];
      const auto mutated =
          sim::apply_fault(base, static_cast<sim::FaultKind>(kind), rng);
      SCOPED_TRACE("kind=" + std::string(to_string(
                       static_cast<sim::FaultKind>(kind))) +
                   " seed=" + std::to_string(seed));
      decode_all(mutated);
      decoded_ok += snmp::V3Message::decode(mutated).ok() ? 1 : 0;
      ++mutations;
    }
  }

  // Random-kind mutations on top, mixing faults across the corpus.
  for (std::size_t i = 0; i < 7000; ++i) {
    util::Rng rng(util::hash_combine(0xf472, i));
    const auto& base = corpus[i % corpus.size()];
    const auto mutated = sim::apply_random_fault(base, rng);
    decode_all(mutated);
    decoded_ok += snmp::V3Message::decode(mutated).ok() ? 1 : 0;
    ++mutations;
  }

  EXPECT_GE(mutations, 10000u);
  // Corruption must actually corrupt: the overwhelming majority of
  // mutated payloads fail decode (a bit flip inside a varbind value can
  // legitimately survive).
  EXPECT_LT(decoded_ok, mutations / 4);
}

TEST(HostileInput, PureGarbageNeverThrows) {
  for (std::size_t i = 0; i < 2000; ++i) {
    util::Rng rng(util::hash_combine(0x6a4b, i));
    util::Bytes garbage(rng.next_below(120), 0);
    for (auto& byte : garbage)
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    decode_all(garbage);
    EXPECT_FALSE(snmp::V3Message::decode(garbage).ok() &&
                 garbage.size() < 20);  // nothing that small is a message
  }
}

TEST(HostileInput, EveryTruncationIsRejectedCleanly) {
  for (const auto& payload : valid_corpus()) {
    for (std::size_t len = 0; len < payload.size(); ++len) {
      const util::ByteView prefix(payload.data(), len);
      decode_all(prefix);
      // A strict prefix of a valid message can never decode (BER length
      // fields commit the encoder to the full size).
      EXPECT_FALSE(snmp::V3Message::decode(prefix).ok()) << "len=" << len;
    }
  }
}

TEST(HostileInput, OversizedTlvLengthCannotOverrun) {
  const auto corpus = valid_corpus();
  for (std::size_t i = 0; i < 500; ++i) {
    util::Rng rng(util::hash_combine(0x0e4, i));
    const auto mutated = sim::apply_fault(
        corpus[i % corpus.size()], sim::FaultKind::kOversizedTlv, rng);
    decode_all(mutated);
  }

  // Hand-built pathological case: a SEQUENCE claiming 2^32-ish content.
  const util::Bytes huge{0x30, 0x84, 0xff, 0xff, 0xff, 0xff, 0x02, 0x01};
  decode_all(huge);
  asn1::Reader reader(huge);
  EXPECT_FALSE(reader.read_tlv().ok());
}

TEST(HostileInput, MutationSweepIsDeterministic) {
  const auto corpus = valid_corpus();
  const auto sweep = [&corpus]() {
    std::size_t rejected = 0;
    util::Bytes last;
    for (std::size_t i = 0; i < 500; ++i) {
      util::Rng rng(util::hash_combine(0xd37e, i));
      last = sim::apply_random_fault(corpus[i % corpus.size()], rng);
      rejected += snmp::V3Message::decode(last).ok() ? 0 : 1;
    }
    return std::make_pair(rejected, last);
  };
  const auto first = sweep();
  const auto second = sweep();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// ---- fault injection through the fabric -----------------------------------

TEST(HostileFabric, CorruptedCampaignIsDeterministicAndAccounted) {
  scan::CampaignOptions options;
  options.seed = 31337;
  options.shards = 4;
  options.fabric.faults.probe_corrupt_rate = 0.05;
  options.fabric.faults.response_corrupt_rate = 0.25;

  topo::World world_a = topo::generate_world(topo::WorldConfig::tiny());
  const auto a = scan::run_two_scan_campaign(world_a, options);
  topo::World world_b = topo::generate_world(topo::WorldConfig::tiny());
  options.parallel.threads = 8;  // execution-only: must not change a bit
  const auto b = scan::run_two_scan_campaign(world_b, options);

  // Corruption actually happened and was counted on both sides.
  EXPECT_GT(a.fabric_stats.probes_corrupted, 0u);
  EXPECT_GT(a.fabric_stats.responses_corrupted, 0u);
  EXPECT_GT(a.scan1.undecodable_responses + a.scan2.undecodable_responses,
            0u);

  // The campaign still completes and stays deterministic.
  EXPECT_EQ(a.fabric_stats.probes_corrupted, b.fabric_stats.probes_corrupted);
  EXPECT_EQ(a.fabric_stats.responses_corrupted,
            b.fabric_stats.responses_corrupted);
  EXPECT_EQ(a.scan1.undecodable_responses, b.scan1.undecodable_responses);
  EXPECT_EQ(a.scan2.undecodable_responses, b.scan2.undecodable_responses);
  expect_same_scan(a.scan1, b.scan1);
  expect_same_scan(a.scan2, b.scan2);

  // A corrupted response never becomes a (phantom) record: every record's
  // target is a real device. (Scan 2 records are checked because the
  // campaign leaves the world in the post-churn epoch scan 2 probed.)
  for (const auto& record : a.scan2.materialize_records())
    EXPECT_NE(world_a.device_at(record.target), nullptr);
}

TEST(HostileFabric, ZeroFaultRatesAreBitIdenticalToNoFaultConfig) {
  scan::CampaignOptions options;
  options.seed = 4099;
  topo::World world_a = topo::generate_world(topo::WorldConfig::tiny());
  const auto a = scan::run_two_scan_campaign(world_a, options);

  options.fabric.faults.probe_corrupt_rate = 0.0;  // explicit zeros
  options.fabric.faults.response_corrupt_rate = 0.0;
  topo::World world_b = topo::generate_world(topo::WorldConfig::tiny());
  const auto b = scan::run_two_scan_campaign(world_b, options);

  EXPECT_EQ(a.fabric_stats.probes_corrupted, 0u);
  EXPECT_EQ(b.fabric_stats.probes_corrupted, 0u);
  expect_same_scan(a.scan1, b.scan1);
}

}  // namespace
}  // namespace snmpv3fp
