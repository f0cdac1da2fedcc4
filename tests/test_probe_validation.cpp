// Stateless probe validation: probe ids carry a keyed sequence number
// (scan/probe_ids.hpp), and the prober accepts a REPORT only when its
// echoed ids name a probe already sent and its source is that probe's
// target.
//
// The permutation tests pin the id codec: an exact round trip over more
// than a million sequence numbers and across the kPeriod wrap, every id
// inside the two-byte range, and probes that stay at the paper's 60 bytes.
// The hostile tests wrap the simulated fabric in a transport that injects
// forged REPORTs — random ids from probed targets, a live probe's ids from
// the wrong address, and ids of probes not yet sent — and require that not
// one of them reaches a record, that each lands in its counter, and that
// the records equal a clean run's.
#include <gtest/gtest.h>

#include <deque>
#include <optional>

#include "result_equal.hpp"
#include "scan/probe_ids.hpp"
#include "scan/prober.hpp"
#include "sim/fabric.hpp"
#include "snmp/message.hpp"
#include "topo/generator.hpp"
#include "wire/probe_template.hpp"

namespace snmpv3fp::scan {
namespace {

// ---- the id permutation ---------------------------------------------------

bool two_byte(const ProbeIds::Pair& ids) {
  return ids.msg_id >= wire::kMinTwoByteId &&
         ids.msg_id <= wire::kMaxTwoByteId &&
         ids.request_id >= wire::kMinTwoByteId &&
         ids.request_id <= wire::kMaxTwoByteId;
}

TEST(ProbeIds, RoundTripsOverAMillionSequenceNumbers) {
  const ProbeIds ids(0x5eedf00dULL);
  for (std::uint64_t seq = 0; seq < (1u << 20); ++seq) {
    const auto pair = ids.encode(seq);
    ASSERT_TRUE(two_byte(pair)) << seq;
    const auto residue = ids.decode(pair.msg_id, pair.request_id);
    ASSERT_TRUE(residue.has_value()) << seq;
    ASSERT_EQ(*residue, seq);
    ASSERT_EQ(ProbeIds::latest_sent(*residue, seq + 1), seq);
  }
}

TEST(ProbeIds, RoundTripsAcrossThePeriodWrap) {
  const ProbeIds ids(77);
  constexpr std::uint64_t kSpan = 1u << 16;
  for (std::uint64_t seq = ProbeIds::kPeriod - kSpan;
       seq < ProbeIds::kPeriod + kSpan; ++seq) {
    const auto pair = ids.encode(seq);
    ASSERT_TRUE(two_byte(pair)) << seq;
    const auto residue = ids.decode(pair.msg_id, pair.request_id);
    ASSERT_TRUE(residue.has_value());
    ASSERT_EQ(*residue, seq % ProbeIds::kPeriod);
    // The full sequence number is the latest sent one with that residue.
    ASSERT_EQ(ProbeIds::latest_sent(*residue, seq + 1), seq);
    ASSERT_EQ(ProbeIds::latest_sent(*residue, seq + 1000), seq);
  }
  // Past the wrap, seq and seq + kPeriod share their ids.
  const auto a = ids.encode(5);
  const auto b = ids.encode(5 + ProbeIds::kPeriod);
  EXPECT_EQ(a.msg_id, b.msg_id);
  EXPECT_EQ(a.request_id, b.request_id);
}

TEST(ProbeIds, RejectsIdsOutsideTheRangeAndUnsentResidues) {
  const ProbeIds ids(1);
  EXPECT_FALSE(ids.decode(wire::kMinTwoByteId - 1, 200).has_value());
  EXPECT_FALSE(ids.decode(200, wire::kMaxTwoByteId + 1).has_value());
  EXPECT_FALSE(ids.decode(-5, 0).has_value());
  EXPECT_TRUE(
      ids.decode(wire::kMaxTwoByteId, wire::kMaxTwoByteId).has_value());
  EXPECT_FALSE(ProbeIds::latest_sent(0, 0).has_value());
  EXPECT_FALSE(ProbeIds::latest_sent(9, 9).has_value());
  EXPECT_EQ(ProbeIds::latest_sent(9, 10), 9u);
  EXPECT_EQ(ProbeIds::latest_sent(9, ProbeIds::kPeriod + 9), 9u);
  EXPECT_EQ(ProbeIds::latest_sent(9, ProbeIds::kPeriod + 10),
            ProbeIds::kPeriod + 9);
}

TEST(ProbeIds, KeysGiveDifferentSequences) {
  const ProbeIds a(1), b(2);
  std::size_t same = 0;
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    const auto x = a.encode(seq), y = b.encode(seq);
    same += x.msg_id == y.msg_id && x.request_id == y.request_id;
  }
  EXPECT_LT(same, 5u);
}

TEST(ProbeIds, TemplateStampsSixtyBytePaperProbes) {
  const wire::ProbeTemplate probe;
  ASSERT_TRUE(probe.valid());
  const ProbeIds ids(42);
  util::Bytes stamped;
  for (std::uint64_t seq = 0; seq < 4096; seq += 7) {
    const auto pair = ids.encode(seq);
    ASSERT_TRUE(probe.stamp(pair.msg_id, pair.request_id, stamped)) << seq;
    EXPECT_EQ(stamped.size(), 60u);
    EXPECT_EQ(stamped,
              snmp::make_discovery_request(pair.msg_id, pair.request_id)
                  .encode());
  }
}

// ---- hostile REPORTs ------------------------------------------------------

// Forwards everything to a sim::Fabric and, after every `every`-th probe,
// queues one forged REPORT ahead of the fabric's own responses, cycling
// through the three kinds of traffic validation must refuse.
class ForgingTransport final : public net::Transport {
 public:
  ForgingTransport(sim::Fabric& fabric, std::vector<net::IpAddress> order,
                   std::uint64_t probe_seed, std::size_t every)
      : fabric_(fabric),
        order_(std::move(order)),
        ids_(probe_seed),
        every_(every) {}

  void send(net::Datagram datagram) override {
    forge(datagram.destination.address, datagram.payload);
    fabric_.send(std::move(datagram));
  }
  void send_view(const net::Endpoint& source,
                 const net::Endpoint& destination, util::ByteView payload,
                 util::VTime time) override {
    forge(destination.address, payload);
    fabric_.send_view(source, destination, payload, time);
  }
  std::optional<net::Datagram> receive() override {
    if (!forged_.empty()) {
      net::Datagram datagram = std::move(forged_.front());
      forged_.pop_front();
      return datagram;
    }
    return fabric_.receive();
  }
  std::optional<net::DatagramView> receive_view() override {
    if (forged_.empty()) return fabric_.receive_view();
    return Transport::receive_view();
  }
  util::VTime now() const override { return fabric_.now(); }
  void run_until(util::VTime deadline) override {
    fabric_.run_until(deadline);
  }
  std::uint64_t rate_limit_signals() const override {
    return fabric_.rate_limit_signals();
  }

  std::size_t random_ids = 0;    // (a) random ids from a probed target
  std::size_t wrong_source = 0;  // (b) a live probe's ids, wrong address
  std::size_t unsent = 0;        // (c) ids of a probe not yet sent

 private:
  void forge(const net::IpAddress& target, util::ByteView probe) {
    const std::uint64_t seq = sent_++;
    const net::IpAddress previous = previous_;
    previous_ = target;
    if (sent_ % every_ != 0) return;
    const auto request = snmp::V3Message::decode(probe);
    ASSERT_TRUE(request.ok());
    std::int32_t msg_id = 0, request_id = 0;
    net::IpAddress source;
    switch (kind_++ % 3) {
      case 0:  // arbitrary ids, some outside the two-byte range
        msg_id = static_cast<std::int32_t>(rng_.next_below(65536));
        request_id = static_cast<std::int32_t>(rng_.next_below(65536));
        source = target;
        ++random_ids;
        break;
      case 1:  // the probe just sent, answered by last probe's target
        msg_id = request.value().header.msg_id;
        request_id = request.value().scoped_pdu.pdu.request_id;
        source = previous;
        ++wrong_source;
        break;
      default: {  // a probe three ahead, from its own future target
        const std::uint64_t ahead = seq + 3;
        const auto ids = ids_.encode(ahead);
        msg_id = ids.msg_id;
        request_id = ids.request_id;
        source = order_[ahead % order_.size()];
        ++unsent;
        break;
      }
    }
    const snmp::EngineId engine(
        util::Bytes{0x80, 0x00, 0x1f, 0x88, 0x04, 0xde, 0xad, 0xbe, 0xef});
    net::Datagram forged;
    forged.source = {source, net::kSnmpPort};
    forged.time = fabric_.now();
    forged.payload = snmp::make_discovery_report(
                         snmp::make_discovery_request(msg_id, request_id),
                         engine, 1, 1000, 1)
                         .encode();
    forged_.push_back(std::move(forged));
  }

  sim::Fabric& fabric_;
  std::vector<net::IpAddress> order_;
  ProbeIds ids_;
  std::size_t every_;
  std::uint64_t sent_ = 0;
  std::size_t kind_ = 0;
  net::IpAddress previous_;
  util::Rng rng_{2021};
  std::deque<net::Datagram> forged_;
};

class ProbeValidation : public ::testing::TestWithParam<bool> {
 protected:
  ProbeValidation() : world_(topo::generate_world(topo::WorldConfig::tiny())) {}

  ProbeConfig config() const {
    ProbeConfig config;
    config.seed = 99;
    config.randomize_order = false;  // the forger needs the probe order
    config.wire_fast_path = GetParam();
    return config;
  }

  topo::World world_;
  const net::Endpoint source_{net::Ipv4(198, 51, 100, 7), 4444};
};

TEST_P(ProbeValidation, ForgedReportsNeverBecomeRecords) {
  const auto targets = world_.addresses(net::Family::kIpv4);
  ASSERT_GT(targets.size(), 300u);

  sim::Fabric clean_fabric(world_, sim::FabricConfig{});
  const ScanResult clean =
      Prober(clean_fabric, source_).run(targets, config(), 0);
  ASSERT_GT(clean.responsive(), 0u);
  EXPECT_EQ(clean.unverified_responses, 0u);
  EXPECT_EQ(clean.off_target_responses, 0u);
  EXPECT_EQ(clean.send_ring_overruns, 0u);

  sim::Fabric fabric(world_, sim::FabricConfig{});
  ForgingTransport hostile(fabric, targets, config().seed, 5);
  const ScanResult attacked =
      Prober(hostile, source_).run(targets, config(), 0);
  ASSERT_GT(hostile.random_ids, 0u);
  ASSERT_GT(hostile.wrong_source, 0u);
  ASSERT_GT(hostile.unsent, 0u);

  EXPECT_EQ(attacked.unverified_responses, hostile.random_ids + hostile.unsent);
  EXPECT_EQ(attacked.off_target_responses, hostile.wrong_source);
  EXPECT_EQ(attacked.undecodable_responses, 0u);
  EXPECT_EQ(attacked.send_ring_overruns, 0u);
  // Not one forged REPORT created or touched a record: no forged engine,
  // no extra response count, no record order shift.
  result_equal::expect_same_records(clean.materialize_records(),
                                    attacked.materialize_records());
}

INSTANTIATE_TEST_SUITE_P(WirePath, ProbeValidation, ::testing::Bool(),
                         [](const auto& param_info) {
                           return param_info.param ? "FastParser"
                                                   : "FullCodec";
                         });

}  // namespace
}  // namespace snmpv3fp::scan
