// AF_PACKET ring receive tests (net/packet_ring.hpp).
//
// Five layers, lowest first:
//  1. The link-layer parser over a hostile corpus — pure function, always
//     runs: good Ethernet/VLAN/QinQ/SLL/IPv6+extension frames parse to the
//     exact payload bytes; every truncation, fragment, unknown protocol
//     and bad-length shape fails closed.
//  2. The receive errno taxonomy and its EINTR contract: an interrupting
//     timer signal retries the wait instead of surfacing as an error —
//     on a blocking UdpSocket::receive and through a full engine drain.
//  3. PacketRingReceiver over loopback (needs CAP_NET_RAW, visible skip
//     otherwise): the ring yields a byte-identical payload set to what
//     the UDP socket itself reads.
//  4. PACKET_FANOUT_HASH steering: every flow lands on exactly one of the
//     group's rings.
//  5. The tentpole contract: the full pipeline probing through ring
//     receive is bit-identical to the sim-fabric run at 1/2/8 threads.

#include <gtest/gtest.h>

#include <sys/time.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "result_equal.hpp"
#include "core/pipeline.hpp"
#include "net/batched_udp.hpp"
#include "net/packet_ring.hpp"
#include "net/udp_socket.hpp"
#include "topo/generator.hpp"

namespace snmpv3fp {
namespace {

using result_equal::expect_same_run;

using Bytes = std::vector<std::uint8_t>;

// ---------------------------------------------------------------------------
// Frame builders for the parser corpus
// ---------------------------------------------------------------------------

void put16(Bytes& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v & 0xff));
}

Bytes eth_header(std::uint16_t ethertype) {
  Bytes b(12, 0x02);  // dst/src MACs — the parser never reads them
  put16(b, ethertype);
  return b;
}

Bytes sll_header(std::uint16_t ethertype) {
  Bytes b(14, 0x00);  // pkttype/hatype/halen/addr — unread
  put16(b, ethertype);
  return b;
}

Bytes udp_header(std::uint16_t sport, std::uint16_t dport,
                 std::size_t payload_len, int len_override = -1) {
  Bytes b;
  put16(b, sport);
  put16(b, dport);
  put16(b, len_override >= 0 ? static_cast<std::uint16_t>(len_override)
                             : static_cast<std::uint16_t>(8 + payload_len));
  put16(b, 0);  // checksum: unvalidated (loopback offloads it anyway)
  return b;
}

struct V4Opts {
  std::uint8_t proto = 17;
  std::uint16_t frag = 0;       // flags+offset field, host order
  std::uint8_t ihl_words = 5;
  int total_len_override = -1;  // -1: computed
  int udp_len_override = -1;
};

Bytes ipv4_udp(const Bytes& payload, std::uint16_t sport, std::uint16_t dport,
               const V4Opts& o = {}) {
  const std::size_t ihl = o.ihl_words * std::size_t{4};
  Bytes b;
  b.push_back(static_cast<std::uint8_t>(0x40 | o.ihl_words));
  b.push_back(0);  // TOS
  put16(b, o.total_len_override >= 0
               ? static_cast<std::uint16_t>(o.total_len_override)
               : static_cast<std::uint16_t>(ihl + 8 + payload.size()));
  put16(b, 0x1234);  // id
  put16(b, o.frag);
  b.push_back(64);       // TTL
  b.push_back(o.proto);  // protocol
  put16(b, 0);           // header checksum: unvalidated
  for (std::uint8_t octet : {10, 1, 2, 3}) b.push_back(octet);  // src
  for (std::uint8_t octet : {10, 9, 8, 7}) b.push_back(octet);  // dst
  b.resize(ihl, 0);  // options padding when ihl_words > 5
  const Bytes udp = udp_header(sport, dport, payload.size(),
                               o.udp_len_override);
  b.insert(b.end(), udp.begin(), udp.end());
  b.insert(b.end(), payload.begin(), payload.end());
  return b;
}

struct V6Opts {
  std::uint8_t first_next = 17;  // next-header of the fixed header
  Bytes ext;                     // pre-built extension chain
  int payload_len_override = -1;
  int udp_len_override = -1;
};

Bytes ipv6_udp(const Bytes& payload, std::uint16_t sport, std::uint16_t dport,
               const V6Opts& o = {}) {
  Bytes b;
  b.push_back(0x60);
  b.push_back(0);
  put16(b, 0);  // flow label low bits
  put16(b, o.payload_len_override >= 0
               ? static_cast<std::uint16_t>(o.payload_len_override)
               : static_cast<std::uint16_t>(o.ext.size() + 8 +
                                            payload.size()));
  b.push_back(o.first_next);
  b.push_back(64);  // hop limit
  for (int i = 0; i < 16; ++i)
    b.push_back(static_cast<std::uint8_t>(0x20 + i));  // src
  for (int i = 0; i < 16; ++i)
    b.push_back(static_cast<std::uint8_t>(0x30 + i));  // dst
  b.insert(b.end(), o.ext.begin(), o.ext.end());
  const Bytes udp = udp_header(sport, dport, payload.size(),
                               o.udp_len_override);
  b.insert(b.end(), udp.begin(), udp.end());
  b.insert(b.end(), payload.begin(), payload.end());
  return b;
}

// Generic 8-byte-unit extension header (hop-by-hop / routing / dest-opts).
Bytes ext_generic(std::uint8_t next, std::uint8_t len_units = 0) {
  Bytes b((std::size_t{len_units} + 1) * 8, 0);
  b[0] = next;
  b[1] = len_units;
  return b;
}

Bytes ext_fragment(std::uint8_t next, std::uint16_t frag_field) {
  Bytes b{next, 0};
  put16(b, frag_field);
  put16(b, 0);  // identification
  put16(b, 0);
  return b;
}

Bytes vlan_tag(std::uint16_t inner_ethertype) {
  Bytes b;
  put16(b, 0x0042);  // PCP/DEI/VID — unread
  put16(b, inner_ethertype);
  return b;
}

Bytes cat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

util::ByteView view(const Bytes& b) { return {b.data(), b.size()}; }

Bytes probe_payload() { return Bytes{0xde, 0xad, 0xbe, 0xef, 0x01}; }

// ---------------------------------------------------------------------------
// Parser corpus: well-formed frames
// ---------------------------------------------------------------------------

TEST(LinkParser, PlainEthernetIpv4UdpYieldsTheExactPayload) {
  const Bytes payload = probe_payload();
  const Bytes frame =
      cat({eth_header(0x0800), ipv4_udp(payload, 40001, 161)});
  net::RingFrame out;
  ASSERT_TRUE(net::parse_link_frame(view(frame), net::LinkType::kEthernet,
                                    out));
  EXPECT_EQ(Bytes(out.payload.begin(), out.payload.end()), payload);
  EXPECT_EQ(out.source.port, 40001);
  EXPECT_EQ(out.dst_port, 161);
  EXPECT_EQ(out.source.address, net::IpAddress(net::Ipv4(10, 1, 2, 3)));
  EXPECT_FALSE(out.truncated);
}

TEST(LinkParser, Ipv4OptionsShiftTheUdpHeader) {
  const Bytes payload = probe_payload();
  V4Opts opts;
  opts.ihl_words = 7;  // 8 bytes of options
  const Bytes frame =
      cat({eth_header(0x0800), ipv4_udp(payload, 40002, 162, opts)});
  net::RingFrame out;
  ASSERT_TRUE(net::parse_link_frame(view(frame), net::LinkType::kEthernet,
                                    out));
  EXPECT_EQ(Bytes(out.payload.begin(), out.payload.end()), payload);
  EXPECT_EQ(out.dst_port, 162);
}

TEST(LinkParser, SingleAndDoubleVlanTagsAreSkipped) {
  const Bytes payload = probe_payload();
  const Bytes inner = ipv4_udp(payload, 40003, 161);
  const Bytes single =
      cat({eth_header(0x8100), vlan_tag(0x0800), inner});
  const Bytes qinq = cat({eth_header(0x88A8), vlan_tag(0x8100),
                          vlan_tag(0x0800), inner});
  net::RingFrame out;
  ASSERT_TRUE(net::parse_link_frame(view(single), net::LinkType::kEthernet,
                                    out));
  EXPECT_EQ(Bytes(out.payload.begin(), out.payload.end()), payload);
  ASSERT_TRUE(net::parse_link_frame(view(qinq), net::LinkType::kEthernet,
                                    out));
  EXPECT_EQ(Bytes(out.payload.begin(), out.payload.end()), payload);
  // A third stacked tag exceeds the bounded tag walk: fail closed.
  const Bytes triple = cat({eth_header(0x88A8), vlan_tag(0x8100),
                            vlan_tag(0x8100), vlan_tag(0x0800), inner});
  EXPECT_FALSE(net::parse_link_frame(view(triple), net::LinkType::kEthernet,
                                     out));
}

TEST(LinkParser, CookedSllCarriesTheSamePacket) {
  const Bytes payload = probe_payload();
  const Bytes frame =
      cat({sll_header(0x0800), ipv4_udp(payload, 40004, 161)});
  net::RingFrame out;
  ASSERT_TRUE(net::parse_link_frame(view(frame), net::LinkType::kCookedSll,
                                    out));
  EXPECT_EQ(Bytes(out.payload.begin(), out.payload.end()), payload);
  EXPECT_EQ(out.source.port, 40004);
}

TEST(LinkParser, Ipv6PlainAndWithExtensionChain) {
  const Bytes payload = probe_payload();
  const Bytes plain =
      cat({eth_header(0x86DD), ipv6_udp(payload, 40005, 161)});
  net::RingFrame out;
  ASSERT_TRUE(net::parse_link_frame(view(plain), net::LinkType::kEthernet,
                                    out));
  EXPECT_EQ(Bytes(out.payload.begin(), out.payload.end()), payload);
  EXPECT_EQ(out.source.address,
            net::IpAddress(net::Ipv6::from_groups(
                {0x2021, 0x2223, 0x2425, 0x2627, 0x2829, 0x2a2b, 0x2c2d,
                 0x2e2f})));

  // hop-by-hop -> dest-opts -> atomic fragment -> UDP.
  V6Opts opts;
  opts.first_next = 0;  // hop-by-hop
  opts.ext = cat({ext_generic(/*next=*/60, /*len_units=*/1),
                  ext_generic(/*next=*/44), ext_fragment(/*next=*/17, 0)});
  const Bytes chained =
      cat({eth_header(0x86DD), ipv6_udp(payload, 40006, 161, opts)});
  ASSERT_TRUE(net::parse_link_frame(view(chained), net::LinkType::kEthernet,
                                    out));
  EXPECT_EQ(Bytes(out.payload.begin(), out.payload.end()), payload);
  EXPECT_EQ(out.source.port, 40006);
}

TEST(LinkParser, CaptureClippedPayloadDeliversTruncated) {
  Bytes payload(64, 0x7c);
  Bytes frame = cat({eth_header(0x0800), ipv4_udp(payload, 40007, 161)});
  frame.resize(frame.size() - 32);  // snaplen clipped half the payload
  net::RingFrame out;
  ASSERT_TRUE(net::parse_link_frame(view(frame), net::LinkType::kEthernet,
                                    out));
  EXPECT_TRUE(out.truncated);
  EXPECT_EQ(out.payload.size(), 32u);
  EXPECT_EQ(Bytes(out.payload.begin(), out.payload.end()),
            Bytes(32, 0x7c));
}

TEST(LinkParser, PayloadClampsToTheDeclaredUdpLength) {
  // UDP says 8 + 3 but the frame carries 5 payload bytes (e.g. Ethernet
  // minimum-size padding): only the declared 3 are delivered, untruncated.
  const Bytes payload = probe_payload();
  V4Opts opts;
  opts.udp_len_override = 8 + 3;
  const Bytes frame =
      cat({eth_header(0x0800), ipv4_udp(payload, 40008, 161, opts)});
  net::RingFrame out;
  ASSERT_TRUE(net::parse_link_frame(view(frame), net::LinkType::kEthernet,
                                    out));
  EXPECT_FALSE(out.truncated);
  EXPECT_EQ(Bytes(out.payload.begin(), out.payload.end()),
            Bytes(payload.begin(), payload.begin() + 3));
}

// ---------------------------------------------------------------------------
// Parser corpus: hostile frames fail closed
// ---------------------------------------------------------------------------

TEST(LinkParser, TruncationAtEveryLayerIsRejected) {
  const Bytes payload = probe_payload();
  const Bytes good =
      cat({eth_header(0x0800), ipv4_udp(payload, 40009, 161)});
  net::RingFrame out;
  // Chopping anywhere inside the link/IP/UDP headers must reject; inside
  // the payload it truncates but still parses. Headers end at 14+20+8.
  for (std::size_t len = 0; len < 14 + 20 + 8; ++len) {
    SCOPED_TRACE("len=" + std::to_string(len));
    EXPECT_FALSE(net::parse_link_frame({good.data(), len},
                                       net::LinkType::kEthernet, out));
  }
  for (std::size_t len = 14 + 20 + 8; len <= good.size(); ++len) {
    SCOPED_TRACE("len=" + std::to_string(len));
    EXPECT_TRUE(net::parse_link_frame({good.data(), len},
                                      net::LinkType::kEthernet, out));
  }
  // Short SLL header.
  const Bytes sll = cat({sll_header(0x0800), ipv4_udp(payload, 1, 2)});
  EXPECT_FALSE(net::parse_link_frame({sll.data(), 15},
                                     net::LinkType::kCookedSll, out));
}

TEST(LinkParser, NonUdpAndUnknownEthertypesAreRejected) {
  const Bytes payload = probe_payload();
  net::RingFrame out;
  V4Opts tcp;
  tcp.proto = 6;
  EXPECT_FALSE(net::parse_link_frame(
      view(cat({eth_header(0x0800), ipv4_udp(payload, 1, 2, tcp)})),
      net::LinkType::kEthernet, out));
  // ARP ethertype.
  EXPECT_FALSE(net::parse_link_frame(
      view(cat({eth_header(0x0806), ipv4_udp(payload, 1, 2)})),
      net::LinkType::kEthernet, out));
  // IP version nibble that matches neither family.
  Bytes bad_version = cat({eth_header(0x0800), ipv4_udp(payload, 1, 2)});
  bad_version[14] = 0x55;
  EXPECT_FALSE(net::parse_link_frame(view(bad_version),
                                     net::LinkType::kEthernet, out));
}

TEST(LinkParser, FragmentedDatagramsAreRejected) {
  const Bytes payload = probe_payload();
  net::RingFrame out;
  V4Opts more_fragments;
  more_fragments.frag = 0x2000;  // MF set, offset 0
  V4Opts offset;
  offset.frag = 0x0010;  // later fragment
  V4Opts dont_fragment;
  dont_fragment.frag = 0x4000;  // DF alone is not fragmentation
  EXPECT_FALSE(net::parse_link_frame(
      view(cat({eth_header(0x0800),
                ipv4_udp(payload, 1, 2, more_fragments)})),
      net::LinkType::kEthernet, out));
  EXPECT_FALSE(net::parse_link_frame(
      view(cat({eth_header(0x0800), ipv4_udp(payload, 1, 2, offset)})),
      net::LinkType::kEthernet, out));
  EXPECT_TRUE(net::parse_link_frame(
      view(cat({eth_header(0x0800),
                ipv4_udp(payload, 1, 2, dont_fragment)})),
      net::LinkType::kEthernet, out));

  // IPv6 fragment with nonzero offset or MF: rejected; atomic passes
  // (covered in the extension-chain test above).
  V6Opts frag_mf;
  frag_mf.first_next = 44;
  frag_mf.ext = ext_fragment(/*next=*/17, /*frag_field=*/0x0001);  // MF
  EXPECT_FALSE(net::parse_link_frame(
      view(cat({eth_header(0x86DD), ipv6_udp(payload, 1, 2, frag_mf)})),
      net::LinkType::kEthernet, out));
  V6Opts frag_offset;
  frag_offset.first_next = 44;
  frag_offset.ext = ext_fragment(/*next=*/17, /*frag_field=*/0x0008);
  EXPECT_FALSE(net::parse_link_frame(
      view(cat({eth_header(0x86DD),
                ipv6_udp(payload, 1, 2, frag_offset)})),
      net::LinkType::kEthernet, out));
}

TEST(LinkParser, BadLengthFieldsAreRejected) {
  const Bytes payload = probe_payload();
  net::RingFrame out;
  // IHL below the minimum header size.
  Bytes small_ihl = cat({eth_header(0x0800), ipv4_udp(payload, 1, 2)});
  small_ihl[14] = 0x43;  // version 4, IHL 3 words
  EXPECT_FALSE(net::parse_link_frame(view(small_ihl),
                                     net::LinkType::kEthernet, out));
  // IHL pointing past the captured frame.
  Bytes huge_ihl = cat({eth_header(0x0800), ipv4_udp(payload, 1, 2)});
  huge_ihl[14] = 0x4f;  // IHL 15 words = 60 bytes
  EXPECT_FALSE(net::parse_link_frame(view(huge_ihl),
                                     net::LinkType::kEthernet, out));
  // Total length with no room for a UDP header.
  V4Opts tiny_total;
  tiny_total.total_len_override = 20 + 4;
  EXPECT_FALSE(net::parse_link_frame(
      view(cat({eth_header(0x0800),
                ipv4_udp(payload, 1, 2, tiny_total)})),
      net::LinkType::kEthernet, out));
  // UDP length below its own header size.
  V4Opts tiny_udp;
  tiny_udp.udp_len_override = 4;
  EXPECT_FALSE(net::parse_link_frame(
      view(cat({eth_header(0x0800), ipv4_udp(payload, 1, 2, tiny_udp)})),
      net::LinkType::kEthernet, out));
  // IPv6 payload length too small for the UDP header.
  V6Opts tiny_v6;
  tiny_v6.payload_len_override = 4;
  EXPECT_FALSE(net::parse_link_frame(
      view(cat({eth_header(0x86DD), ipv6_udp(payload, 1, 2, tiny_v6)})),
      net::LinkType::kEthernet, out));
  // IPv6 extension chain running past the frame.
  V6Opts runaway;
  runaway.first_next = 0;
  runaway.ext = ext_generic(/*next=*/17, /*len_units=*/0);
  runaway.ext[1] = 200;  // claims 1608 bytes of options
  EXPECT_FALSE(net::parse_link_frame(
      view(cat({eth_header(0x86DD), ipv6_udp(payload, 1, 2, runaway)})),
      net::LinkType::kEthernet, out));
  // Unknown IPv6 extension / next header (ESP, 50): fail closed.
  V6Opts esp;
  esp.first_next = 50;
  EXPECT_FALSE(net::parse_link_frame(
      view(cat({eth_header(0x86DD), ipv6_udp(payload, 1, 2, esp)})),
      net::LinkType::kEthernet, out));
}

TEST(LinkParser, RingEnvOverrideParsesOnlySaneValues) {
  ::setenv("SNMPFP_RING_BLOCKS", "32", 1);
  EXPECT_EQ(net::apply_ring_env({}).block_count, 32u);
  ::setenv("SNMPFP_RING_BLOCKS", "0", 1);
  EXPECT_EQ(net::apply_ring_env({}).block_count,
            net::PacketRingConfig{}.block_count);
  ::setenv("SNMPFP_RING_BLOCKS", "garbage", 1);
  EXPECT_EQ(net::apply_ring_env({}).block_count,
            net::PacketRingConfig{}.block_count);
  ::unsetenv("SNMPFP_RING_BLOCKS");
  EXPECT_EQ(net::apply_ring_env({}).block_count,
            net::PacketRingConfig{}.block_count);
}

// ---------------------------------------------------------------------------
// Receive errno taxonomy + EINTR regression (satellite: latent bug fix)
// ---------------------------------------------------------------------------

TEST(RecvErrnoTaxonomy, ClassifiesTheRecvErrnos) {
  using net::RecvErrnoAction;
  EXPECT_EQ(net::classify_recv_errno(EINTR), RecvErrnoAction::kRetry);
  EXPECT_EQ(net::classify_recv_errno(EAGAIN), RecvErrnoAction::kEmpty);
  EXPECT_EQ(net::classify_recv_errno(EWOULDBLOCK), RecvErrnoAction::kEmpty);
  EXPECT_EQ(net::classify_recv_errno(ECONNREFUSED),
            RecvErrnoAction::kRefused);
  EXPECT_EQ(net::classify_recv_errno(EBADF), RecvErrnoAction::kHard);
  EXPECT_EQ(net::classify_recv_errno(ENOMEM), RecvErrnoAction::kHard);
}

extern "C" void ring_test_noop_handler(int) {}

// Installs a SIGALRM handler without SA_RESTART (so blocking syscalls
// really see EINTR) and arms an ITIMER_REAL; restores both on destruction.
class InterruptingTimer {
 public:
  InterruptingTimer(int initial_ms, int interval_ms) {
    struct sigaction action {};
    action.sa_handler = ring_test_noop_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: the point is to surface EINTR
    sigaction(SIGALRM, &action, &previous_action_);
    itimerval timer{};
    timer.it_value.tv_usec = initial_ms * 1000;
    timer.it_interval.tv_usec = interval_ms * 1000;
    setitimer(ITIMER_REAL, &timer, &previous_timer_);
  }
  ~InterruptingTimer() {
    setitimer(ITIMER_REAL, &previous_timer_, nullptr);
    sigaction(SIGALRM, &previous_action_, nullptr);
  }

 private:
  struct sigaction previous_action_ {};
  itimerval previous_timer_{};
};

TEST(RecvEintr, InterruptedBlockingReceiveTimesOutCleanly) {
  auto socket = net::UdpSocket::open(net::Family::kIpv4);
  if (!socket.ok()) GTEST_SKIP() << "sockets unavailable: " << socket.error();
  const net::Endpoint loopback{net::IpAddress(net::Ipv4(127, 0, 0, 1)), 0};
  ASSERT_TRUE(socket.value().bind_to(loopback).ok());

  // One-shot timer firing mid-wait: before the fix the EINTR surfaced as
  // a poll failure; now the wait re-arms and times out empty.
  InterruptingTimer timer(/*initial_ms=*/10, /*interval_ms=*/0);
  auto received = socket.value().receive(/*timeout_ms=*/60);
  ASSERT_TRUE(received.ok()) << received.error();
  EXPECT_FALSE(received.value().datagram.has_value());
  EXPECT_FALSE(received.value().refused);
}

TEST(RecvEintr, InterruptedEngineDrainDeliversEverythingWithoutErrors) {
  net::EngineConfig config;
  config.clock = net::EngineClock::kWall;
  config.batch_size = 32;
  config.flow_window = 0;
  auto sender = net::BatchedUdpEngine::open(config);
  if (!sender.ok()) GTEST_SKIP() << "sockets unavailable: " << sender.error();
  auto receiver = net::BatchedUdpEngine::open(config);
  ASSERT_TRUE(receiver.ok()) << receiver.error();
  net::BatchedUdpEngine& tx = *sender.value();
  net::BatchedUdpEngine& rx = *receiver.value();

  constexpr std::size_t kCount = 64;
  for (std::size_t i = 0; i < kCount; ++i) {
    auto frame = tx.acquire_send_frame(32);
    std::memset(frame.data(), static_cast<int>(i & 0xff), 32);
    tx.commit_send_frame({}, rx.local_endpoint(), 32, tx.now());
  }
  tx.flush();

  // A fast repeating timer peppers the drain loop with signals. Every
  // datagram is already queued in the kernel, so each interrupted wait
  // finds data on retry — the drain must complete with zero recv_errors.
  std::size_t got = 0;
  {
    InterruptingTimer timer(/*initial_ms=*/2, /*interval_ms=*/2);
    const util::VTime deadline = rx.now() + 2 * util::kSecond;
    while (got < kCount && rx.now() < deadline) {
      rx.run_until(rx.now() + 10 * util::kMillisecond);
      while (rx.receive_view()) ++got;
    }
  }
  EXPECT_EQ(got, kCount);
  EXPECT_EQ(rx.stats().recv_errors, 0u);
}

// ---------------------------------------------------------------------------
// Ring receiver over loopback (CAP_NET_RAW required, visible skip without)
// ---------------------------------------------------------------------------

// One shared probe so every ring test skips with the same message.
bool ring_available(std::string* why) {
  auto probe = net::PacketRingReceiver::open({});
  if (probe.ok()) return true;
  if (why != nullptr) *why = probe.error();
  return false;
}

#define SKIP_WITHOUT_RING()                                        \
  do {                                                             \
    std::string why;                                               \
    if (!ring_available(&why))                                     \
      GTEST_SKIP() << "SKIP (no CAP_NET_RAW): " << why;            \
  } while (0)

TEST(PacketRingReceiver, RingMatchesTheUdpSocketByteForByte) {
  SKIP_WITHOUT_RING();
  auto ring = net::PacketRingReceiver::open({});
  ASSERT_TRUE(ring.ok()) << ring.error();

  const net::Endpoint loopback{net::IpAddress(net::Ipv4(127, 0, 0, 1)), 0};
  auto rx = net::UdpSocket::open(net::Family::kIpv4);
  ASSERT_TRUE(rx.ok());
  ASSERT_TRUE(rx.value().bind_to(loopback).ok());
  auto local = rx.value().local_endpoint();
  ASSERT_TRUE(local.ok());
  const std::uint16_t port = local.value().port;
  auto tx = net::UdpSocket::open(net::Family::kIpv4);
  ASSERT_TRUE(tx.ok());

  constexpr std::size_t kCount = 50;
  std::multiset<std::string> sent;
  for (std::size_t i = 0; i < kCount; ++i) {
    Bytes payload(40 + i % 7, static_cast<std::uint8_t>(i));
    payload[0] = static_cast<std::uint8_t>(i >> 8);
    payload[1] = static_cast<std::uint8_t>(i);
    ASSERT_TRUE(tx.value().send_to(local.value(), view(payload)).ok());
    sent.insert(std::string(payload.begin(), payload.end()));
  }

  // The ring sees all loopback traffic; keep only frames addressed to our
  // receiver port. Loopback delivers each datagram twice (OUTGOING +
  // HOST); next() already skips the outgoing copy.
  std::multiset<std::string> from_ring;
  for (int spins = 0; from_ring.size() < kCount && spins < 400; ++spins) {
    while (const auto frame = ring.value()->next(/*timeout_ms=*/10)) {
      if (frame->dst_port != port) continue;
      EXPECT_FALSE(frame->truncated);
      EXPECT_EQ(frame->source.address,
                net::IpAddress(net::Ipv4(127, 0, 0, 1)));
      from_ring.insert(
          std::string(frame->payload.begin(), frame->payload.end()));
      if (from_ring.size() == kCount) break;
    }
  }
  EXPECT_EQ(from_ring, sent);

  // Differential: the UDP socket read the same byte-identical set.
  std::multiset<std::string> from_socket;
  for (int spins = 0; from_socket.size() < kCount && spins < 400; ++spins) {
    auto received = rx.value().receive(/*timeout_ms=*/10);
    ASSERT_TRUE(received.ok()) << received.error();
    if (!received.value().datagram.has_value()) continue;
    from_socket.insert(
        std::string(received.value().datagram->payload.begin(),
                    received.value().datagram->payload.end()));
  }
  EXPECT_EQ(from_socket, sent);

  const net::RingCounters& counters = ring.value()->counters();
  EXPECT_GE(counters.frames, kCount);
  EXPECT_GT(counters.blocks, 0u);
}

TEST(PacketRingFanout, EveryFlowLandsOnExactlyOneRing) {
  SKIP_WITHOUT_RING();
  constexpr std::size_t kRings = 4;
  std::vector<std::unique_ptr<net::PacketRingReceiver>> rings;
  const int group_id =
      static_cast<int>((::getpid() * 31 + 0x0f0f) & 0xFFFF);
  for (std::size_t i = 0; i < kRings; ++i) {
    auto ring = net::PacketRingReceiver::open({});
    ASSERT_TRUE(ring.ok()) << ring.error();
    auto joined = ring.value()->join_fanout(group_id);
    ASSERT_TRUE(joined.ok()) << joined.error();
    rings.push_back(std::move(ring.value()));
  }

  const net::Endpoint loopback{net::IpAddress(net::Ipv4(127, 0, 0, 1)), 0};
  auto sink = net::UdpSocket::open(net::Family::kIpv4);
  ASSERT_TRUE(sink.ok());
  ASSERT_TRUE(sink.value().bind_to(loopback).ok());
  auto sink_endpoint = sink.value().local_endpoint();
  ASSERT_TRUE(sink_endpoint.ok());
  const std::uint16_t sink_port = sink_endpoint.value().port;

  // Eight flows (distinct source ports), five datagrams each.
  constexpr std::size_t kFlows = 8;
  constexpr std::size_t kPerFlow = 5;
  std::vector<net::UdpSocket> senders;
  std::set<std::uint16_t> flow_ports;
  for (std::size_t f = 0; f < kFlows; ++f) {
    auto tx = net::UdpSocket::open(net::Family::kIpv4);
    ASSERT_TRUE(tx.ok());
    ASSERT_TRUE(tx.value().bind_to(loopback).ok());
    auto bound = tx.value().local_endpoint();
    ASSERT_TRUE(bound.ok());
    flow_ports.insert(bound.value().port);
    senders.push_back(std::move(tx.value()));
  }
  // Every ring also taps other processes' loopback traffic. A ring left
  // undrained fills up, since its blocks retire on a 4 ms timeout however
  // few frames they hold, and the kernel then drops new frames, ours
  // included. So empty every ring right before sending, and drain them
  // round-robin with a per-pass budget, so that no ring waits while
  // another keeps yielding foreign frames.
  for (auto& ring : rings)
    while (ring->next(/*timeout_ms=*/0)) {
    }
  const Bytes payload(48, 0x55);
  for (std::size_t round = 0; round < kPerFlow; ++round)
    for (auto& tx : senders)
      ASSERT_TRUE(tx.send_to(sink_endpoint.value(), view(payload)).ok());

  // flow source port -> set of ring indices it appeared on.
  std::map<std::uint16_t, std::set<std::size_t>> steering;
  std::size_t seen = 0;
  for (int spins = 0; seen < kFlows * kPerFlow && spins < 400; ++spins) {
    for (std::size_t i = 0; i < rings.size(); ++i) {
      for (int n = 0; n < 256; ++n) {
        // Only a pass's first poll waits for a block to retire.
        const auto frame = rings[i]->next(/*timeout_ms=*/n == 0 ? 5 : 0);
        if (!frame) break;
        if (frame->dst_port != sink_port) continue;
        if (flow_ports.count(frame->source.port) == 0) continue;
        steering[frame->source.port].insert(i);
        ++seen;
      }
    }
  }
  EXPECT_EQ(seen, kFlows * kPerFlow);
  ASSERT_EQ(steering.size(), kFlows);
  for (const auto& [flow_port, ring_set] : steering) {
    SCOPED_TRACE("flow source port " + std::to_string(flow_port));
    EXPECT_EQ(ring_set.size(), 1u)
        << "PACKET_FANOUT_HASH split one flow across rings";
  }
}

// ---------------------------------------------------------------------------
// Tentpole contract: pipeline through ring receive == sim fabric, bit for
// bit, at 1/2/8 threads (mirrors test_net_engine's equality harness)
// ---------------------------------------------------------------------------

topo::WorldConfig deterministic_world() {
  topo::WorldConfig config = topo::WorldConfig::tiny();
  config.seed = 17;
  config.future_time_rate = 0.0;
  config.time_jitter_rate = 0.0;
  config.load_balancer_rate = 0.0;
  return config;
}

sim::FabricConfig deterministic_fabric() {
  sim::FabricConfig fabric;
  fabric.probe_loss = 0.0;
  fabric.response_loss = 0.0;
  fabric.min_rtt = 20 * util::kMillisecond;
  fabric.max_rtt = 20 * util::kMillisecond;
  return fabric;
}

enum class Mode { kSim, kNetRecvmmsg, kNetRing };

core::PipelineResult run_equality_pipeline(Mode mode, std::size_t threads) {
  core::PipelineOptions options;
  options.world = deterministic_world();
  options.fabric = deterministic_fabric();
  options.parallel.threads = threads;
  if (mode != Mode::kSim) {
    net::EngineConfig engine;
    engine.clock = net::EngineClock::kVirtual;
    engine.batch_size = 16;
    options.net_engine = engine;
    options.net_rtt = 20 * util::kMillisecond;
    options.net_ring_receive = mode == Mode::kNetRing;
  }
  return core::run_full_pipeline(options);
}

TEST(PacketRingPipeline, BitIdenticalToSimAndRecvmmsgAcrossThreadCounts) {
  {
    net::EngineConfig probe;
    auto available = net::BatchedUdpEngine::open(probe);
    if (!available.ok())
      GTEST_SKIP() << "sockets unavailable: " << available.error();
  }
  const bool have_ring = ring_available(nullptr);
  const core::PipelineResult sim_run = run_equality_pipeline(Mode::kSim, 1);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const core::PipelineResult ring_run =
        run_equality_pipeline(Mode::kNetRing, threads);
    if (!ring_run.v4_campaign.net_error.empty())
      GTEST_SKIP() << "net engine unavailable: "
                   << ring_run.v4_campaign.net_error;
    expect_same_run(sim_run, ring_run);
    EXPECT_GT(ring_run.v4_campaign.net_io.datagrams_sent, 0u);
    if (have_ring) {
      // With CAP_NET_RAW the responses really came off the rings.
      EXPECT_GT(ring_run.v4_campaign.net_io.ring_frames, 0u);
      EXPECT_GT(ring_run.v4_campaign.net_io.ring_blocks, 0u);
    }
  }
  // Ring and recvmmsg receive halves agree bit for bit too.
  const core::PipelineResult mmsg_run =
      run_equality_pipeline(Mode::kNetRecvmmsg, 2);
  if (mmsg_run.v4_campaign.net_error.empty()) {
    expect_same_run(mmsg_run, run_equality_pipeline(Mode::kNetRing, 2));
    EXPECT_EQ(mmsg_run.v4_campaign.net_io.ring_frames, 0u);
  }
}

}  // namespace
}  // namespace snmpv3fp
