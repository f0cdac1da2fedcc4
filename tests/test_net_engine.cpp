// Real-socket campaign engine tests (net/batched_udp.hpp).
//
// Three layers, lowest first (the wall-clock pacer schedule is unit-tested
// on a fake clock in test_pacer.cpp):
//  1. Wire plumbing: the SimFrame encapsulation codec, the UdpSocket
//     send- and receive-errno taxonomies (EAGAIN/ECONNREFUSED as distinct
//     outcomes), and the EINTR contract: an interrupting timer signal
//     retries the wait instead of surfacing as an error, on a blocking
//     UdpSocket::receive and through a full engine drain.
//  2. BatchedUdpEngine over loopback sockets: batched vs per-datagram
//     delivery, truncation accounting, ICMP refusal surfacing, one port
//     shared by a group, and a linger that counts probes, not frames.
//  3. The pipeline contract: a full pipeline probing through real kernel
//     sockets against a sim::LoopbackReflector produces a PipelineResult
//     bit-identical to the sim-fabric run, at 1/2/8 threads (and as many
//     reflector workers); campaigns against a reflector started directly
//     check its frame kinds and its multi-worker accounting.
//
// Every socket-touching test probes availability first and GTEST_SKIPs
// when the sandbox denies sockets — CI shows the skip, never a silent
// pass.

#include <gtest/gtest.h>

#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <string>
#include <vector>

#include "result_equal.hpp"
#include "core/pipeline.hpp"
#include "net/batched_udp.hpp"
#include "net/udp_socket.hpp"
#include "scan/campaign.hpp"
#include "sim/reflector.hpp"
#include "snmp/message.hpp"
#include "topo/generator.hpp"
#include "topo/world_model.hpp"

namespace snmpv3fp {
namespace {

using result_equal::expect_same_run;

// ---------------------------------------------------------------------------
// SimFrame codec
// ---------------------------------------------------------------------------

TEST(SimFrame, RoundTripsV4AndV6Endpoints) {
  net::SimFrame frame;
  frame.kind = net::SimFrame::kData;
  frame.logical = {net::IpAddress(net::Ipv4(203, 0, 113, 9)), 161};
  frame.time = 1234567890123;
  std::uint8_t wire[net::SimFrame::kWireSize];
  frame.encode(wire);
  const auto back = net::SimFrame::decode({wire, sizeof wire});
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, net::SimFrame::kData);
  EXPECT_EQ(back->logical, frame.logical);
  EXPECT_EQ(back->time, frame.time);

  net::SimFrame v6;
  v6.kind = net::SimFrame::kDrop;
  v6.logical = {net::IpAddress(net::Ipv6::from_groups(
                    {0x2001, 0xdb8, 0, 0, 0, 0, 0, 0x99})),
                54321};
  v6.time = -1;  // negative vtimes survive (signed wire field)
  v6.encode(wire);
  const auto back6 = net::SimFrame::decode({wire, sizeof wire});
  ASSERT_TRUE(back6.has_value());
  EXPECT_EQ(back6->kind, net::SimFrame::kDrop);
  EXPECT_EQ(back6->logical, v6.logical);
  EXPECT_EQ(back6->time, v6.time);

  // A non-final response frame keeps its kind: the engine must not count
  // its probe answered.
  v6.kind = net::SimFrame::kDataMore;
  v6.encode(wire);
  const auto more = net::SimFrame::decode({wire, sizeof wire});
  ASSERT_TRUE(more.has_value());
  EXPECT_EQ(more->kind, net::SimFrame::kDataMore);
  EXPECT_EQ(more->logical, v6.logical);
}

TEST(SimFrame, RejectsShortAndGarbageInput) {
  EXPECT_FALSE(net::SimFrame::decode({}).has_value());
  std::uint8_t short_buf[net::SimFrame::kWireSize - 1] = {};
  EXPECT_FALSE(net::SimFrame::decode({short_buf, sizeof short_buf}));
  std::uint8_t garbage[net::SimFrame::kWireSize];
  std::memset(garbage, 0x5a, sizeof garbage);  // kind 0x5a: not a frame
  EXPECT_FALSE(net::SimFrame::decode({garbage, sizeof garbage}));
  // Kinds next to the three real ones are unknown too.
  net::SimFrame frame;
  frame.logical = {net::IpAddress(net::Ipv4(192, 0, 2, 1)), 161};
  frame.encode(garbage);
  for (const std::uint8_t kind : {0xA6, 0xAA}) {
    garbage[0] = kind;
    EXPECT_FALSE(net::SimFrame::decode({garbage, sizeof garbage}))
        << "kind " << int{kind};
  }
}

// ---------------------------------------------------------------------------
// UdpSocket error taxonomy (satellite 1)
// ---------------------------------------------------------------------------

TEST(UdpSocketTaxonomy, ClassifiesSendErrnos) {
  using net::SendOutcome;
  EXPECT_EQ(net::classify_send_errno(EAGAIN), SendOutcome::kWouldBlock);
  EXPECT_EQ(net::classify_send_errno(EWOULDBLOCK), SendOutcome::kWouldBlock);
  EXPECT_EQ(net::classify_send_errno(ENOBUFS), SendOutcome::kWouldBlock);
  EXPECT_EQ(net::classify_send_errno(ECONNREFUSED), SendOutcome::kRefused);
  EXPECT_FALSE(net::classify_send_errno(EINVAL).has_value());
  EXPECT_FALSE(net::classify_send_errno(EPERM).has_value());
}

TEST(UdpSocketTaxonomy, PortUnreachableSurfacesAsRefused) {
  auto socket = net::UdpSocket::open(net::Family::kIpv4);
  if (!socket.ok()) GTEST_SKIP() << "sockets unavailable: " << socket.error();
  const net::Endpoint loopback{net::IpAddress(net::Ipv4(127, 0, 0, 1)), 0};
  ASSERT_TRUE(socket.value().bind_to(loopback).ok());

  // A freshly bound-then-closed port: nothing listens there.
  net::Endpoint dead;
  {
    auto probe = net::UdpSocket::open(net::Family::kIpv4);
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE(probe.value().bind_to(loopback).ok());
    auto local = probe.value().local_endpoint();
    ASSERT_TRUE(local.ok());
    dead = local.value();
  }
  ASSERT_TRUE(socket.value().connect_to(dead).ok());

  const std::uint8_t payload[] = {0x42};
  bool refused = false;
  for (int attempt = 0; attempt < 5 && !refused; ++attempt) {
    auto sent = socket.value().send_to(dead, {payload, 1});
    ASSERT_TRUE(sent.ok()) << sent.error();
    if (sent.value() == net::SendOutcome::kRefused) refused = true;
    auto received = socket.value().receive(50);
    if (received.ok() && received.value().refused) refused = true;
  }
  EXPECT_TRUE(refused) << "ICMP port-unreachable never surfaced";
}

// ---------------------------------------------------------------------------
// Receive errno taxonomy and the EINTR contract
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

extern "C" void eintr_test_noop_handler(int) {}

// Installs a SIGALRM handler without SA_RESTART (so blocking syscalls
// really see EINTR) and arms an ITIMER_REAL; restores both on destruction.
class InterruptingTimer {
 public:
  InterruptingTimer(int initial_ms, int interval_ms) {
    struct sigaction action {};
    action.sa_handler = eintr_test_noop_handler;
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
// BatchedUdpEngine over loopback
// ---------------------------------------------------------------------------

net::EngineConfig wall_engine_config(net::BatchMode mode) {
  net::EngineConfig config;
  config.clock = net::EngineClock::kWall;
  config.batch = mode;
  config.batch_size = 32;
  config.flow_window = 0;  // non-encap: no reflector to answer
  return config;
}

void expect_loopback_delivery(net::BatchMode mode) {
  auto sender = net::BatchedUdpEngine::open(wall_engine_config(mode));
  if (!sender.ok()) GTEST_SKIP() << "sockets unavailable: " << sender.error();
  auto receiver = net::BatchedUdpEngine::open(wall_engine_config(mode));
  ASSERT_TRUE(receiver.ok()) << receiver.error();
  net::BatchedUdpEngine& tx = *sender.value();
  net::BatchedUdpEngine& rx = *receiver.value();
  const net::Endpoint destination = rx.local_endpoint();

  constexpr std::size_t kCount = 100;
  constexpr std::size_t kLen = 60;
  for (std::size_t i = 0; i < kCount; ++i) {
    auto frame = tx.acquire_send_frame(kLen);
    ASSERT_EQ(frame.size(), kLen);
    std::memset(frame.data(), static_cast<int>(i & 0xff), kLen);
    tx.commit_send_frame({}, destination, kLen, tx.now());
  }
  tx.flush();
  EXPECT_EQ(tx.stats().datagrams_sent, kCount);
  if (mode == net::BatchMode::kPerDatagram) {
    EXPECT_EQ(tx.stats().sendmmsg_calls, 0u);
    EXPECT_EQ(tx.stats().sendto_calls, kCount);
  } else if (tx.batching()) {
    EXPECT_GT(tx.stats().sendmmsg_calls, 0u);
    EXPECT_EQ(tx.stats().sendto_calls, 0u);
  }

  std::size_t got = 0;
  std::size_t checked_payloads = 0;
  const util::VTime deadline = rx.now() + 2 * util::kSecond;
  while (got < kCount && rx.now() < deadline) {
    rx.run_until(rx.now() + 20 * util::kMillisecond);
    while (const auto view = rx.receive_view()) {
      ASSERT_EQ(view->payload.size(), kLen);
      // Loopback preserves order, so the fill byte tracks the index.
      if (view->payload[0] == static_cast<std::uint8_t>(got & 0xff))
        ++checked_payloads;
      EXPECT_EQ(view->source, tx.local_endpoint());
      ++got;
    }
  }
  EXPECT_EQ(got, kCount);
  EXPECT_EQ(checked_payloads, kCount);
  EXPECT_EQ(rx.stats().datagrams_received, kCount);
}

TEST(BatchedUdpEngine, DeliversBatchedOverLoopback) {
  expect_loopback_delivery(net::BatchMode::kAuto);
}

TEST(BatchedUdpEngine, DeliversPerDatagramOverLoopback) {
  expect_loopback_delivery(net::BatchMode::kPerDatagram);
}

TEST(BatchedUdpEngine, OpenGroupSharesOneLoopbackPort) {
  auto group = net::BatchedUdpEngine::open_group(
      wall_engine_config(net::BatchMode::kAuto), 3);
  if (!group.ok()) GTEST_SKIP() << "sockets unavailable: " << group.error();
  ASSERT_EQ(group.value().size(), 3u);
  const net::Endpoint shared = group.value().front()->local_endpoint();
  EXPECT_NE(shared.port, 0);
  for (const auto& engine : group.value())
    EXPECT_EQ(engine->local_endpoint(), shared);

  net::EngineConfig encap = wall_engine_config(net::BatchMode::kAuto);
  encap.sim_peer = shared;
  EXPECT_FALSE(net::BatchedUdpEngine::open_group(encap, 2).ok());
  EXPECT_FALSE(net::BatchedUdpEngine::open_group(
                   wall_engine_config(net::BatchMode::kAuto), 0)
                   .ok());
}

// Wire bytes of one SimFrame: header then payload.
util::Bytes sim_wire(std::uint8_t kind, const net::Endpoint& logical,
                     util::ByteView payload) {
  util::Bytes wire(net::SimFrame::kWireSize + payload.size());
  net::SimFrame frame;
  frame.kind = kind;
  frame.logical = logical;
  frame.encode({wire.data(), net::SimFrame::kWireSize});
  std::memcpy(wire.data() + net::SimFrame::kWireSize, payload.data(),
              payload.size());
  return wire;
}

// Collects what arrives at `rx` within `wait` of real time.
std::vector<util::Bytes> collect(net::BatchedUdpEngine& rx, std::size_t want,
                                 util::VTime wait = 2 * util::kSecond) {
  std::vector<util::Bytes> got;
  const util::VTime deadline = rx.now() + wait;
  while (got.size() < want && rx.now() < deadline) {
    rx.run_until(rx.now() + 5 * util::kMillisecond);
    while (const auto view = rx.receive_view())
      got.emplace_back(view->payload.begin(), view->payload.end());
  }
  return got;
}

TEST(BatchedUdpEngine, EncapLingerCountsProbesNotFrames) {
  auto peer_open =
      net::BatchedUdpEngine::open(wall_engine_config(net::BatchMode::kAuto));
  if (!peer_open.ok())
    GTEST_SKIP() << "sockets unavailable: " << peer_open.error();
  net::BatchedUdpEngine& peer = *peer_open.value();
  net::EngineConfig config;
  config.clock = net::EngineClock::kVirtual;
  config.batch_size = 8;
  config.sim_peer = peer.local_endpoint();
  config.linger_grace = 300 * util::kMillisecond;
  auto engine_open = net::BatchedUdpEngine::open(config);
  ASSERT_TRUE(engine_open.ok()) << engine_open.error();
  net::BatchedUdpEngine& engine = *engine_open.value();
  const std::uint8_t probe[] = {0x30, 0x00};
  const net::Endpoint first{net::IpAddress(net::Ipv4(192, 0, 2, 1)), 161};
  const net::Endpoint second{net::IpAddress(net::Ipv4(192, 0, 2, 2)), 161};
  const std::uint8_t body[] = {0x42, 0x43};

  // Two probes; the peer answers the first with three frames and leaves
  // the second unanswered. Three frames must count as one answer, so the
  // linger waits out its grace and records the shortfall as a stall.
  engine.send_view({}, first, probe, engine.now());
  engine.send_view({}, second, probe, engine.now());
  engine.flush();
  ASSERT_EQ(collect(peer, 2).size(), 2u);
  const net::Endpoint reply_to = engine.local_endpoint();
  for (const std::uint8_t kind :
       {net::SimFrame::kDataMore, net::SimFrame::kDataMore,
        net::SimFrame::kData})
    peer.send_view({}, reply_to, sim_wire(kind, first, body), 0);
  peer.flush();
  const auto started = std::chrono::steady_clock::now();
  engine.linger_drain();
  EXPECT_GE(std::chrono::steady_clock::now() - started,
            std::chrono::milliseconds(300));
  EXPECT_EQ(engine.stats().flow_stalls, 1u);
  std::size_t responses = 0;
  while (engine.receive_view()) ++responses;
  EXPECT_EQ(responses, 3u);

  // One probe answered by two frames: the linger ends on the count, with
  // no grace to wait out and no stall.
  engine.send_view({}, first, probe, engine.now());
  engine.flush();
  ASSERT_EQ(collect(peer, 1).size(), 1u);
  peer.send_view({}, reply_to, sim_wire(net::SimFrame::kDataMore, first, body),
                 0);
  peer.send_view({}, reply_to, sim_wire(net::SimFrame::kData, first, body), 0);
  peer.flush();
  engine.linger_drain();
  EXPECT_EQ(engine.stats().flow_stalls, 1u);
  responses = 0;
  while (engine.receive_view()) ++responses;
  EXPECT_EQ(responses, 2u);
}

TEST(BatchedUdpEngine, OversizedDatagramsCountAsTruncated) {
  auto sender = net::BatchedUdpEngine::open(
      wall_engine_config(net::BatchMode::kAuto));
  if (!sender.ok()) GTEST_SKIP() << "sockets unavailable: " << sender.error();
  auto receiver = net::BatchedUdpEngine::open(
      wall_engine_config(net::BatchMode::kAuto));
  ASSERT_TRUE(receiver.ok()) << receiver.error();
  net::BatchedUdpEngine& tx = *sender.value();
  net::BatchedUdpEngine& rx = *receiver.value();

  // Larger than the receiver's ring stride (max(2048, frame_bytes + 28)):
  // the kernel clips it and the engine counts the truncation.
  const util::Bytes oversize(4000, 0xab);
  tx.send_view({}, rx.local_endpoint(), oversize, tx.now());
  tx.flush();

  std::size_t got = 0;
  const util::VTime deadline = rx.now() + 2 * util::kSecond;
  while (got == 0 && rx.now() < deadline) {
    rx.run_until(rx.now() + 20 * util::kMillisecond);
    while (const auto view = rx.receive_view()) {
      EXPECT_LT(view->payload.size(), oversize.size());
      ++got;
    }
  }
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(rx.stats().recv_truncated, 1u);
}

// ---------------------------------------------------------------------------
// Pipeline equality: real sockets == sim fabric, bit for bit
// ---------------------------------------------------------------------------

// World restricted to the rng-unobservable subset: no engine-time jitter,
// no future-time draws, no load-balancer backend selection. Everything
// else (zero-time bugs, amplifiers, churn, dead space) stays.
topo::WorldConfig deterministic_world() {
  topo::WorldConfig config = topo::WorldConfig::tiny();
  config.seed = 17;
  config.future_time_rate = 0.0;
  config.time_jitter_rate = 0.0;
  config.load_balancer_rate = 0.0;
  return config;
}

// Fabric restricted to the deterministic subset the reflector mirrors:
// zero loss, one fixed (even) RTT, no faults, no policing.
sim::FabricConfig deterministic_fabric() {
  sim::FabricConfig fabric;
  fabric.probe_loss = 0.0;
  fabric.response_loss = 0.0;
  fabric.min_rtt = 20 * util::kMillisecond;
  fabric.max_rtt = 20 * util::kMillisecond;
  return fabric;
}

core::PipelineResult run_equality_pipeline(
    bool net, std::size_t threads,
    util::VTime linger_grace = net::EngineConfig{}.linger_grace) {
  core::PipelineOptions options;
  options.world = deterministic_world();
  options.fabric = deterministic_fabric();
  options.parallel.threads = threads;
  if (net) {
    net::EngineConfig engine;
    engine.clock = net::EngineClock::kVirtual;
    // Eight shard engines share the reflector's receive buffer; a small
    // batch (flow window = 2x batch) keeps their combined in-flight
    // window far under it.
    engine.batch_size = 16;
    engine.linger_grace = linger_grace;
    options.net_engine = engine;
    options.net_rtt = 20 * util::kMillisecond;
  }
  return core::run_full_pipeline(options);
}

bool sockets_available(std::string& why) {
  net::EngineConfig probe;
  auto available = net::BatchedUdpEngine::open(probe);
  if (!available.ok()) why = available.error();
  return available.ok();
}

TEST(NetEnginePipeline, BitIdenticalToSimFabricAcrossThreadCounts) {
  std::string why;
  if (!sockets_available(why)) GTEST_SKIP() << "sockets unavailable: " << why;
  const core::PipelineResult sim_run = run_equality_pipeline(false, 1);
  // The pipeline runs min(threads, 8 shards) reflector workers, so this
  // also covers 1, 2 and 8 workers behind one endpoint.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const core::PipelineResult net_run = run_equality_pipeline(true, threads);
    if (!net_run.v4_campaign.net_error.empty())
      GTEST_SKIP() << "net engine unavailable: "
                   << net_run.v4_campaign.net_error;
    expect_same_run(sim_run, net_run);
    // The probes really went through the kernel.
    EXPECT_GT(net_run.v4_campaign.net_io.datagrams_sent, 0u);
    EXPECT_EQ(sim_run.v4_campaign.net_io.datagrams_sent, 0u);
  }
}

TEST(NetEnginePipeline, LingerEndsOnTheAnswerCountNotOnSilence) {
  std::string why;
  if (!sockets_available(why)) GTEST_SKIP() << "sockets unavailable: " << why;
  const core::PipelineResult sim_run = run_equality_pipeline(false, 1);
  // Each of the 8 shards lingers at the end of each of 4 scans. Waiting
  // for 10 s of silence would take over 5 minutes; ending on the count of
  // answered probes takes well under one grace period in all.
  const auto started = std::chrono::steady_clock::now();
  const core::PipelineResult net_run =
      run_equality_pipeline(true, 2, 10 * util::kSecond);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  if (!net_run.v4_campaign.net_error.empty())
    GTEST_SKIP() << "net engine unavailable: " << net_run.v4_campaign.net_error;
  expect_same_run(sim_run, net_run);
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_EQ(net_run.v4_campaign.net_io.flow_stalls, 0u);
  EXPECT_EQ(net_run.v6_campaign.net_io.flow_stalls, 0u);
}

// ---------------------------------------------------------------------------
// Campaigns against a reflector started directly
// ---------------------------------------------------------------------------

TEST(NetEngineCampaign, ReflectorEndsEveryAnswerWithOneFinalFrame) {
  topo::World world = topo::generate_world(deterministic_world());
  const topo::Device* amplifier = nullptr;
  for (const auto& device : world.devices) {
    if (device.snmpv3_enabled && device.amplification >= 2 &&
        !device.interfaces.empty() && device.interfaces.front().v4) {
      amplifier = &device;
      break;
    }
  }
  ASSERT_NE(amplifier, nullptr) << "the test world has no v4 amplifier";
  topo::MaterializedWorldModel model(world);
  auto reflector = sim::LoopbackReflector::start(model);
  if (!reflector.ok())
    GTEST_SKIP() << "sockets unavailable: " << reflector.error();
  auto client_open =
      net::BatchedUdpEngine::open(wall_engine_config(net::BatchMode::kAuto));
  ASSERT_TRUE(client_open.ok()) << client_open.error();
  net::BatchedUdpEngine& client = *client_open.value();
  const net::Endpoint server = reflector.value()->endpoint();

  // An amplified answer: N-1 kDataMore frames, then one kData.
  const util::Bytes request =
      snmp::make_discovery_request(1, 1).encode();
  const net::Endpoint target{
      net::IpAddress(*amplifier->interfaces.front().v4), net::kSnmpPort};
  client.send_view({}, server, sim_wire(net::SimFrame::kData, target, request),
                   0);
  client.flush();
  const auto frames =
      collect(client, static_cast<std::size_t>(amplifier->amplification));
  ASSERT_EQ(frames.size(),
            static_cast<std::size_t>(amplifier->amplification));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto header = net::SimFrame::decode(frames[i]);
    ASSERT_TRUE(header.has_value());
    EXPECT_EQ(header->kind, i + 1 == frames.size() ? net::SimFrame::kData
                                                   : net::SimFrame::kDataMore)
        << "frame " << i;
    EXPECT_EQ(header->logical, target);
  }

  // Dead space: one drop notice, nothing else.
  const net::Endpoint dead{net::IpAddress(net::Ipv4(192, 0, 2, 77)),
                           net::kSnmpPort};
  ASSERT_EQ(world.device_at(dead.address), nullptr);
  client.send_view({}, server, sim_wire(net::SimFrame::kData, dead, request),
                   0);
  client.flush();
  const auto notice = collect(client, 2, 300 * util::kMillisecond);
  ASSERT_EQ(notice.size(), 1u);
  EXPECT_EQ(net::SimFrame::decode(notice.front())->kind,
            net::SimFrame::kDrop);
}

TEST(NetEngineCampaign, ThreeWorkersAnswerEveryProbeOfEightShards) {
  topo::World world = topo::generate_world(deterministic_world());
  topo::MaterializedWorldModel model(world);
  sim::ReflectorConfig reflector_config;
  auto reflector = sim::LoopbackReflector::start(model, reflector_config, 3);
  if (!reflector.ok())
    GTEST_SKIP() << "sockets unavailable: " << reflector.error();

  scan::CampaignOptions options;
  options.family = net::Family::kIpv4;
  options.shards = 8;
  options.parallel.threads = 3;
  options.fabric = deterministic_fabric();
  net::EngineConfig engine;
  engine.clock = net::EngineClock::kVirtual;
  engine.batch_size = 16;
  engine.sim_peer = reflector.value()->endpoint();
  options.net_engine = engine;

  const scan::CampaignPair pair = scan::run_two_scan_campaign(model, options);
  ASSERT_TRUE(pair.net_error.empty()) << pair.net_error;
  reflector.value()->stop();
  const sim::ReflectorStats stats = reflector.value()->stats();
  const std::vector<sim::ReflectorStats> workers =
      reflector.value()->worker_stats();
  ASSERT_EQ(workers.size(), 3u);
  std::string split;
  for (const auto& worker : workers)
    split += (split.empty() ? "" : "/") + std::to_string(worker.frames);
  RecordProperty("worker_frames", split);

  // Every probe reached a worker and every answer came back whole: the
  // engines received exactly the responses plus one drop notice per probe
  // no agent answered, and no linger or flow gate gave up on a frame.
  EXPECT_GT(pair.scan1.responsive(), 0u);
  EXPECT_EQ(stats.frames, pair.net_io.datagrams_sent);
  EXPECT_EQ(stats.bad_frames, 0u);
  EXPECT_EQ(pair.net_io.datagrams_received,
            stats.responses + pair.net_io.drop_notices);
  EXPECT_EQ(stats.frames, stats.dead + stats.filtered + stats.delivered);
  EXPECT_EQ(pair.net_io.flow_stalls, 0u);
  // Steering by target address spreads the probes of eight flows evenly;
  // the kernel's flow hash alone often leaves one worker with most.
  for (const auto& worker : workers)
    EXPECT_GT(worker.frames * 5, stats.frames) << "frames per worker " << split;
}

TEST(NetEngineCampaign, WallClockCampaignCompletesAgainstTheReflector) {
  topo::World world = topo::generate_world(deterministic_world());
  topo::MaterializedWorldModel model(world);
  sim::ReflectorConfig reflector_config;
  auto reflector = sim::LoopbackReflector::start(model, reflector_config);
  if (!reflector.ok())
    GTEST_SKIP() << "sockets unavailable: " << reflector.error();

  scan::CampaignOptions options;
  options.family = net::Family::kIpv4;
  options.rate_pps = 20000.0;
  options.shards = 2;
  options.response_timeout = 300 * util::kMillisecond;
  net::EngineConfig engine;
  engine.clock = net::EngineClock::kWall;
  engine.batch_size = 32;
  engine.sim_peer = reflector.value()->endpoint();
  options.net_engine = engine;
  options.pacer.burst_probes = engine.batch_size;

  const scan::CampaignPair pair = scan::run_two_scan_campaign(model, options);
  ASSERT_TRUE(pair.net_error.empty()) << pair.net_error;
  EXPECT_GT(pair.scan1.responsive(), 0u);
  EXPECT_GT(pair.scan2.responsive(), 0u);
  EXPECT_EQ(pair.scan1.targets_probed, pair.scan2.targets_probed);
  EXPECT_GT(pair.net_io.datagrams_sent, 0u);
  EXPECT_GT(pair.net_io.datagrams_received, 0u);
  // Wall campaigns pace over real timestamps, so the prober must really
  // wait: past its opening burst each shard sends at rate/shards, then
  // drains for the response timeout. A lower bound only — an upper one
  // would flap on a loaded machine.
  const double shards = static_cast<double>(options.shards);
  const double per_shard =
      static_cast<double>(pair.scan1.targets_probed / options.shards);
  const double min_seconds =
      util::to_seconds(options.response_timeout) +
      (per_shard - static_cast<double>(options.pacer.burst_probes)) /
          (options.rate_pps / shards);
  EXPECT_GE(util::to_seconds(pair.scan1.end_time - pair.scan1.start_time),
            min_seconds);
  const sim::ReflectorStats reflector_stats = reflector.value()->stats();
  EXPECT_GT(reflector_stats.delivered, 0u);
  EXPECT_EQ(reflector_stats.bad_frames, 0u);
}

}  // namespace
}  // namespace snmpv3fp
