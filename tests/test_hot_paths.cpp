// Allocation and timing gates on the per-probe hot paths. This binary
// holds the program's one global counting operator new: every heap
// allocation in the process ticks g_allocations, so a case can prove that
// a steady-state loop never touches the heap. The binary runs RUN_SERIAL,
// so its timing ratios are taken with no other test loading the box.
//  - wire: ProbeTemplate::stamp, the fast REPORT parse and
//    encode_report_into allocate nothing per op once warmed up;
//  - telemetry: the disabled obs::ShardTelemetry tick costs <= 100 ns/op
//    (best of N) and allocates nothing;
//  - send: BatchedUdpEngine's acquire -> stamp -> commit loop at batch 64
//    allocates nothing per probe and reaches >= 2x the per-datagram
//    probes/s when sendmmsg really batches;
//  - receive: BatchedUdpEngine's recvmmsg drain takes every frame of
//    eight 256-probe bursts and allocates nothing per frame;
//  - spec mode: dead-space device_at and batched target generation
//    allocate nothing, and a census shard run allocates in proportion to
//    its responses, not its probes;
//  - world build: generate_world makes at most two heap allocations per
//    device (its engine ID, plus the flat arrays' amortized growth);
//  - store read-back: RecordStore::materialize makes about one heap
//    allocation per record (the engine ID its decode builds).
// The socket cases GTEST_SKIP with the reason when the sandbox denies
// sockets or sendmmsg.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "net/batched_udp.hpp"
#include "net/registry.hpp"
#include "net/udp_socket.hpp"
#include "obs/obs.hpp"
#include "scan/prober.hpp"
#include "scan/targets.hpp"
#include "sim/fabric.hpp"
#include "snmp/message.hpp"
#include "store/record_store.hpp"
#include "topo/generator.hpp"
#include "topo/procedural.hpp"
#include "wire/probe_template.hpp"
#include "wire/report_codec.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc wants the size rounded up to an alignment multiple.
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace snmpv3fp {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Keeps results observable: folds a value into a sink the optimizer
// cannot see through.
std::uint64_t g_sink = 0;
void consume(std::uint64_t v) { g_sink = g_sink * 31 + v; }

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Fastest of `repeats` timed runs of `fn`, in ms.
template <typename Fn>
double best_ms(int repeats, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ms = elapsed_ms(start);
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// Runs op(0..n-1) twice and returns the allocations of the second pass.
// The first pass warms reusable buffers up to their steady-state
// capacity: message sizes are not monotone in i (boots = i & 0xff needs
// an extra INTEGER byte at 128..255), so only a complete pass guarantees
// the buffers have seen the largest input before counting starts.
template <typename Op>
std::uint64_t steady_state_allocations(std::int64_t n, Op&& op) {
  for (std::int64_t i = 0; i < n; ++i) op(i);
  const std::uint64_t before = allocations();
  for (std::int64_t i = 0; i < n; ++i) op(i);
  return allocations() - before;
}

// Rotating two-byte ids so the encoders never see a constant input.
std::int32_t rotate_id(std::int64_t i) {
  return static_cast<std::int32_t>(
      wire::kMinTwoByteId +
      (i * 7919) % (wire::kMaxTwoByteId - wire::kMinTwoByteId + 1));
}

// ---- wire -----------------------------------------------------------------

constexpr std::int64_t kWireOps = 20000;

TEST(HotPaths, WireFastPathNeverAllocates) {
  const wire::ProbeTemplate tmpl;
  ASSERT_TRUE(tmpl.valid());
  util::Bytes stamp_buffer;
  EXPECT_EQ(steady_state_allocations(kWireOps, [&](std::int64_t i) {
              tmpl.stamp(rotate_id(i), rotate_id(i + 1), stamp_buffer);
              consume(stamp_buffer[tmpl.msg_id_offset()]);
            }),
            0u)
      << "ProbeTemplate::stamp";

  // The engine-ID formats the census sees, plus the empty-engine bug.
  const auto request = snmp::make_discovery_request(4242, 4243);
  const std::vector<snmp::EngineId> engines = {
      snmp::EngineId(),
      snmp::EngineId::make_mac(net::kPenCisco,
                               net::MacAddress::from_oui(0x00000c, 0x31db80)),
      snmp::EngineId::make_ipv4(2636, net::Ipv4(198, 51, 100, 7)),
      snmp::EngineId::make_text(8072, "core-router-17.example.net"),
      snmp::EngineId::make_netsnmp(0x1122334455667788ull),
  };
  std::vector<util::Bytes> reports;
  for (std::size_t i = 0; i < engines.size(); ++i)
    reports.push_back(snmp::make_discovery_report(
                          request, engines[i],
                          static_cast<std::uint32_t>(5 + i),
                          static_cast<std::uint32_t>(86400 * (i + 1)), 42)
                          .encode());
  EXPECT_EQ(steady_state_allocations(kWireOps, [&](std::int64_t i) {
              wire::V3Fields fields;
              wire::parse_v3_fast(
                  reports[static_cast<std::size_t>(i) % reports.size()],
                  fields);
              consume(fields.engine_boots);
            }),
            0u)
      << "parse_v3_fast";

  util::Bytes report_buffer;
  EXPECT_EQ(steady_state_allocations(kWireOps, [&](std::int64_t i) {
              wire::encode_report_into(
                  report_buffer, 4242, 4243, engines[1].raw(),
                  static_cast<std::uint32_t>(i & 0xff),
                  static_cast<std::uint32_t>(i), 42,
                  snmp::kOidUsmStatsUnknownEngineIds);
              consume(report_buffer.size());
            }),
            0u)
      << "encode_report_into";
}

// ---- telemetry ------------------------------------------------------------

TEST(HotPaths, DisabledTelemetryTickIsCheapAndAllocationFree) {
  // Generous even for an unoptimized build: the disabled path is a
  // handful of null checks, not a budget for real work.
  constexpr double kMaxDisabledNsPerOp = 100.0;
  constexpr std::int64_t kTicks = 2'000'000;
  obs::ShardTelemetry disabled;  // what every unobserved probe carries
  const auto tick = [&](std::int64_t i) {
    const auto now = static_cast<util::VTime>(i);
    if (disabled.track.enabled()) {  // the prober's one per-probe test
      disabled.track.record(obs::FlightEventKind::kNote, now, i);
      disabled.track.tick(now, [] { return obs::TimelinePoint{}; });
    }
    disabled.rtt_ms.observe(static_cast<double>(i & 0xff));
    consume(static_cast<std::uint64_t>(disabled.track.enabled()));
  };
  EXPECT_EQ(steady_state_allocations(kTicks, tick), 0u);
  const double ns_per_op = best_ms(3, [&] {
                             for (std::int64_t i = 0; i < kTicks; ++i)
                               tick(i);
                           }) *
                           1e6 / static_cast<double>(kTicks);
  EXPECT_LE(ns_per_op, kMaxDisabledNsPerOp);
}

// ---- spec-mode probe path -------------------------------------------------

TEST(HotPaths, SpecModeProbePathAllocatesOnlyPerResponse) {
  // A census sweep: one responder per 16k addresses, so nearly every
  // probe lands in dead space.
  const topo::ProceduralWorld world(topo::ProceduralConfig::census(1 << 20));
  scan::TargetSpec spec;
  for (const auto& region : world.config().regions)
    spec.ranges.push_back(region.v4);
  const scan::TargetGenerator generator(spec, 77);
  constexpr std::int64_t kOps = 100000;

  // Dead-space resolution; the few live addresses hit the view's cache
  // on the counted pass.
  const auto view = world.open_view();
  std::uint64_t dead = 0;
  const auto lookup = [&](std::int64_t i) {
    const auto address = generator.at(static_cast<std::uint64_t>(i));
    dead += view->device_at(address) == nullptr;
  };
  EXPECT_EQ(steady_state_allocations(kOps, lookup), 0u) << "device_at";
  // Over both passes: nearly every lookup was dead space.
  EXPECT_GT(dead, 2 * static_cast<std::uint64_t>(kOps) * 99 / 100);

  // Batched target generation at odd starts and lengths.
  std::array<net::IpAddress, 64> batch;
  const auto fill = [&](std::int64_t i) {
    const auto first = static_cast<std::uint64_t>(i) * 64 + 1;
    generator.fill(first, batch);
    generator.fill(first + 3, std::span(batch).first(37));
    consume(batch[5].v4().value());
  };
  EXPECT_EQ(steady_state_allocations(kOps / 64, fill), 0u)
      << "TargetGenerator::fill";

  // A whole shard run: what it allocates must follow the responses, not
  // the 2^20 probes.
  const net::Endpoint source{net::IpAddress(net::Ipv4(198, 51, 100, 7)), 4444};
  scan::ProbeConfig config;
  config.seed = 5;
  const auto run = [&](std::uint64_t length) {
    sim::Fabric fabric(world, sim::FabricConfig{});
    const scan::GeneratorSlice slice(generator, 0, length);
    (void)scan::Prober(fabric, source).run(slice, config, 0);
    return fabric.stats().responses_generated;
  };
  (void)run(4096);  // warm-up: one-time registry and table set-up
  const std::uint64_t before = allocations();
  const std::uint64_t responses = run(generator.size());
  const std::uint64_t used = allocations() - before;
  ASSERT_GT(responses, 0u);
  constexpr std::uint64_t kPerRun = 1000;
  constexpr std::uint64_t kPerResponse = 64;
  EXPECT_LE(used, kPerRun + kPerResponse * responses)
      << generator.size() << " probes, " << responses << " responses";
}

// ---- world build -----------------------------------------------------------

TEST(HotPaths, WorldBuildAllocatesAboutOncePerDevice) {
  (void)topo::generate_world(topo::WorldConfig::tiny());  // registry set-up
  const std::uint64_t before = allocations();
  const topo::World world = topo::generate_world(topo::WorldConfig::tiny());
  const std::uint64_t used = allocations() - before;
  ASSERT_GT(world.devices.size(), 0u);
  EXPECT_LE(used, 2 * world.devices.size())
      << used << " allocations for " << world.devices.size() << " devices";
}

// ---- record store read-back ------------------------------------------------

TEST(HotPaths, MaterializeAllocatesAboutOncePerRecord) {
  constexpr std::size_t kRecords = 4096;
  store::StoreOptions options;  // RAM-only: sealed blocks stay resident
  options.records_per_block = 512;
  store::RecordStore store(options, "materialize");
  for (std::size_t i = 0; i < kRecords; ++i) {
    scan::ScanRecord record;
    record.target = net::IpAddress(
        net::Ipv4(0x0a000000u + static_cast<std::uint32_t>(i)));
    record.engine_id = snmp::EngineId(
        util::Bytes{0x80, 0x00, 0x00, 0x09, 0x03,
                    static_cast<std::uint8_t>(i),
                    static_cast<std::uint8_t>(i >> 8)});
    record.engine_boots = 3;
    record.engine_time = static_cast<std::uint32_t>(1000 + i);
    record.send_time = static_cast<util::VTime>(i * 100);
    record.receive_time = record.send_time + 5000;
    record.response_count = 1;
    record.response_bytes = 120;
    store.append(std::move(record));
  }
  store.seal();
  ASSERT_EQ(store.block_count(), kRecords / options.records_per_block);

  const std::uint64_t before = allocations();
  const auto records = store.materialize();
  const std::uint64_t used = allocations() - before;
  ASSERT_EQ(records.size(), kRecords);
  // Decoding builds one engine ID per record and one record vector per
  // block; the output vector is reserved once. Copying each decoded record
  // into the output would add a second engine ID per record.
  EXPECT_LE(used, kRecords + 2 * store.block_count() + 8)
      << used << " allocations for " << kRecords << " records in "
      << store.block_count() << " blocks";
}

// ---- kernel send and receive ----------------------------------------------

constexpr std::size_t kBatch = 64;
const net::Endpoint kLoopback{net::IpAddress(net::Ipv4(127, 0, 0, 1)), 0};

// A wall-clock raw-mode engine on loopback (nothing answers it).
util::Result<std::unique_ptr<net::BatchedUdpEngine>> open_engine(
    net::BatchMode mode, int rcvbuf_bytes = 0) {
  net::EngineConfig config;
  config.clock = net::EngineClock::kWall;
  config.batch = mode;
  config.batch_size = kBatch;
  config.frame_bytes = 256;
  config.flow_window = 0;
  config.rcvbuf_bytes = rcvbuf_bytes;
  return net::BatchedUdpEngine::open(config);
}

// Stamps `count` template probes into engine frames addressed at `dest`
// and flushes them to the kernel: the prober's zero-copy send sequence.
void send_probes(net::BatchedUdpEngine& engine, const net::Endpoint& dest,
                 const wire::ProbeTemplate& tmpl, std::int64_t count) {
  const std::size_t len = tmpl.size();
  for (std::int64_t i = 0; i < count; ++i) {
    auto frame = engine.acquire_send_frame(len);
    tmpl.stamp_into(rotate_id(i), rotate_id(i), frame.first(len));
    engine.commit_send_frame({}, dest, len, engine.now());
  }
  engine.flush();
}

struct SendRun {
  double pps = 0;
  std::uint64_t allocations = 0;  // over one steady-state loop
};

SendRun run_send(net::BatchedUdpEngine& engine, const net::Endpoint& sink,
                 const wire::ProbeTemplate& tmpl) {
  constexpr std::int64_t kProbes = 20000;
  SendRun run;
  run.allocations = steady_state_allocations(
      1, [&](std::int64_t) { send_probes(engine, sink, tmpl, kProbes); });
  run.pps = static_cast<double>(kProbes) /
            (best_ms(3, [&] { send_probes(engine, sink, tmpl, kProbes); }) /
             1e3);
  return run;
}

TEST(HotPaths, BatchedSendIsAllocationFreeAndTwiceThePerDatagramRate) {
  const wire::ProbeTemplate tmpl;
  ASSERT_TRUE(tmpl.valid());
  // Sink: a bound loopback socket that never reads. Loopback sends
  // complete regardless (overflow drops at the receiver), so this times
  // the send path alone.
  auto sink_socket = net::UdpSocket::open(net::Family::kIpv4);
  if (!sink_socket.ok())
    GTEST_SKIP() << "SKIP: sockets unavailable (" << sink_socket.error()
                 << ")";
  if (!sink_socket.value().bind_to(kLoopback).ok())
    GTEST_SKIP() << "SKIP: loopback bind denied";
  const auto sink = sink_socket.value().local_endpoint();
  ASSERT_TRUE(sink.ok()) << sink.error();
  auto per_datagram = open_engine(net::BatchMode::kPerDatagram);
  auto batched = open_engine(net::BatchMode::kAuto);
  if (!per_datagram.ok() || !batched.ok())
    GTEST_SKIP() << "SKIP: engine open failed ("
                 << (per_datagram.ok() ? batched.error()
                                       : per_datagram.error())
                 << ")";

  const SendRun slow = run_send(*per_datagram.value(), sink.value(), tmpl);
  const SendRun fast = run_send(*batched.value(), sink.value(), tmpl);
  EXPECT_EQ(fast.allocations, 0u) << "batched stamp-into-frame send loop";
  // The 2x claim is about batching: a kernel without sendmmsg leaves
  // nothing to compare, so say so visibly. An engine that stops batching
  // on a kernel that has it fails instead.
  if (::sendmmsg(sink_socket.value().fd(), nullptr, 0, 0) < 0 &&
      errno == ENOSYS)
    GTEST_SKIP() << "SKIP: sendmmsg unavailable, speedup gate not applicable";
  EXPECT_TRUE(batched.value()->batching());
  EXPECT_GE(fast.pps, 2.0 * slow.pps)
      << "batched " << fast.pps << " vs per-datagram " << slow.pps
      << " probes/s (gso=" << batched.value()->gso() << ")";
}

// A 256-frame burst takes about 220 KB of kernel receive buffer, inside
// the 416 KiB an unprivileged socket gets under Linux's default rmem_max,
// so the kernel drops nothing before the drain (512 did not fit there).
constexpr std::int64_t kBurst = 256;
constexpr int kRounds = 8;

struct RecvRun {
  double pps = 0;
  std::uint64_t allocations = 0;  // over the timed drains only
  std::uint64_t frames = 0;       // frames drained across every round
};

// Burst-then-drain rounds: send `kBurst` probes to `dest`, wait until they
// have all landed, then time `drain()`, which returns the frames it
// counted. One untimed round warms the receive pools first.
template <typename Drain>
RecvRun run_recv(net::BatchedUdpEngine& tx, const net::Endpoint& dest,
                 const wire::ProbeTemplate& tmpl, Drain&& drain) {
  // Loopback delivery rides the softirq backlog; this wait puts every
  // burst frame where the timed drain can see it, so the drain times the
  // receive walk alone.
  const auto burst = [&] {
    send_probes(tx, dest, tmpl, kBurst);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  };
  burst();
  drain();
  RecvRun run;
  double total_ms = 0;
  for (int r = 0; r < kRounds; ++r) {
    burst();
    const std::uint64_t before = allocations();
    const auto start = std::chrono::steady_clock::now();
    run.frames += drain();
    total_ms += elapsed_ms(start);
    run.allocations += allocations() - before;
  }
  if (total_ms > 0) run.pps = static_cast<double>(run.frames) / total_ms * 1e3;
  return run;
}

TEST(HotPaths, RecvmmsgDrainIsAllocationFree) {
  const wire::ProbeTemplate tmpl;
  ASSERT_TRUE(tmpl.valid());
  auto mmsg_rx = open_engine(net::BatchMode::kAuto,
                             /*rcvbuf_bytes=*/8 << 20);  // a whole burst
  auto mmsg_tx = open_engine(net::BatchMode::kAuto);
  if (!mmsg_rx.ok() || !mmsg_tx.ok())
    GTEST_SKIP() << "SKIP: sockets unavailable ("
                 << (mmsg_rx.ok() ? mmsg_tx.error() : mmsg_rx.error())
                 << ")";

  // Empty refills arm the engine's rx backoff (it suppresses the next 32
  // polls so send-heavy loops don't pay a syscall per commit); a drain
  // must spin past that window before concluding the queue is empty.
  auto& rx = *mmsg_rx.value();
  const auto drain_mmsg = [&rx] {
    std::uint64_t n = 0;
    for (std::size_t idle = 0; idle < 40;) {
      if (rx.receive_view()) {
        ++n;
        idle = 0;
      } else {
        ++idle;
      }
    }
    return n;
  };
  const RecvRun mmsg =
      run_recv(*mmsg_tx.value(), rx.local_endpoint(), tmpl, drain_mmsg);

  EXPECT_EQ(mmsg.frames, static_cast<std::uint64_t>(kRounds * kBurst))
      << "recvmmsg drain at " << mmsg.pps << " frames/s";
  EXPECT_EQ(mmsg.allocations, 0u) << "recvmmsg drain over " << mmsg.frames
                                  << " frames";
}

}  // namespace
}  // namespace snmpv3fp
