#include "sim/reflector.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>

#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace snmpv3fp::sim {

namespace {
using net::BatchedUdpEngine;
using net::SimFrame;

// How long an idle worker blocks in poll before it rechecks the stop flag:
// bounds the reflector's shutdown latency, never a probe's.
constexpr int kIdleWaitMs = 10;

void respond_drop(BatchedUdpEngine& engine, const net::Endpoint& reply_to,
                  const SimFrame& probe, util::VTime time) {
  SimFrame notice;
  notice.kind = SimFrame::kDrop;
  notice.logical = probe.logical;
  notice.time = time;
  const auto span = engine.acquire_send_frame(SimFrame::kWireSize);
  if (span.size() < SimFrame::kWireSize) return;
  notice.encode(span);
  engine.commit_send_frame({}, reply_to, SimFrame::kWireSize, time);
}

}  // namespace

// One service worker: its socket, thread and agent state, touched only by
// its own thread, plus the counters it publishes once per served batch.
struct LoopbackReflector::Worker {
  Worker(std::unique_ptr<BatchedUdpEngine> e,
         std::unique_ptr<topo::DeviceView> v, std::uint64_t seed)
      : engine(std::move(e)), view(std::move(v)), rng(seed) {}

  std::unique_ptr<BatchedUdpEngine> engine;
  std::unique_ptr<topo::DeviceView> view;
  util::Rng rng;
  ReflectorStats counts;
  mutable std::mutex published_mutex;
  ReflectorStats published;
  std::thread thread;
};

ReflectorStats& ReflectorStats::operator+=(const ReflectorStats& other) {
  frames += other.frames;
  bad_frames += other.bad_frames;
  dead += other.dead;
  filtered += other.filtered;
  delivered += other.delivered;
  responses += other.responses;
  return *this;
}

LoopbackReflector::LoopbackReflector(const ReflectorConfig& config)
    : config_(config) {}

util::Result<std::unique_ptr<LoopbackReflector>> LoopbackReflector::start(
    const topo::WorldModel& model, ReflectorConfig config,
    std::size_t workers) {
  using R = util::Result<std::unique_ptr<LoopbackReflector>>;
  net::EngineConfig engine_config;
  engine_config.family = net::Family::kIpv4;  // wire family; logical
                                              // addresses ride the header
  engine_config.clock = net::EngineClock::kWall;
  engine_config.batch_size = config.batch_size;
  engine_config.frame_bytes = 2048;  // responses outgrow 60-byte probes
  engine_config.bind_loopback = true;
  engine_config.sndbuf_bytes = config.sndbuf_bytes;
  engine_config.rcvbuf_bytes = config.rcvbuf_bytes;
  auto engines = BatchedUdpEngine::open_group(
      engine_config, std::max<std::size_t>(workers, 1));
  if (!engines.ok()) return R::failure(engines.error());
  std::unique_ptr<LoopbackReflector> reflector(new LoopbackReflector(config));
  for (auto& engine : engines.value()) {
    const std::size_t index = reflector->workers_.size();
    reflector->workers_.push_back(std::make_unique<Worker>(
        std::move(engine), model.open_view(),
        index == 0 ? config.seed : util::hash_combine(config.seed, index)));
  }
  for (auto& worker : reflector->workers_)
    worker->thread = std::thread(&LoopbackReflector::serve, reflector.get(),
                                 std::ref(*worker));
  return R(std::move(reflector));
}

LoopbackReflector::~LoopbackReflector() { stop(); }

void LoopbackReflector::stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
}

net::Endpoint LoopbackReflector::endpoint() const {
  return workers_.front()->engine->local_endpoint();
}

std::vector<ReflectorStats> LoopbackReflector::worker_stats() const {
  std::vector<ReflectorStats> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) {
    const std::lock_guard<std::mutex> lock(worker->published_mutex);
    out.push_back(worker->published);
  }
  return out;
}

ReflectorStats LoopbackReflector::stats() const {
  ReflectorStats total;
  for (const auto& worker : worker_stats()) total += worker;
  return total;
}

void LoopbackReflector::serve(Worker& worker) {
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!process(worker)) worker.engine->wait_readable(kIdleWaitMs);
  }
  // Final sweep so probes that raced the stop flag still get answers
  // before the socket closes.
  process(worker);
}

bool LoopbackReflector::process(Worker& worker) {
  BatchedUdpEngine& engine = *worker.engine;
  ReflectorStats& counts = worker.counts;
  bool any = false;
  while (const auto view = engine.receive_view()) {
    any = true;
    ++counts.frames;
    const auto probe = SimFrame::decode(view->payload);
    if (!probe.has_value() || probe->kind != SimFrame::kData) {
      ++counts.bad_frames;
      continue;
    }
    const util::ByteView payload =
        view->payload.subspan(SimFrame::kWireSize);
    const net::Endpoint reply_to = view->source;
    // Same integer halving as sim::Fabric::deliver: at_device and arrival
    // must be bit-identical to the fabric's for the equality contract.
    const util::VTime at_device = probe->time + config_.rtt / 2;
    const topo::Device* device =
        worker.view->device_at(probe->logical.address);
    if (device == nullptr) {
      ++counts.dead;
      respond_drop(engine, reply_to, *probe, at_device);
      continue;
    }
    if (probe->logical.port != net::kSnmpPort) {
      ++counts.filtered;
      respond_drop(engine, reply_to, *probe, at_device);
      continue;
    }
    ++counts.delivered;
    auto responses =
        handle_udp(*device, payload, at_device, worker.rng, config_.agent);
    if (responses.empty()) {
      // The agent ignored the payload; the probe still needs its final
      // frame.
      respond_drop(engine, reply_to, *probe, at_device);
      continue;
    }
    const util::VTime arrival = at_device + config_.rtt / 2;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const util::Bytes& response = responses[i];
      SimFrame header;
      header.kind = i + 1 == responses.size() ? SimFrame::kData
                                              : SimFrame::kDataMore;
      header.logical = probe->logical;  // agents reply from the probed IP
      header.time = arrival;
      const std::size_t wire_len = SimFrame::kWireSize + response.size();
      const auto span = engine.acquire_send_frame(wire_len);
      if (span.size() >= wire_len) {
        header.encode(span);
        std::memcpy(span.data() + SimFrame::kWireSize, response.data(),
                    response.size());
        engine.commit_send_frame({}, reply_to, wire_len, arrival);
      } else {
        // Response outgrew the frame pool: allocating one-off send.
        util::Bytes wire(wire_len);
        header.encode({wire.data(), SimFrame::kWireSize});
        std::memcpy(wire.data() + SimFrame::kWireSize, response.data(),
                    response.size());
        engine.send_view({}, reply_to, wire, arrival);
      }
      ++counts.responses;
    }
  }
  if (any) {
    engine.flush();
    const std::lock_guard<std::mutex> lock(worker.published_mutex);
    worker.published = counts;
  }
  return any;
}

}  // namespace snmpv3fp::sim
