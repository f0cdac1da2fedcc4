// Loopback reflector: the simulated Internet behind a real UDP socket.
//
// A LoopbackReflector serves a WorldModel's agents over actual kernel
// sockets, speaking the net::SimFrame encapsulation of
// net::BatchedUdpEngine. Campaigns configured with a net-engine transport
// send real datagrams through the kernel to this endpoint; the reflector
// dispatches each probe to the owning device's agent (sim/agent.hpp) and
// sends the responses back to the wire source, carrying the virtual
// arrival time in the frame header. That makes a full real-socket campaign
// CI-able without privileges or network access — and, over a loss-free
// fixed-RTT world, bit-identical to the sim-fabric campaign
// (tests/test_net_engine.cpp).
//
// Service: K workers behind one endpoint. Each worker owns one engine
// socket — all K share the endpoint's port through SO_REUSEPORT, and the
// kernel steers each probe to one of them by its logical target address
// (net::BatchedUdpEngine::open_group) — plus its own thread, DeviceView,
// agent rng and counters. All frames of one probe's answer leave from one
// worker, in order. A worker answers a batch as soon as it arrives and
// blocks in poll only when it has nothing queued.
//
// Delivery semantics mirror sim::Fabric::deliver for the deterministic
// subset: no device at the address -> dead, port != 161 -> filtered (both
// answered with a drop notice so the engine's count of probes in flight
// keeps moving), otherwise at_device = send_time + rtt/2 and arrival =
// at_device + rtt/2 with the same integer division the fabric uses. Every
// probe gets exactly one final frame (kData or kDrop); the frames before
// the last one of an amplified answer are kDataMore. The stochastic
// fabric knobs (loss, rtt jitter, corruption, policing) are intentionally
// absent: equality runs disable them in the fabric instead.
//
// Thread-safety: a worker calls DeviceView::device_at for a probe before
// it sends that probe's final frame, and an engine counts a probe answered
// only on that final frame. So once every campaign engine has lingered to
// `outstanding == 0`, every worker is done with device_at for every probe
// sent, and WorldModel::apply_churn on the campaign thread is safe. The
// guarantee lapses only after a flow stall (a lost frame), which the
// engines count in NetIoStats::flow_stalls.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/batched_udp.hpp"
#include "sim/agent.hpp"
#include "topo/world_model.hpp"
#include "util/result.hpp"

namespace snmpv3fp::sim {

struct ReflectorConfig {
  // Fixed round trip applied to every probe; must equal the fabric's
  // min_rtt == max_rtt for equality runs. Even values keep rtt/2 exact.
  util::VTime rtt = 20 * util::kMillisecond;
  AgentConfig agent;
  // Agent rng stream (worker w > 0 derives its own from it). Never
  // observable when the world's jitter knobs are zero (the equality
  // configuration); seeded so hostile worlds still get varied draws.
  std::uint64_t seed = 1;
  // Kernel batch size and buffer requests for each worker's engine.
  std::size_t batch_size = 64;
  int sndbuf_bytes = 4 << 20;
  int rcvbuf_bytes = 4 << 20;
};

struct ReflectorStats {
  std::uint64_t frames = 0;      // wire datagrams examined
  std::uint64_t bad_frames = 0;  // not a SimFrame data frame
  std::uint64_t dead = 0;        // no device at the logical address
  std::uint64_t filtered = 0;    // logical port != 161
  std::uint64_t delivered = 0;   // dispatched to an agent
  std::uint64_t responses = 0;   // response frames sent back

  ReflectorStats& operator+=(const ReflectorStats& other);
};

class LoopbackReflector {
 public:
  // Opens `workers` sockets on one endpoint and starts a service thread
  // for each. The model must outlive the reflector.
  static util::Result<std::unique_ptr<LoopbackReflector>> start(
      const topo::WorldModel& model, ReflectorConfig config = {},
      std::size_t workers = 1);

  ~LoopbackReflector();
  LoopbackReflector(const LoopbackReflector&) = delete;
  LoopbackReflector& operator=(const LoopbackReflector&) = delete;

  // Where engines should point their EngineConfig::sim_peer.
  net::Endpoint endpoint() const;
  // Answers what is queued, then stops and joins every worker. Idempotent;
  // the destructor calls it.
  void stop();
  // Summed over the workers: a snapshot as of each one's last served
  // batch while they run, exact once stop() has returned.
  ReflectorStats stats() const;
  // One entry per worker, same snapshot rule (how the kernel split flows).
  std::vector<ReflectorStats> worker_stats() const;

 private:
  struct Worker;

  explicit LoopbackReflector(const ReflectorConfig& config);
  void serve(Worker& worker);
  // Answers every queued frame; returns whether any was handled.
  bool process(Worker& worker);

  ReflectorConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
};

}  // namespace snmpv3fp::sim
