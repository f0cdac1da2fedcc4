// Line-rate batched UDP engine: the real-socket campaign transport.
//
// BatchedUdpEngine implements net::Transport over one non-blocking POSIX
// UDP socket with kernel-batched I/O: outgoing probes accumulate in a
// preallocated frame pool and leave in one sendmmsg(2) per batch —
// coalesced into UDP_SEGMENT (GSO) super-packets when the batch is
// destination-uniform — and arrivals are pulled with recvmmsg(2) into a
// preallocated ring. The prober's template-stamp path writes probe bytes
// straight into the frame pool (Transport::acquire_send_frame), so the
// zero-allocation pipeline from wire::ProbeTemplate extends end-to-end
// into the kernel's iovec array. Platforms or kernels without
// sendmmsg/recvmmsg/GSO degrade at runtime to a per-datagram
// sendto/recvfrom loop with identical semantics (tests/test_hot_paths.cpp
// gates the batched send at >= 2x that loop and the recvmmsg drain at zero
// allocations).
//
// Two clock modes:
//  - kVirtual: now() is a virtual clock that jumps instantly, like
//    sim::Fabric. Paired with a loopback sim::LoopbackReflector carrying
//    virtual timestamps in an encapsulation header, a campaign through
//    real sockets reproduces the simulated campaign's records bit-for-bit
//    (tests/test_net_engine.cpp) — the CI-able configuration.
//  - kWall: now() follows the monotonic clock; run_until() really waits
//    (draining arrivals), and gaps beyond `max_sleep` (the 6-day scan
//    boundary) fast-forward a wall offset instead of sleeping.
//
// Sim encapsulation (`sim_peer` set): every wire datagram goes to one peer
// and carries a 28-byte SimFrame header — logical endpoint + virtual
// timestamp — in front of the SNMP payload. Outbound, the header holds the
// probe's logical destination and send time; inbound, the responding
// target and virtual arrival time, which become the received datagram's
// source/time (so receive_time is bit-identical to the fabric's). The
// reflector answers every probe with exactly one final frame (the last
// response, or a drop notice for dead space); earlier frames of an
// amplified answer are marked kDataMore. The engine therefore counts
// probes in flight exactly: `flow_window` caps them so a virtual-time
// sender cannot overrun the peer's receive buffer, and a linger ends the
// moment the count reaches zero.
//
// Threading: an engine belongs to one thread (like a sim::Fabric shard);
// distinct engines over distinct sockets may run on distinct threads.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/transport.hpp"
#include "util/result.hpp"
#include "util/vclock.hpp"

namespace snmpv3fp::net {

enum class BatchMode {
  kAuto,         // sendmmsg/recvmmsg (+GSO) where available, else fallback
  kPerDatagram,  // force the portable sendto/recvfrom loop
};

enum class EngineClock { kWall, kVirtual };

struct EngineConfig {
  Family family = Family::kIpv4;  // wire socket family
  BatchMode batch = BatchMode::kAuto;
  EngineClock clock = EngineClock::kVirtual;
  // Datagrams per kernel batch (sendmmsg/recvmmsg vector length and the
  // frame-pool capacity). Clamped to [1, kMaxBatch].
  std::size_t batch_size = 64;
  // Largest payload acquire_send_frame() hands out (excluding the encap
  // header). Larger sends take a one-off allocating path.
  std::size_t frame_bytes = 256;
  // Sim-encapsulation peer (the loopback reflector). Set -> every wire
  // datagram goes to this endpoint wrapped in a SimFrame header and the
  // socket is connected (ICMP errors surface as send_refused).
  std::optional<Endpoint> sim_peer;
  // Bind to the loopback address (port 0 = kernel-assigned) so the engine
  // has a stable local endpoint and never probes off-host by accident in
  // encap setups. Off for real scanning.
  bool bind_loopback = true;
  int sndbuf_bytes = 0;  // 0 = kernel default (SO_SNDBUF, FORCE if root)
  int rcvbuf_bytes = 0;  // 0 = kernel default (SO_RCVBUF, FORCE if root)
  // Virtual-time jump at or beyond this flushes pending sends and lingers
  // until every probe sent since the last linger is answered (encap) or
  // the wire falls silent (see linger_grace).
  util::VTime flush_horizon = 100 * util::kMillisecond;
  // Real-time silence after which a linger gives up. Encap engines end a
  // linger as soon as every probe is answered, so this is only the valve
  // for a lost frame: the shortfall counts one `flow_stalls` and the count
  // resets. Without encap there is nothing to count, and a linger ends
  // after this much silence. The timer resets on every arrival, so a busy
  // reflector extends the linger, never loses to it.
  util::VTime linger_grace = 100 * util::kMillisecond;
  // kWall only: run_until() really sleeps gaps up to this long; larger
  // gaps (scan boundaries) linger-drain and fast-forward the wall offset.
  util::VTime max_sleep = util::kSecond;
  // Encap flow control: maximum probes sent but not yet answered (the
  // reflector ends every answer with one final frame). 0 = auto: 2 x
  // batch_size for kVirtual encap (a virtual-time sender has no natural
  // pacing and would overrun the peer's receive buffer), disabled
  // otherwise.
  std::size_t flow_window = 0;
};

// The 28-byte sim-encapsulation header. Fixed layout:
//   [kind u8] [family u8 = 4|6] [address 16B, v4 in the first 4]
//   [port u16 BE] [vtime i64 BE]
struct SimFrame {
  static constexpr std::size_t kWireSize = 28;
  static constexpr std::uint8_t kData = 0xA7;  // payload follows the header
  static constexpr std::uint8_t kDrop = 0xA8;  // reflector drop notice
  // A response frame that is not the last of its probe's answer: payload
  // like kData, but the probe stays outstanding until its kData frame.
  static constexpr std::uint8_t kDataMore = 0xA9;

  std::uint8_t kind = kData;
  Endpoint logical;       // probe destination out, responding target back
  util::VTime time = 0;   // send vtime out, virtual arrival time back

  // Writes kWireSize bytes; out.size() must be >= kWireSize.
  void encode(std::span<std::uint8_t> out) const;
  static std::optional<SimFrame> decode(util::ByteView in);
};

class BatchedUdpEngine final : public Transport {
 public:
  static constexpr std::size_t kMaxBatch = 128;

  // Opens, configures and (optionally) binds/connects the socket. Fails
  // when sockets are unavailable (sandboxes) — callers surface that as a
  // visible SKIP, never a silent sim fallback.
  static util::Result<std::unique_ptr<BatchedUdpEngine>> open(
      const EngineConfig& config);
  // Opens `count` engines bound to one loopback port with SO_REUSEPORT: a
  // multi-worker SimFrame server behind one endpoint. The kernel steers
  // each arriving frame by its header's logical address, so every frame
  // about one target reaches the same engine and the load spreads evenly.
  // `config` must bind loopback and have no sim_peer.
  static util::Result<std::vector<std::unique_ptr<BatchedUdpEngine>>>
  open_group(const EngineConfig& config, std::size_t count);
  ~BatchedUdpEngine() override;

  // Transport.
  void send(Datagram datagram) override;
  void send_view(const Endpoint& source, const Endpoint& destination,
                 util::ByteView payload, util::VTime time) override;
  std::span<std::uint8_t> acquire_send_frame(std::size_t max_len) override;
  void commit_send_frame(const Endpoint& source, const Endpoint& destination,
                         std::size_t len, util::VTime time) override;
  std::optional<Datagram> receive() override;
  std::optional<DatagramView> receive_view() override;
  util::VTime now() const override;
  void run_until(util::VTime deadline) override;
  // Kernel backpressure and ICMP refusals are this transport's explicit
  // rate-limit signal: the adaptive pacer consumes deltas of this counter
  // exactly as it consumes the sim fabric's policing counter.
  std::uint64_t rate_limit_signals() const override {
    return stats_.send_pressure + stats_.send_refused;
  }
  const NetIoStats* net_stats() const override { return &stats_; }

  // Pushes all pending frames into the kernel now (batch boundary).
  // Invalidates any acquired-but-uncommitted frame.
  void flush();
  // Flushes, then drains arrivals until every probe is answered (encap)
  // or `linger_grace` of real-time silence. No-op when nothing was sent
  // since the last linger.
  void linger_drain();
  // Blocks (really) until the socket is readable or `timeout_ms` passes;
  // true when readable. A server loop calls it once it has served
  // everything queued.
  bool wait_readable(int timeout_ms);

  Endpoint local_endpoint() const { return local_; }
  const NetIoStats& stats() const { return stats_; }
  const EngineConfig& config() const { return config_; }
  bool batching() const { return use_mmsg_; }  // sendmmsg path active
  bool gso() const { return use_gso_; }        // UDP_SEGMENT coalescing active

 private:
  struct TxEntry;
  struct RxEntry;
  struct MmsgArrays;  // Linux mmsghdr/iovec scratch, hidden from the header

  explicit BatchedUdpEngine(const EngineConfig& config);
  // open() body; `reuse_port` set -> SO_REUSEPORT, bound to that loopback
  // port (0 = kernel-assigned).
  static util::Result<std::unique_ptr<BatchedUdpEngine>> open_socket(
      const EngineConfig& config, std::optional<std::uint16_t> reuse_port);

  void send_oversize(const Endpoint& destination, util::ByteView payload,
                     util::VTime time);
  // Sends tx_ entries starting at `start` with one sendmmsg; returns the
  // number of entries consumed (0 => sendmmsg unsupported, fall back).
  std::size_t flush_mmsg(std::size_t start);
  // Per-datagram fallback for tx_ entries starting at `start`.
  std::size_t flush_sendto(std::size_t start);
  // Pulls a kernel batch into the rx ring. `force` bypasses the idle
  // throttle. Returns true when the ring has data afterwards.
  bool refill(bool force);
  // Classifies one received wire datagram into the rx ring.
  // `source_storage` is its recvmmsg/recvfrom sockaddr_storage (nullptr on
  // a connected socket).
  void ingest(std::size_t offset, std::size_t len, bool truncated,
              const void* source_storage);
  // Moves every ring entry (and everything still in the kernel) into the
  // owned inbox. Allocates — only called off the per-probe hot path.
  void drain_to_inbox();
  // Blocks (really) until the flow window has room or a safety timeout.
  void flow_gate();
  bool wait_writable(int timeout_ms);

  EngineConfig config_;
  bool encap_ = false;
  bool connected_ = false;
  int fd_ = -1;
  Endpoint local_;
  // Prebuilt wire address of the encap peer for the unconnected fallbacks.
  alignas(8) unsigned char peer_addr_[128] = {};
  unsigned peer_len_ = 0;

  util::VirtualClock vclock_;      // kVirtual
  util::VTime wall_offset_ = 0;    // kWall: now() = steady_us() + offset

  bool use_mmsg_ = false;
  bool use_gso_ = false;

  // TX: frames packed back-to-back behind an append cursor, so a
  // destination-uniform equal-length batch is GSO-contiguous for free.
  std::vector<std::uint8_t> tx_buf_;
  std::vector<TxEntry> tx_;
  std::size_t tx_cursor_ = 0;
  std::size_t acquired_len_ = 0;
  bool acquired_ = false;
  std::uint64_t sent_since_linger_ = 0;
  std::int64_t outstanding_ = 0;  // encap probes sent minus probes answered

  // RX: fixed-stride ring refilled by recvmmsg, plus an owned inbox for
  // arrivals collected while waiting (served first, order-preserving).
  std::vector<std::uint8_t> rx_buf_;
  std::vector<RxEntry> ring_;
  std::size_t ring_pos_ = 0;
  std::size_t ring_count_ = 0;
  std::size_t rx_backoff_ = 0;
  std::deque<Datagram> inbox_;

  std::unique_ptr<MmsgArrays> mmsg_;
  NetIoStats stats_;
};

}  // namespace snmpv3fp::net
