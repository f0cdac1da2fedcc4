// Datagram transport abstraction.
//
// The scanner sends SNMPv3 probes through a Transport and reads responses
// back; the same scanner code runs against the in-memory simulated fabric
// (sim::Fabric) or, for small-scale live probing, a real UDP socket
// (net::UdpSocket behind UdpTransport).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/ip.hpp"
#include "util/bytes.hpp"
#include "util/vclock.hpp"

namespace snmpv3fp::net {

inline constexpr std::uint16_t kSnmpPort = 161;

// Syscall/drop-cause accounting for one real-socket transport (summed
// across shards into scan::CampaignPair::net_io and reported by
// core/report.cpp). Lives here rather than in batched_udp.hpp so
// Transport can expose it polymorphically (net_stats() below).
struct NetIoStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;  // includes drop notices/bad frames
  std::uint64_t sendmmsg_calls = 0;
  std::uint64_t recvmmsg_calls = 0;
  std::uint64_t sendto_calls = 0;    // per-datagram fallback sends
  std::uint64_t recvfrom_calls = 0;  // per-datagram fallback receives
  std::uint64_t gso_batches = 0;     // UDP_SEGMENT super-packets sent
  // Drop/backpressure causes (satellite of the fabric's Table-1-style
  // accounting, for the real data plane).
  std::uint64_t send_pressure = 0;   // EAGAIN/ENOBUFS: kernel buffer full
  std::uint64_t send_refused = 0;    // ECONNREFUSED: ICMP port unreachable
  std::uint64_t send_errors = 0;     // hard errors; datagrams dropped
  std::uint64_t recv_truncated = 0;  // datagram larger than the ring frame
  std::uint64_t recv_bad_frame = 0;  // encap header failed to parse
  std::uint64_t recv_errors = 0;     // hard receive errors
  std::uint64_t drop_notices = 0;    // reflector dead/filtered notices
  std::uint64_t flow_stalls = 0;     // flow-gate/linger waits timed out

  NetIoStats& operator+=(const NetIoStats& other);
  bool operator==(const NetIoStats&) const = default;
};

struct Endpoint {
  IpAddress address;
  std::uint16_t port = 0;

  auto operator<=>(const Endpoint&) const = default;
  std::string to_string() const {
    return address.to_string() + ":" + std::to_string(port);
  }
};

struct Datagram {
  Endpoint source;
  Endpoint destination;
  util::Bytes payload;
  // Send time for outbound, receive time for inbound datagrams.
  util::VTime time = 0;
};

// Borrowed-payload view of a received datagram (the wire fast path's
// allocation-free receive). The payload view is owned by the transport and
// stays valid only until the next receive()/receive_view() call.
struct DatagramView {
  Endpoint source;
  Endpoint destination;
  util::ByteView payload;
  util::VTime time = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Queues a datagram for delivery. Never blocks.
  virtual void send(Datagram datagram) = 0;

  // Borrowed-payload send: the transport copies (or transmits) `payload`
  // before returning, so the caller may reuse the buffer immediately. The
  // default adapter copies into a Datagram; transports on the scan hot
  // path (sim::Fabric) override it to consume the bytes in place.
  virtual void send_view(const Endpoint& source, const Endpoint& destination,
                         util::ByteView payload, util::VTime time) {
    Datagram datagram;
    datagram.source = source;
    datagram.destination = destination;
    datagram.payload.assign(payload.begin(), payload.end());
    datagram.time = time;
    send(std::move(datagram));
  }

  // Zero-copy batched send path (net/batched_udp.hpp). A transport that
  // owns preallocated send frames hands one out here; the caller writes up
  // to `max_len` payload bytes into the span and finishes the send with
  // commit_send_frame() — no intermediate buffer, no copy. The default
  // returns an empty span, meaning "unsupported": callers must then take
  // the send()/send_view() path. An acquired frame is consumed only by the
  // matching commit; acquiring again without committing abandons it.
  virtual std::span<std::uint8_t> acquire_send_frame(std::size_t max_len) {
    (void)max_len;
    return {};
  }

  // Completes a send started by acquire_send_frame(): `len` is the number
  // of payload bytes written into the acquired span; source/destination/
  // time mean the same as on send(). Only called after a successful
  // acquire.
  virtual void commit_send_frame(const Endpoint& source,
                                 const Endpoint& destination, std::size_t len,
                                 util::VTime time) {
    (void)source;
    (void)destination;
    (void)len;
    (void)time;
  }

  // Pops the next datagram that has arrived by the transport's current
  // time, or nullopt if none is pending.
  virtual std::optional<Datagram> receive() = 0;

  // View-returning receive for the response hot loop: same datagrams in
  // the same order as receive(), but the payload is borrowed from a
  // transport-owned slot instead of moved into a caller-owned Bytes. The
  // view is invalidated by the next receive()/receive_view() call.
  virtual std::optional<DatagramView> receive_view() {
    auto datagram = receive();
    if (!datagram.has_value()) return std::nullopt;
    view_slot_ = std::move(*datagram);
    return DatagramView{view_slot_.source, view_slot_.destination,
                        view_slot_.payload, view_slot_.time};
  }

  // Current transport time (virtual in simulation, wall-clock otherwise).
  virtual util::VTime now() const = 0;

  // Advances virtual time / waits on real sockets until `deadline`,
  // allowing in-flight datagrams to arrive.
  virtual void run_until(util::VTime deadline) = 0;

  // Cumulative count of probes the far side explicitly refused with a
  // rate-limit signal (the ICMP admin-prohibited analogue). 0 for
  // transports that cannot observe it; the adaptive pacer consumes deltas
  // of this counter as a fast backoff input (scan/pacer.hpp).
  virtual std::uint64_t rate_limit_signals() const { return 0; }

  // Kernel I/O counters for transports that have them (the batched
  // engine), nullptr otherwise. Telemetry-only, never fed back into scan
  // decisions.
  virtual const NetIoStats* net_stats() const { return nullptr; }

 protected:
  // Backing storage for the default receive_view(): keeps the last popped
  // datagram alive while the caller holds its view.
  Datagram view_slot_;
};

}  // namespace snmpv3fp::net
