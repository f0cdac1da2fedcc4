#ifndef _GNU_SOURCE
#define _GNU_SOURCE  // sendmmsg/recvmmsg declarations
#endif

#include "net/batched_udp.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/filter.h>
#include <netinet/udp.h>
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103  // UDP GSO cmsg (linux >= 4.18); absent in old uapi
#endif
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>

#include "net/sockaddr_util.hpp"
#include "net/udp_socket.hpp"

namespace snmpv3fp::net {

namespace {

// Largest UDP payload one GSO super-packet may carry, and the kernel's
// per-packet segment cap (UDP_MAX_SEGMENTS).
constexpr std::size_t kMaxGsoBytes = 65000;
constexpr std::size_t kMaxGsoSegments = 64;
// Bounded retries on persistent kernel backpressure before dropping the
// rest of a batch (each retry waits up to kPressureWaitMs first).
constexpr int kPressureRetryCap = 200;
constexpr int kPressureWaitMs = 50;
// Consecutive empty refills before the idle throttle kicks in, expressed
// as skipped nonblocking recv attempts (amortizes hot-loop syscalls).
constexpr std::size_t kRxBackoffAttempts = 32;
// Flow-gate safety valve: give up waiting for reflector answers after this
// much real time and reopen the window (a lost datagram must never hang
// the scan).
constexpr util::VTime kFlowStallTimeout = 2 * util::kSecond;

util::VTime steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_socket_buffer(int fd, int option, int force_option, int bytes) {
  if (bytes <= 0) return;
#if defined(__linux__)
  // FORCE variants (CAP_NET_ADMIN) ignore rmem_max/wmem_max; fall through
  // to the capped plain option when not privileged.
  if (::setsockopt(fd, SOL_SOCKET, force_option, &bytes, sizeof bytes) == 0)
    return;
#else
  (void)force_option;
#endif
  ::setsockopt(fd, SOL_SOCKET, option, &bytes, sizeof bytes);
}

// Attaches a classic-BPF program to a SO_REUSEPORT group that picks the
// member by the SimFrame header's logical address: the four address words
// XOR-folded, modulo `members`. All frames about one target land on one
// member, and a group's load spreads evenly however few flows feed it
// (the kernel's default flow hash can put most flows on one member).
// Offsets are into the UDP payload; a datagram shorter than the header
// makes the program return 0, i.e. the first member. Best effort: on
// kernels without SO_ATTACH_REUSEPORT_CBPF the flow hash stays in charge.
void steer_by_sim_address(int fd, std::size_t members) {
#if defined(__linux__) && defined(SO_ATTACH_REUSEPORT_CBPF)
  sock_filter program[] = {
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, 2),
      BPF_STMT(BPF_MISC | BPF_TAX, 0),
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, 6),
      BPF_STMT(BPF_ALU | BPF_XOR | BPF_X, 0),
      BPF_STMT(BPF_MISC | BPF_TAX, 0),
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, 10),
      BPF_STMT(BPF_ALU | BPF_XOR | BPF_X, 0),
      BPF_STMT(BPF_MISC | BPF_TAX, 0),
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, 14),
      BPF_STMT(BPF_ALU | BPF_XOR | BPF_X, 0),
      BPF_STMT(BPF_ALU | BPF_MOD | BPF_K,
               static_cast<std::uint32_t>(members)),
      BPF_STMT(BPF_RET | BPF_A, 0),
  };
  const sock_fprog fprog{static_cast<unsigned short>(std::size(program)),
                         program};
  ::setsockopt(fd, SOL_SOCKET, SO_ATTACH_REUSEPORT_CBPF, &fprog, sizeof fprog);
#else
  (void)fd;
  (void)members;
#endif
}

}  // namespace

NetIoStats& NetIoStats::operator+=(const NetIoStats& other) {
  datagrams_sent += other.datagrams_sent;
  datagrams_received += other.datagrams_received;
  sendmmsg_calls += other.sendmmsg_calls;
  recvmmsg_calls += other.recvmmsg_calls;
  sendto_calls += other.sendto_calls;
  recvfrom_calls += other.recvfrom_calls;
  gso_batches += other.gso_batches;
  send_pressure += other.send_pressure;
  send_refused += other.send_refused;
  send_errors += other.send_errors;
  recv_truncated += other.recv_truncated;
  recv_bad_frame += other.recv_bad_frame;
  recv_errors += other.recv_errors;
  drop_notices += other.drop_notices;
  flow_stalls += other.flow_stalls;
  return *this;
}

void SimFrame::encode(std::span<std::uint8_t> out) const {
  out[0] = kind;
  std::memset(&out[2], 0, 16);
  if (logical.address.is_v4()) {
    out[1] = 4;
    const std::uint32_t v = logical.address.v4().value();
    out[2] = static_cast<std::uint8_t>(v >> 24);
    out[3] = static_cast<std::uint8_t>(v >> 16);
    out[4] = static_cast<std::uint8_t>(v >> 8);
    out[5] = static_cast<std::uint8_t>(v);
  } else {
    out[1] = 6;
    std::memcpy(&out[2], logical.address.v6().bytes().data(), 16);
  }
  out[18] = static_cast<std::uint8_t>(logical.port >> 8);
  out[19] = static_cast<std::uint8_t>(logical.port);
  const auto t = static_cast<std::uint64_t>(time);
  for (int i = 0; i < 8; ++i)
    out[20 + i] = static_cast<std::uint8_t>(t >> (56 - 8 * i));
}

std::optional<SimFrame> SimFrame::decode(util::ByteView in) {
  if (in.size() < kWireSize) return std::nullopt;
  if (in[0] != kData && in[0] != kDrop && in[0] != kDataMore)
    return std::nullopt;
  SimFrame frame;
  frame.kind = in[0];
  if (in[1] == 4) {
    frame.logical.address =
        Ipv4((std::uint32_t{in[2]} << 24) | (std::uint32_t{in[3]} << 16) |
             (std::uint32_t{in[4]} << 8) | in[5]);
  } else if (in[1] == 6) {
    std::array<std::uint8_t, 16> bytes{};
    std::memcpy(bytes.data(), &in[2], 16);
    frame.logical.address = Ipv6(bytes);
  } else {
    return std::nullopt;
  }
  frame.logical.port =
      static_cast<std::uint16_t>((std::uint16_t{in[18]} << 8) | in[19]);
  std::uint64_t t = 0;
  for (int i = 0; i < 8; ++i) t = (t << 8) | in[20 + i];
  frame.time = static_cast<util::VTime>(t);
  return frame;
}

// One committed-but-unflushed datagram: its packed extent in tx_buf_ plus
// the resolved wire address (unused on connected sockets).
struct BatchedUdpEngine::TxEntry {
  std::uint32_t offset = 0;
  std::uint32_t len = 0;  // wire length, including any encap header
  sockaddr_storage addr{};
  socklen_t addr_len = 0;
};

// One received wire datagram in the rx ring, post header rewrite.
struct BatchedUdpEngine::RxEntry {
  Endpoint source;
  util::VTime time = 0;
  std::uint32_t offset = 0;
  std::uint32_t len = 0;
};

struct BatchedUdpEngine::MmsgArrays {
#if defined(__linux__)
  std::vector<mmsghdr> tx_msgs;
  std::vector<iovec> tx_iovs;
  std::vector<std::size_t> tx_segs;  // datagrams per message (GSO > 1)
  std::vector<std::array<char, CMSG_SPACE(sizeof(std::uint16_t))>> tx_ctrl;
  std::vector<mmsghdr> rx_msgs;
  std::vector<iovec> rx_iovs;
  std::vector<sockaddr_storage> rx_addrs;
#endif
};

BatchedUdpEngine::BatchedUdpEngine(const EngineConfig& config)
    : config_(config), mmsg_(std::make_unique<MmsgArrays>()) {
  encap_ = config_.sim_peer.has_value();
  const std::size_t header = encap_ ? SimFrame::kWireSize : 0;
  tx_buf_.resize(config_.batch_size * (config_.frame_bytes + header));
  tx_.reserve(config_.batch_size);
  const std::size_t stride =
      std::max<std::size_t>(2048, config_.frame_bytes + header);
  rx_buf_.resize(config_.batch_size * stride);
  ring_.resize(config_.batch_size);
  if (config_.clock == EngineClock::kWall) wall_offset_ = -steady_us();
#if defined(__linux__)
  auto& m = *mmsg_;
  m.tx_msgs.resize(config_.batch_size);
  m.tx_iovs.resize(config_.batch_size);
  m.tx_segs.resize(config_.batch_size);
  m.tx_ctrl.resize(config_.batch_size);
  m.rx_msgs.resize(config_.batch_size);
  m.rx_iovs.resize(config_.batch_size);
  m.rx_addrs.resize(config_.batch_size);
#endif
}

BatchedUdpEngine::~BatchedUdpEngine() {
  flush();
  if (fd_ >= 0) ::close(fd_);
}

util::Result<std::unique_ptr<BatchedUdpEngine>> BatchedUdpEngine::open(
    const EngineConfig& config) {
  return open_socket(config, std::nullopt);
}

util::Result<std::vector<std::unique_ptr<BatchedUdpEngine>>>
BatchedUdpEngine::open_group(const EngineConfig& config, std::size_t count) {
  using R = util::Result<std::vector<std::unique_ptr<BatchedUdpEngine>>>;
  if (count == 0 || !config.bind_loopback || config.sim_peer.has_value())
    return R::failure("open_group: needs count >= 1, loopback, no sim_peer");
  std::vector<std::unique_ptr<BatchedUdpEngine>> engines;
  std::uint16_t port = 0;  // the first bind picks it; the rest join it
  for (std::size_t i = 0; i < count; ++i) {
    auto engine = open_socket(config, port);
    if (!engine.ok()) return R::failure(engine.error());
    engines.push_back(std::move(engine).value());
    port = engines.front()->local_.port;
  }
  if (count > 1) steer_by_sim_address(engines.front()->fd_, count);
  return R(std::move(engines));
}

util::Result<std::unique_ptr<BatchedUdpEngine>> BatchedUdpEngine::open_socket(
    const EngineConfig& config_in, std::optional<std::uint16_t> reuse_port) {
  using R = util::Result<std::unique_ptr<BatchedUdpEngine>>;
  EngineConfig config = config_in;
  config.batch_size = std::clamp<std::size_t>(config.batch_size, 1, kMaxBatch);
  config.frame_bytes = std::max<std::size_t>(config.frame_bytes, 64);
  if (config.sim_peer.has_value())
    config.family = config.sim_peer->address.is_v4() ? Family::kIpv4
                                                     : Family::kIpv6;
  if (config.flow_window == 0 && config.sim_peer.has_value() &&
      config.clock == EngineClock::kVirtual)
    config.flow_window = 2 * config.batch_size;

  const int domain = config.family == Family::kIpv4 ? AF_INET : AF_INET6;
  const int fd = ::socket(domain, SOCK_DGRAM, IPPROTO_UDP);
  if (fd < 0) return R::failure(std::string("socket: ") + std::strerror(errno));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    const int saved = errno;
    ::close(fd);
    return R::failure(std::string("fcntl: ") + std::strerror(saved));
  }
  set_socket_buffer(fd, SO_SNDBUF,
#if defined(__linux__)
                    SO_SNDBUFFORCE,
#else
                    SO_SNDBUF,
#endif
                    config.sndbuf_bytes);
  set_socket_buffer(fd, SO_RCVBUF,
#if defined(__linux__)
                    SO_RCVBUFFORCE,
#else
                    SO_RCVBUF,
#endif
                    config.rcvbuf_bytes);

  std::unique_ptr<BatchedUdpEngine> engine(new BatchedUdpEngine(config));
  engine->fd_ = fd;
  if (reuse_port.has_value()) {
#if defined(SO_REUSEPORT)
    const int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0)
      return R::failure(std::string("SO_REUSEPORT: ") + std::strerror(errno));
#else
    return R::failure("SO_REUSEPORT unsupported");
#endif
  }
  if (config.bind_loopback) {
    Endpoint loopback;
    loopback.address = config.family == Family::kIpv4
                           ? IpAddress(Ipv4(127, 0, 0, 1))
                           : IpAddress(Ipv6::from_groups(
                                 {0, 0, 0, 0, 0, 0, 0, 1}));
    loopback.port = reuse_port.value_or(0);
    sockaddr_storage addr{};
    const socklen_t len = detail::to_sockaddr(loopback, addr);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0)
      return R::failure(std::string("bind: ") + std::strerror(errno));
  }
  {
    sockaddr_storage addr{};
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
      engine->local_ = detail::from_sockaddr(addr);
  }
  if (config.sim_peer.has_value()) {
    sockaddr_storage addr{};
    const socklen_t len = detail::to_sockaddr(*config.sim_peer, addr);
    static_assert(sizeof(engine->peer_addr_) >= sizeof(sockaddr_storage));
    std::memcpy(engine->peer_addr_, &addr, sizeof addr);
    engine->peer_len_ = len;
    // Connected: single-peer sends skip the route lookup and the kernel
    // reports ICMP port-unreachable back as ECONNREFUSED.
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), len) != 0)
      return R::failure(std::string("connect: ") + std::strerror(errno));
    engine->connected_ = true;
  }
#if defined(__linux__)
  engine->use_mmsg_ =
      config.batch != BatchMode::kPerDatagram && config.batch_size > 1;
  engine->use_gso_ = engine->use_mmsg_;
#endif
  return R(std::move(engine));
}

util::VTime BatchedUdpEngine::now() const {
  if (config_.clock == EngineClock::kVirtual) return vclock_.now();
  return steady_us() + wall_offset_;
}

bool BatchedUdpEngine::wait_readable(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  // EINTR retries inside re-arm with the remaining timeout only: a
  // signal (timer, SIGCHLD...) is not an arrival and not an error.
  if (poll_interruptible(&pfd, 1, timeout_ms) <= 0) return false;
  rx_backoff_ = 0;  // data is known to be there: skip the idle throttle
  return true;
}

bool BatchedUdpEngine::wait_writable(int timeout_ms) {
  pollfd pfd{fd_, POLLOUT, 0};
  return poll_interruptible(&pfd, 1, timeout_ms) > 0;
}

std::span<std::uint8_t> BatchedUdpEngine::acquire_send_frame(
    std::size_t max_len) {
  if (max_len > config_.frame_bytes) return {};
  if (config_.flow_window > 0 &&
      outstanding_ + static_cast<std::int64_t>(tx_.size()) >=
          static_cast<std::int64_t>(config_.flow_window))
    flow_gate();
  const std::size_t header = encap_ ? SimFrame::kWireSize : 0;
  if (tx_.size() >= config_.batch_size ||
      tx_cursor_ + header + max_len > tx_buf_.size())
    flush();
  acquired_len_ = max_len;
  acquired_ = true;
  return {tx_buf_.data() + tx_cursor_ + header, max_len};
}

void BatchedUdpEngine::commit_send_frame(const Endpoint& /*source*/,
                                         const Endpoint& destination,
                                         std::size_t len, util::VTime time) {
  if (!acquired_ || len > acquired_len_) return;  // abandoned or contract bug
  acquired_ = false;
  TxEntry entry;
  entry.offset = static_cast<std::uint32_t>(tx_cursor_);
  if (encap_) {
    SimFrame frame;
    frame.logical = destination;
    frame.time = time;
    frame.encode({tx_buf_.data() + tx_cursor_, SimFrame::kWireSize});
    entry.len = static_cast<std::uint32_t>(SimFrame::kWireSize + len);
  } else {
    entry.len = static_cast<std::uint32_t>(len);
    entry.addr_len = detail::to_sockaddr(destination, entry.addr);
  }
  tx_cursor_ += entry.len;
  tx_.push_back(entry);
  ++outstanding_;
  if (tx_.size() >= config_.batch_size) flush();
}

void BatchedUdpEngine::send_view(const Endpoint& source,
                                 const Endpoint& destination,
                                 util::ByteView payload, util::VTime time) {
  const auto frame = acquire_send_frame(payload.size());
  if (frame.size() >= payload.size() && !payload.empty()) {
    std::memcpy(frame.data(), payload.data(), payload.size());
    commit_send_frame(source, destination, payload.size(), time);
    return;
  }
  acquired_ = false;
  send_oversize(destination, payload, time);
}

void BatchedUdpEngine::send(Datagram datagram) {
  send_view(datagram.source, datagram.destination, datagram.payload,
            datagram.time);
}

void BatchedUdpEngine::send_oversize(const Endpoint& destination,
                                     util::ByteView payload, util::VTime time) {
  // Rare path (payload > frame_bytes, or empty): one allocating sendto,
  // flushed in order behind anything already pending.
  flush();
  util::Bytes wire;
  if (encap_) {
    wire.resize(SimFrame::kWireSize + payload.size());
    SimFrame frame;
    frame.logical = destination;
    frame.time = time;
    frame.encode({wire.data(), SimFrame::kWireSize});
    std::memcpy(wire.data() + SimFrame::kWireSize, payload.data(),
                payload.size());
  } else {
    wire.assign(payload.begin(), payload.end());
  }
  sockaddr_storage addr{};
  socklen_t addr_len = 0;
  if (!connected_) addr_len = detail::to_sockaddr(destination, addr);
  ++outstanding_;
  for (int attempt = 0; attempt < kPressureRetryCap; ++attempt) {
    const ssize_t sent = ::sendto(
        fd_, wire.data(), wire.size(), 0,
        connected_ ? nullptr : reinterpret_cast<const sockaddr*>(&addr),
        connected_ ? 0 : addr_len);
    ++stats_.sendto_calls;
    if (sent >= 0) {
      ++stats_.datagrams_sent;
      ++sent_since_linger_;
      return;
    }
    const auto outcome = classify_send_errno(errno);
    if (outcome == SendOutcome::kWouldBlock) {
      ++stats_.send_pressure;
      wait_writable(kPressureWaitMs);
      continue;
    }
    if (outcome == SendOutcome::kRefused) {
      ++stats_.send_refused;
      continue;  // the refusal belonged to an earlier datagram; retry
    }
    break;
  }
  ++stats_.send_errors;
  if (outstanding_ > 0) --outstanding_;
}

void BatchedUdpEngine::flush() {
  acquired_ = false;
  if (tx_.empty()) {
    tx_cursor_ = 0;
    return;
  }
  const std::uint64_t before = stats_.datagrams_sent;
  std::size_t index = 0;
  while (index < tx_.size()) {
    std::size_t consumed = 0;
#if defined(__linux__)
    if (use_mmsg_) consumed = flush_mmsg(index);
#endif
    if (consumed == 0) consumed = flush_sendto(index);
    index += consumed;
  }
  sent_since_linger_ += stats_.datagrams_sent - before;
  tx_.clear();
  tx_cursor_ = 0;
}

#if defined(__linux__)
std::size_t BatchedUdpEngine::flush_mmsg(std::size_t start) {
  auto& m = *mmsg_;
  const std::size_t total = tx_.size();
  const TxEntry& first = tx_[start];
  // Extent of the destination-uniform equal-length run at `start` (encap
  // mode: everything — the socket is connected to one peer).
  std::size_t uniform_end = start + 1;
  while (uniform_end < total) {
    const TxEntry& e = tx_[uniform_end];
    if (e.len != first.len) break;
    if (!connected_ &&
        (e.addr_len != first.addr_len ||
         std::memcmp(&e.addr, &first.addr, first.addr_len) != 0))
      break;
    ++uniform_end;
  }
  const std::size_t run = uniform_end - start;
  const bool gso = use_gso_ && run >= 2 && first.len > 0 &&
                   static_cast<std::size_t>(first.len) * 2 <= kMaxGsoBytes;
  std::size_t nmsgs = 0;
  std::size_t entries = 0;
  if (gso) {
    // Frames are packed back-to-back behind the append cursor, so the run
    // is one contiguous byte range: chunk it into UDP_SEGMENT
    // super-packets of up to kMaxGsoSegments datagrams each.
    const std::size_t max_segs =
        std::min(kMaxGsoSegments, kMaxGsoBytes / first.len);
    std::size_t at = start;
    while (at < uniform_end && nmsgs < m.tx_msgs.size()) {
      const std::size_t segs = std::min(max_segs, uniform_end - at);
      m.tx_iovs[nmsgs] = {tx_buf_.data() + tx_[at].offset,
                          segs * static_cast<std::size_t>(first.len)};
      msghdr& h = m.tx_msgs[nmsgs].msg_hdr;
      std::memset(&h, 0, sizeof h);
      h.msg_iov = &m.tx_iovs[nmsgs];
      h.msg_iovlen = 1;
      if (!connected_) {
        h.msg_name = &tx_[at].addr;
        h.msg_namelen = first.addr_len;
      }
      if (segs > 1) {
        h.msg_control = m.tx_ctrl[nmsgs].data();
        h.msg_controllen = CMSG_SPACE(sizeof(std::uint16_t));
        cmsghdr* cm = CMSG_FIRSTHDR(&h);
        cm->cmsg_level = SOL_UDP;
        cm->cmsg_type = UDP_SEGMENT;
        cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
        const auto seg_len = static_cast<std::uint16_t>(first.len);
        std::memcpy(CMSG_DATA(cm), &seg_len, sizeof seg_len);
      }
      m.tx_segs[nmsgs] = segs;
      at += segs;
      ++nmsgs;
    }
    entries = at - start;
  } else {
    std::size_t at = start;
    while (at < total && nmsgs < m.tx_msgs.size()) {
      TxEntry& e = tx_[at];
      m.tx_iovs[nmsgs] = {tx_buf_.data() + e.offset,
                          static_cast<std::size_t>(e.len)};
      msghdr& h = m.tx_msgs[nmsgs].msg_hdr;
      std::memset(&h, 0, sizeof h);
      h.msg_iov = &m.tx_iovs[nmsgs];
      h.msg_iovlen = 1;
      if (!connected_) {
        h.msg_name = &e.addr;
        h.msg_namelen = e.addr_len;
      }
      m.tx_segs[nmsgs] = 1;
      ++at;
      ++nmsgs;
    }
    entries = at - start;
  }

  std::size_t sent_msgs = 0;
  int stalls = 0;
  while (sent_msgs < nmsgs) {
    const int ret = ::sendmmsg(fd_, m.tx_msgs.data() + sent_msgs,
                               static_cast<unsigned>(nmsgs - sent_msgs), 0);
    if (ret < 0) {
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS) {
        ++stats_.send_pressure;
        wait_writable(kPressureWaitMs);
        if (++stalls <= kPressureRetryCap) continue;
      } else if (err == ECONNREFUSED) {
        // The refusal belonged to an earlier datagram on this connected
        // socket; the current batch was not transmitted — retry it.
        ++stats_.send_refused;
        if (++stalls <= kPressureRetryCap) continue;
      } else if (gso && (err == EINVAL || err == EIO || err == ENOTSUP ||
                         err == EOPNOTSUPP)) {
        // Kernel without UDP GSO: degrade permanently and resend this
        // range as plain per-datagram messages (recursion depth 1).
        use_gso_ = false;
        return flush_mmsg(start);
      } else if (err == ENOSYS) {
        use_mmsg_ = false;  // caller falls back to the sendto loop
        return 0;
      }
      // Persistent stall or hard error: drop the rest of this batch.
      for (std::size_t i = sent_msgs; i < nmsgs; ++i) {
        stats_.send_errors += m.tx_segs[i];
        outstanding_ -= static_cast<std::int64_t>(m.tx_segs[i]);
      }
      if (outstanding_ < 0) outstanding_ = 0;
      break;
    }
    ++stats_.sendmmsg_calls;
    for (int i = 0; i < ret; ++i) {
      stats_.datagrams_sent += m.tx_segs[sent_msgs + i];
      if (m.tx_segs[sent_msgs + i] > 1) ++stats_.gso_batches;
    }
    sent_msgs += static_cast<std::size_t>(ret);
    stalls = 0;
  }
  return entries;
}
#else
std::size_t BatchedUdpEngine::flush_mmsg(std::size_t) { return 0; }
#endif

std::size_t BatchedUdpEngine::flush_sendto(std::size_t start) {
  std::size_t at = start;
  for (; at < tx_.size(); ++at) {
    const TxEntry& e = tx_[at];
    bool sent_ok = false;
    for (int attempt = 0; attempt < kPressureRetryCap; ++attempt) {
      const ssize_t sent = ::sendto(
          fd_, tx_buf_.data() + e.offset, e.len, 0,
          connected_ ? nullptr : reinterpret_cast<const sockaddr*>(&e.addr),
          connected_ ? 0 : e.addr_len);
      ++stats_.sendto_calls;
      if (sent >= 0) {
        ++stats_.datagrams_sent;
        sent_ok = true;
        break;
      }
      const auto outcome = classify_send_errno(errno);
      if (outcome == SendOutcome::kWouldBlock) {
        ++stats_.send_pressure;
        wait_writable(kPressureWaitMs);
        continue;
      }
      if (outcome == SendOutcome::kRefused) {
        ++stats_.send_refused;
        continue;
      }
      break;
    }
    if (!sent_ok) {
      ++stats_.send_errors;
      if (outstanding_ > 0) --outstanding_;
    }
  }
  return at - start;
}

void BatchedUdpEngine::ingest(std::size_t offset, std::size_t len,
                              bool truncated, const void* source_storage) {
  ++stats_.datagrams_received;
  if (truncated) ++stats_.recv_truncated;
  RxEntry entry;
  if (encap_) {
    const auto frame =
        SimFrame::decode({rx_buf_.data() + offset, len});
    if (!frame.has_value()) {
      ++stats_.recv_bad_frame;
      return;
    }
    // One decrement per probe: on its final frame, never on a kDataMore.
    if (frame->kind != SimFrame::kDataMore && outstanding_ > 0)
      --outstanding_;
    if (frame->kind == SimFrame::kDrop) {
      ++stats_.drop_notices;
      return;
    }
    entry.source = frame->logical;
    entry.time = frame->time;
    entry.offset = static_cast<std::uint32_t>(offset + SimFrame::kWireSize);
    entry.len = static_cast<std::uint32_t>(len - SimFrame::kWireSize);
  } else {
    entry.source =
        source_storage != nullptr
            ? detail::from_sockaddr(
                  *static_cast<const sockaddr_storage*>(source_storage))
            : (config_.sim_peer.has_value() ? *config_.sim_peer : Endpoint{});
    entry.time = now();
    entry.offset = static_cast<std::uint32_t>(offset);
    entry.len = static_cast<std::uint32_t>(len);
  }
  ring_[ring_count_++] = entry;
}

bool BatchedUdpEngine::refill(bool force) {
  if (ring_pos_ < ring_count_) return true;
  if (!force && rx_backoff_ > 0) {
    --rx_backoff_;
    return false;
  }
  ring_pos_ = 0;
  ring_count_ = 0;
  const std::size_t cap = config_.batch_size;
  const std::size_t stride = rx_buf_.size() / cap;
#if defined(__linux__)
  if (use_mmsg_) {
    auto& m = *mmsg_;
    for (std::size_t i = 0; i < cap; ++i) {
      m.rx_iovs[i] = {rx_buf_.data() + i * stride, stride};
      msghdr& h = m.rx_msgs[i].msg_hdr;
      std::memset(&h, 0, sizeof h);
      h.msg_iov = &m.rx_iovs[i];
      h.msg_iovlen = 1;
      if (!connected_) {
        h.msg_name = &m.rx_addrs[i];
        h.msg_namelen = sizeof(sockaddr_storage);
      }
    }
    int ret;
    while ((ret = ::recvmmsg(fd_, m.rx_msgs.data(),
                             static_cast<unsigned>(cap), MSG_DONTWAIT,
                             nullptr)) < 0 &&
           errno == EINTR) {
      // classify_recv_errno(EINTR) == kRetry: a signal interrupted the
      // call before any datagram moved — retrying is free and correct.
    }
    if (ret < 0) {
      const int err = errno;
      if (err == ENOSYS) {
        use_mmsg_ = false;
        return refill(force);
      }
      switch (classify_recv_errno(err)) {
        case RecvErrnoAction::kRefused:
          // ICMP port-unreachable latched against a probe we sent.
          ++stats_.send_refused;
          break;
        case RecvErrnoAction::kHard:
          ++stats_.recv_errors;
          break;
        case RecvErrnoAction::kRetry:
        case RecvErrnoAction::kEmpty:
          break;
      }
    } else {
      ++stats_.recvmmsg_calls;
      for (int i = 0; i < ret; ++i) {
        const msghdr& h = m.rx_msgs[i].msg_hdr;
        const bool truncated = (h.msg_flags & MSG_TRUNC) != 0;
        const std::size_t len =
            std::min<std::size_t>(m.rx_msgs[i].msg_len, stride);
        ingest(i * stride, len, truncated,
               connected_ ? nullptr : &m.rx_addrs[i]);
      }
    }
  } else
#endif
  {
    for (std::size_t i = 0; i < cap; ++i) {
      sockaddr_storage from{};
      socklen_t from_len = sizeof from;
      int flags = 0;
#if defined(__linux__)
      flags = MSG_DONTWAIT | MSG_TRUNC;  // returns the real wire size
#endif
      ssize_t got;
      while ((got = ::recvfrom(
                  fd_, rx_buf_.data() + i * stride, stride, flags,
                  connected_ ? nullptr : reinterpret_cast<sockaddr*>(&from),
                  connected_ ? nullptr : &from_len)) < 0 &&
             errno == EINTR) {
        // EINTR is a retry, not an empty queue and not an error (the
        // latent bug this replaces broke out of the refill loop here).
      }
      if (got < 0) {
        const auto action = classify_recv_errno(errno);
        if (action == RecvErrnoAction::kRefused) {
          ++stats_.send_refused;
          continue;
        }
        if (action == RecvErrnoAction::kHard) ++stats_.recv_errors;
        break;
      }
      ++stats_.recvfrom_calls;
      const auto wire = static_cast<std::size_t>(got);
      ingest(i * stride, std::min(wire, stride), wire > stride,
             connected_ ? nullptr : &from);
    }
  }
  if (ring_count_ == 0) {
    if (!force) rx_backoff_ = kRxBackoffAttempts;
    return false;
  }
  rx_backoff_ = 0;
  return true;
}

std::optional<DatagramView> BatchedUdpEngine::receive_view() {
  if (!inbox_.empty()) {
    view_slot_ = std::move(inbox_.front());
    inbox_.pop_front();
    return DatagramView{view_slot_.source, view_slot_.destination,
                        view_slot_.payload, view_slot_.time};
  }
  if (ring_pos_ >= ring_count_ && !refill(/*force=*/false))
    return std::nullopt;
  const RxEntry& entry = ring_[ring_pos_++];
  return DatagramView{entry.source,
                      Endpoint{local_.address, local_.port},
                      {rx_buf_.data() + entry.offset, entry.len},
                      entry.time};
}

std::optional<Datagram> BatchedUdpEngine::receive() {
  const auto view = receive_view();
  if (!view.has_value()) return std::nullopt;
  Datagram datagram;
  datagram.source = view->source;
  datagram.destination = view->destination;
  datagram.payload.assign(view->payload.begin(), view->payload.end());
  datagram.time = view->time;
  return datagram;
}

void BatchedUdpEngine::drain_to_inbox() {
  for (;;) {
    while (ring_pos_ < ring_count_) {
      const RxEntry& entry = ring_[ring_pos_++];
      Datagram datagram;
      datagram.source = entry.source;
      datagram.destination = Endpoint{local_.address, local_.port};
      datagram.payload.assign(rx_buf_.data() + entry.offset,
                              rx_buf_.data() + entry.offset + entry.len);
      datagram.time = entry.time;
      inbox_.push_back(std::move(datagram));
    }
    if (!refill(/*force=*/true)) return;
  }
}

void BatchedUdpEngine::flow_gate() {
  flush();
  const util::VTime start = steady_us();
  util::VTime last_arrival = start;
  while (outstanding_ >= static_cast<std::int64_t>(config_.flow_window)) {
    const std::int64_t before = outstanding_;
    drain_to_inbox();
    const util::VTime t = steady_us();
    if (outstanding_ < before) last_arrival = t;
    if (t - last_arrival > kFlowStallTimeout) {
      // A datagram (or its answer) was lost; reopen the window rather
      // than hang the scan. The loss shows up in the drop-cause counters.
      ++stats_.flow_stalls;
      outstanding_ = 0;
      return;
    }
    if (outstanding_ >= static_cast<std::int64_t>(config_.flow_window))
      wait_readable(1);
  }
}

void BatchedUdpEngine::linger_drain() {
  if (sent_since_linger_ == 0) return;
  flush();
  const util::VTime grace =
      std::max<util::VTime>(config_.linger_grace, util::kMillisecond);
  util::VTime last_arrival = steady_us();
  for (;;) {
    const std::uint64_t before = stats_.datagrams_received;
    drain_to_inbox();
    // Encap: every probe answered is the exact end of the linger.
    if (encap_ && outstanding_ == 0) break;
    const util::VTime t = steady_us();
    if (stats_.datagrams_received > before) last_arrival = t;
    const util::VTime silent = t - last_arrival;
    if (silent >= grace) {
      if (encap_) {
        // A frame (or its answer) was lost: give up on it, as flow_gate
        // does, so the next scan starts from a clean count.
        ++stats_.flow_stalls;
        outstanding_ = 0;
      }
      break;
    }
    wait_readable(
        static_cast<int>(std::max<util::VTime>((grace - silent) / 1000, 1)));
  }
  sent_since_linger_ = 0;
}

void BatchedUdpEngine::run_until(util::VTime deadline) {
  if (config_.clock == EngineClock::kVirtual) {
    // Small jumps leave pending frames batching across probes (the
    // reflector consumes the header timestamp, not the arrival instant,
    // so delayed transmission never changes a response). Large jumps are
    // schedule boundaries: push everything out and wait for in-flight
    // datagrams before the clock moves past them.
    if (deadline - vclock_.now() >= config_.flush_horizon) {
      flush();
      linger_drain();
    }
    vclock_.advance_to(deadline);
    return;
  }
  for (;;) {
    const util::VTime gap = deadline - now();
    if (gap <= 0) return;
    if (gap > config_.max_sleep) {
      // Scan boundary: wait (really) for stragglers, then fast-forward
      // the wall offset instead of sleeping out the gap.
      flush();
      linger_drain();
      wall_offset_ += deadline - now();
      return;
    }
    flush();
    if (wait_readable(static_cast<int>(gap / 1000)))  // 0 => nonblocking poll
      drain_to_inbox();
  }
}

}  // namespace snmpv3fp::net
