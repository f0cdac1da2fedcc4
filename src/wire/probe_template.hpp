// Zero-allocation probe encoding for the census hot loop.
//
// Every discovery probe is byte-identical except for msgID and request-id
// (paper Figure 2: with both ids in [128, 32767] the payload is exactly 60
// bytes and both ids occupy exactly two content bytes). ProbeTemplate
// encodes the message ONCE through the full snmp/asn1 codec, locates the
// two id fields by differential encoding, and thereafter stamps only those
// four bytes into a caller-owned reusable buffer — no BER walk, no
// allocation after the buffer's first fill.
//
// Contract: stamp(m, r, out) leaves `out` bit-identical to
// make_discovery_request(m, r).encode() (tests/test_wire.cpp proves it
// across the id range); ids outside [128, 32767] return false and the
// caller must take the full-encoder path.
#pragma once

#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace snmpv3fp::wire {

// Ids whose INTEGER content is exactly two bytes — the range the prober's
// probe ids live in (scan/probe_ids.hpp).
inline constexpr std::int32_t kMinTwoByteId = 128;
inline constexpr std::int32_t kMaxTwoByteId = 32767;

class ProbeTemplate {
 public:
  // Encodes the reference message and locates the id offsets. Cheap (three
  // full encodes); build once per shard, outside the probe loop.
  ProbeTemplate();

  // Writes the complete probe for (msg_id, request_id) into `out`,
  // reusing its capacity (zero allocations once `out` has been stamped
  // once). Returns false — and leaves `out` untouched — if either id
  // falls outside [kMinTwoByteId, kMaxTwoByteId] or offset discovery
  // failed; the caller then falls back to the full encoder.
  bool stamp(std::int32_t msg_id, std::int32_t request_id,
             util::Bytes& out) const;

  // Stamps straight into caller-owned storage (a preallocated kernel batch
  // frame — net::Transport::acquire_send_frame) instead of a growable
  // buffer, extending the zero-allocation path end-to-end into the
  // sendmmsg iovec array. Returns false — writing nothing — when either id
  // is out of range, offset discovery failed, or `out` is smaller than the
  // probe; the caller then falls back to stamp()/the full encoder.
  bool stamp_into(std::int32_t msg_id, std::int32_t request_id,
                  std::span<std::uint8_t> out) const;

  bool valid() const { return valid_; }
  std::size_t size() const { return template_.size(); }
  // Fixed byte layout, exposed for tests and the docs diagram.
  std::size_t msg_id_offset() const { return msg_id_offset_; }
  std::size_t request_id_offset() const { return request_id_offset_; }
  util::ByteView bytes() const { return template_; }

 private:
  util::Bytes template_;
  std::size_t msg_id_offset_ = 0;
  std::size_t request_id_offset_ = 0;
  bool valid_ = false;
};

}  // namespace snmpv3fp::wire
