// Stateless probe identification: probe ids that carry their own
// sequence number (the validation idea of ZMap, the paper's scanner, §3.2).
//
// Probe `seq` of a shard carries (msg_id, request_id) = a keyed 4-round
// Feistel permutation of `seq mod kPeriod` on Z_kSide x Z_kSide (modular-add
// rounds), each half offset into [kMinTwoByteId, kMaxTwoByteId]. Both ids
// therefore keep exactly two INTEGER content bytes and the probe stays at
// the paper's 60 bytes. Agents echo both ids in their REPORT, so decoding
// the echoed pair recovers the probe's sequence number — modulo kPeriod —
// with no per-probe state; latest_sent() lifts it to the full number.
// Ids are never drawn from the shard Rng and never reach a record.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "wire/probe_template.hpp"

namespace snmpv3fp::scan {

class ProbeIds {
 public:
  // Values per id field (32640) and the number of distinct id pairs.
  static constexpr std::uint32_t kSide =
      wire::kMaxTwoByteId - wire::kMinTwoByteId + 1;
  static constexpr std::uint64_t kPeriod = std::uint64_t{kSide} * kSide;

  struct Pair {
    std::int32_t msg_id = 0;
    std::int32_t request_id = 0;
  };

  explicit ProbeIds(std::uint64_t key) {
    util::Rng rng(key);
    for (auto& round_key : keys_) round_key = rng.next();
  }

  Pair encode(std::uint64_t seq) const {
    seq %= kPeriod;
    auto left = static_cast<std::uint32_t>(seq / kSide);
    auto right = static_cast<std::uint32_t>(seq % kSide);
    for (const std::uint64_t key : keys_) {
      const std::uint32_t next = add(left, round(key, right));
      left = right;
      right = next;
    }
    return {static_cast<std::int32_t>(left) + wire::kMinTwoByteId,
            static_cast<std::int32_t>(right) + wire::kMinTwoByteId};
  }

  // `seq mod kPeriod` of the probe that carried these ids; nullopt when
  // either id lies outside the two-byte range (no probe of ours sent it).
  std::optional<std::uint64_t> decode(std::int32_t msg_id,
                                      std::int32_t request_id) const {
    if (msg_id < wire::kMinTwoByteId || msg_id > wire::kMaxTwoByteId ||
        request_id < wire::kMinTwoByteId || request_id > wire::kMaxTwoByteId)
      return std::nullopt;
    auto left = static_cast<std::uint32_t>(msg_id - wire::kMinTwoByteId);
    auto right = static_cast<std::uint32_t>(request_id - wire::kMinTwoByteId);
    for (auto key = keys_.rbegin(); key != keys_.rend(); ++key) {
      const std::uint32_t previous = sub(right, round(*key, left));
      right = left;
      left = previous;
    }
    return std::uint64_t{left} * kSide + right;
  }

  // The latest sequence number below `sent` congruent to `residue` mod
  // kPeriod: the probe a response with that residue answers, when a probe
  // has been sent at all.
  static std::optional<std::uint64_t> latest_sent(std::uint64_t residue,
                                                  std::uint64_t sent) {
    if (residue >= sent) return std::nullopt;
    return residue + (sent - 1 - residue) / kPeriod * kPeriod;
  }

 private:
  // A keyed mix of x, mapped onto [0, kSide) by a multiply-shift range
  // reduction.
  static std::uint32_t round(std::uint64_t key, std::uint32_t x) {
    const std::uint64_t f = util::hash_combine(key, x);
    return static_cast<std::uint32_t>(((f >> 32) * kSide) >> 32);
  }
  static std::uint32_t add(std::uint32_t a, std::uint32_t b) {
    const std::uint32_t sum = a + b;
    return sum >= kSide ? sum - kSide : sum;
  }
  static std::uint32_t sub(std::uint32_t a, std::uint32_t b) {
    return a >= b ? a - b : a + kSide - b;
  }

  std::array<std::uint64_t, 4> keys_{};
};

}  // namespace snmpv3fp::scan
