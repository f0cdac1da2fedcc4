// Streaming scan targets: ZMap-style permuted prefix sweeps.
//
// A census-scale campaign cannot materialize its target list — 100M+
// IpAddress entries would dwarf the responder state the procedural world
// was built to avoid. A TargetSpec instead describes the sweep as prefix
// ranges, and TargetGenerator visits every address exactly once in a
// pseudo-random order computed positionally: position i -> address is a
// pure O(1) function (a keyed Feistel permutation with cycle-walking, the
// classic ZMap construction), so any shard's slice — and any checkpoint
// cursor inside it — is reproducible from (spec, seed) alone. Memory is
// O(ranges), independent of how many addresses the sweep covers.
//
// TargetSequence is the read-only indexable view the Prober consumes; it
// abstracts over materialized lists (SpanTargets) and generated sweeps
// (GeneratorSlice) so both campaign modes share one probe loop. The loop
// fetches targets in batches (fill), which lets a generated sweep run the
// permutation of a whole batch side by side instead of one chain at a time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/ip.hpp"

namespace snmpv3fp::scan {

// A sweep over one or more disjoint v4 prefixes (the procedural world's
// scenario regions, or any ad-hoc range set).
struct TargetSpec {
  std::vector<net::Prefix4> ranges;
  // Feistel rounds for the probe-order permutation. 4 is ZMap's choice;
  // more rounds buy nothing for scan order.
  std::uint32_t feistel_rounds = 4;

  // Total addresses covered (sum of range sizes).
  std::uint64_t total() const;
};

// Enumerates a TargetSpec in a keyed pseudo-random order. Stateless after
// construction: at(i) is const, thread-safe, and O(rounds).
class TargetGenerator {
 public:
  TargetGenerator(const TargetSpec& spec, std::uint64_t seed);

  std::uint64_t size() const { return total_; }

  // The i-th target of the permuted sweep, i in [0, size()).
  net::IpAddress at(std::uint64_t index) const;

  // out[j] = at(first + j) for every j, without allocating.
  void fill(std::uint64_t first, std::span<net::IpAddress> out) const;

 private:
  // One balanced-Feistel pass over the 2*half_bits_ domain, applied to
  // each value in place.
  void permute(std::span<std::uint64_t> values) const;
  // The address at `position` of the concatenated ranges, position <
  // size().
  net::IpAddress address_of(std::uint64_t position) const;

  std::vector<net::Prefix4> ranges_;
  std::vector<std::uint64_t> cumulative_;  // exclusive prefix sums of sizes
  std::uint64_t total_ = 0;
  std::uint32_t half_bits_ = 1;            // domain = 2^(2*half_bits_) >= total
  std::vector<std::uint64_t> round_keys_;
};

// Read-only indexable target source — what Prober::run iterates.
class TargetSequence {
 public:
  virtual ~TargetSequence() = default;
  virtual std::uint64_t size() const = 0;
  virtual net::IpAddress at(std::uint64_t index) const = 0;
  // out[j] = at(first + j) for j < out.size(); first + out.size() <= size().
  virtual void fill(std::uint64_t first,
                    std::span<net::IpAddress> out) const = 0;
};

// A materialized list (the classic campaign path).
class SpanTargets final : public TargetSequence {
 public:
  explicit SpanTargets(std::span<const net::IpAddress> targets)
      : targets_(targets) {}
  std::uint64_t size() const override { return targets_.size(); }
  net::IpAddress at(std::uint64_t index) const override {
    return targets_[index];
  }
  void fill(std::uint64_t first,
            std::span<net::IpAddress> out) const override {
    std::ranges::copy(targets_.subspan(first, out.size()), out.begin());
  }

 private:
  std::span<const net::IpAddress> targets_;
};

// One shard's contiguous window [begin, end) of a generated sweep.
class GeneratorSlice final : public TargetSequence {
 public:
  GeneratorSlice(const TargetGenerator& generator, std::uint64_t begin,
                 std::uint64_t end)
      : generator_(generator), begin_(begin), end_(end) {}
  std::uint64_t size() const override { return end_ - begin_; }
  net::IpAddress at(std::uint64_t index) const override {
    return generator_.at(begin_ + index);
  }
  void fill(std::uint64_t first,
            std::span<net::IpAddress> out) const override {
    generator_.fill(begin_ + first, out);
  }

 private:
  const TargetGenerator& generator_;
  std::uint64_t begin_;
  std::uint64_t end_;
};

}  // namespace snmpv3fp::scan
