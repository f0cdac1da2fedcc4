#include "scan/targets.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "util/rng.hpp"

namespace snmpv3fp::scan {

std::uint64_t TargetSpec::total() const {
  std::uint64_t total = 0;
  for (const auto& range : ranges) total += range.size();
  return total;
}

TargetGenerator::TargetGenerator(const TargetSpec& spec, std::uint64_t seed)
    : ranges_(spec.ranges) {
  if (ranges_.empty())
    throw std::invalid_argument("TargetGenerator: spec has no ranges");
  const std::uint32_t rounds = std::max<std::uint32_t>(spec.feistel_rounds, 2);
  cumulative_.reserve(ranges_.size());
  for (const auto& range : ranges_) {
    cumulative_.push_back(total_);
    total_ += range.size();
  }
  // Smallest even-bit-width power-of-two domain covering the sweep. The
  // balanced Feistel network permutes 2*half_bits_ bits; cycle-walking in
  // at() skips the < 3x overshoot positions outside [0, total_).
  const auto domain_bits = static_cast<std::uint32_t>(
      std::bit_width(std::max<std::uint64_t>(total_ - 1, 1)));
  half_bits_ = std::max<std::uint32_t>((domain_bits + 1) / 2, 1);
  util::Rng rng(seed);
  round_keys_.reserve(rounds);
  for (std::uint32_t i = 0; i < rounds; ++i) round_keys_.push_back(rng.next());
}

void TargetGenerator::permute(std::span<std::uint64_t> values) const {
  // Round by round over the whole span: the values' multiply chains are
  // independent, so a batch keeps the CPU's multipliers busy where one
  // value would leave them waiting on its own chain.
  const std::uint64_t mask = (std::uint64_t{1} << half_bits_) - 1;
  for (const std::uint64_t key : round_keys_) {
    for (std::uint64_t& value : values) {
      const std::uint64_t left = value >> half_bits_;
      const std::uint64_t right = value & mask;
      // splitmix64-style round function: cheap, full-avalanche within the
      // half-domain, and stable across platforms.
      std::uint64_t f = right + key + 0x9e3779b97f4a7c15ull;
      f = (f ^ (f >> 30)) * 0xbf58476d1ce4e5b9ull;
      f = (f ^ (f >> 27)) * 0x94d049bb133111ebull;
      f ^= f >> 31;
      value = (right << half_bits_) | (left ^ (f & mask));
    }
  }
}

net::IpAddress TargetGenerator::address_of(std::uint64_t position) const {
  const auto range =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), position) - 1;
  const auto range_index =
      static_cast<std::size_t>(range - cumulative_.begin());
  return ranges_[range_index].at(position - *range);
}

net::IpAddress TargetGenerator::at(std::uint64_t index) const {
  // Cycle-walk: a Feistel permutation of the padded power-of-two domain
  // restricted to [0, total_) is still a permutation, and every walk
  // terminates in < 4 expected steps (domain < 4 * total_).
  std::uint64_t position = index;
  do {
    permute({&position, 1});
  } while (position >= total_);
  return address_of(position);
}

void TargetGenerator::fill(std::uint64_t first,
                           std::span<net::IpAddress> out) const {
  // at()'s walk, a batch at a time: permute every position, then re-permute
  // only the lanes still outside [0, total_), gathered into `walk` after
  // each pass, so no lane waits on another's exit branch.
  constexpr std::size_t kLanes = 64;
  std::array<std::uint64_t, kLanes> position{};
  std::array<std::uint64_t, kLanes> walk{};
  std::array<std::uint8_t, kLanes> lane_of{};
  for (std::size_t done = 0; done < out.size(); done += kLanes) {
    const std::size_t n = std::min(kLanes, out.size() - done);
    for (std::size_t j = 0; j < n; ++j) position[j] = first + done + j;
    permute(std::span(position).first(n));
    std::size_t count = 0;
    for (std::size_t j = 0; j < n; ++j) {
      walk[count] = position[j];
      lane_of[count] = static_cast<std::uint8_t>(j);
      count += position[j] >= total_;
    }
    while (count > 0) {
      permute(std::span(walk).first(count));
      std::size_t still = 0;
      for (std::size_t k = 0; k < count; ++k) {
        position[lane_of[k]] = walk[k];
        walk[still] = walk[k];
        lane_of[still] = lane_of[k];
        still += walk[k] >= total_;
      }
      count = still;
    }
    for (std::size_t j = 0; j < n; ++j)
      out[done + j] = address_of(position[j]);
  }
}

}  // namespace snmpv3fp::scan
