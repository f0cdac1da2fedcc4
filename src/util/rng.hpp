// Deterministic pseudo-random number generation.
//
// Every stochastic component of the simulated Internet (topology synthesis,
// scan target shuffling, packet loss, clock skew, ...) draws from an
// explicitly seeded Rng so that a campaign is reproducible byte-for-byte
// from its seed. We implement xoshiro256** (public domain, Blackman/Vigna)
// seeded through SplitMix64 rather than std::mt19937 because its state is
// tiny, it is fast, and its output is stable across standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace snmpv3fp::util {

// Complete serializable generator state, for checkpoint/resume: restoring
// a saved state continues the exact output stream, including the cached
// Box-Muller spare (held as raw IEEE bits so a JSON round trip is exact).
struct RngState {
  std::array<std::uint64_t, 4> words{};
  bool have_spare_normal = false;
  std::uint64_t spare_normal_bits = 0;

  bool operator==(const RngState&) const = default;
};

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed);

  // UniformRandomBitGenerator interface.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  // Uniform in [0, bound). bound must be > 0. Modulo with rejection for
  // exactness; a power-of-two bound is one draw and a mask, the same value
  // the rejection path returns.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double uniform01();

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // True with probability p (clamped to [0,1]).
  bool chance(double p);

  // Standard normal via polar Box-Muller.
  double normal(double mean = 0.0, double stddev = 1.0);

  // Exponential with the given mean.
  double exponential(double mean);

  // Bounded Zipf-like rank sample in [0, n): P(k) ~ 1/(k+1)^s.
  std::size_t zipf(std::size_t n, double s);

  // Index into `weights` chosen proportionally to the weights (which need
  // not be normalized; non-positive weights are treated as zero).
  std::size_t weighted_index(std::span<const double> weights);

  // Fisher-Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    if (c.size() < 2) return;
    for (std::size_t i = c.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i + 1));
      using std::swap;
      swap(c[i], c[j]);
    }
  }

  // Derives an independent child generator; `label` decorrelates children
  // created from the same parent state.
  Rng fork(std::string_view label);

  // Checkpoint/resume: the full state round-trips through RngState.
  RngState save_state() const;
  void restore_state(const RngState& state);

 private:
  std::array<std::uint64_t, 4> state_{};
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

// Stable 64-bit FNV-1a hash, used to derive per-entity seeds from names.
std::uint64_t fnv1a64(std::string_view text);

}  // namespace snmpv3fp::util
