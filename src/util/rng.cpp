#include "util/rng.hpp"

#include <bit>
#include <cassert>
#include <cmath>

namespace snmpv3fp::util {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  have_spare_normal_ = false;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // A power-of-two bound has threshold -bound % bound == 0: the loop below
  // never rejects and returns r % bound, i.e. these low bits of one draw.
  if ((bound & (bound - 1)) == 0) return next() & (bound - 1);
  // Rejection sampling on the top of the range to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // ok for full range? span==0 means full width
  if (span == 0) return static_cast<std::int64_t>(next());
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform01() {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::normal(double mean, double stddev) {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  have_spare_normal_ = true;
  return mean + stddev * u * factor;
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u;
  do {
    u = uniform01();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

std::size_t Rng::zipf(std::size_t n, double s) {
  assert(n > 0);
  // Inverse-CDF over precomputation-free harmonic approximation would be
  // costly per call; for the modest n used in topology synthesis a simple
  // rejection scheme against the continuous envelope suffices.
  // P(k) ~ (k+1)^-s, k in [0, n).
  for (;;) {
    const double u = uniform01();
    // Continuous inverse of the envelope CDF.
    double x;
    if (s == 1.0) {
      x = std::pow(static_cast<double>(n) + 1.0, u) - 1.0;
    } else {
      const double top = std::pow(static_cast<double>(n) + 1.0, 1.0 - s);
      x = std::pow(u * (top - 1.0) + 1.0, 1.0 / (1.0 - s)) - 1.0;
    }
    const auto k = static_cast<std::size_t>(x);
    if (k < n) {
      // Accept/reject to correct the discretization.
      const double ratio = std::pow((x + 1.0) / (static_cast<double>(k) + 1.0), s);
      if (uniform01() < ratio) return k;
    }
  }
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  assert(total > 0.0);
  double target = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;  // numeric slop lands on the last entry
}

Rng Rng::fork(std::string_view label) {
  return Rng(next() ^ fnv1a64(label));
}

RngState Rng::save_state() const {
  RngState state;
  state.words = state_;
  state.have_spare_normal = have_spare_normal_;
  state.spare_normal_bits = std::bit_cast<std::uint64_t>(spare_normal_);
  return state;
}

void Rng::restore_state(const RngState& state) {
  state_ = state.words;
  have_spare_normal_ = state.have_spare_normal;
  spare_normal_ = std::bit_cast<double>(state.spare_normal_bits);
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace snmpv3fp::util
