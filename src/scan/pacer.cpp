#include "scan/pacer.hpp"

#include <algorithm>

namespace snmpv3fp::scan {

Pacer::Pacer(double target_rate_pps, const PacerConfig& config, util::Rng& rng)
    : target_rate_pps_(std::max(target_rate_pps, 1.0)),
      config_(config),
      rng_(rng) {
  state_.rate_pps = target_rate_pps_;
  config_.burst_probes = std::max<std::size_t>(config_.burst_probes, 1);
}

util::VTime Pacer::gap_at(double rate_pps) {
  // Same arithmetic as the historical fixed-gap prober, so the default
  // (never-backed-off) schedule is bit-identical to the pre-pacer code.
  return static_cast<util::VTime>(static_cast<double>(util::kSecond) /
                                  std::max(rate_pps, 1.0));
}

util::VTime Pacer::on_probe_sent(util::VTime now) {
  ++state_.window_sent;
  util::VTime jitter = 0;
  if (config_.adaptive && state_.window_sent >= config_.window_probes)
    jitter = evaluate_window();
  // A sender behind schedule restarts from `now` (no credit hoarded past
  // the burst); on a virtual clock `now` is the previous theoretical send
  // time, so this is `previous + gap + jitter`.
  const util::VTime step = gap();
  tat_ = std::max(tat_, now) + step + jitter;
  const auto credit = static_cast<util::VTime>(config_.burst_probes - 1);
  return std::max(now, tat_ - credit * step);
}

void Pacer::on_responses(std::size_t count) {
  state_.window_responses += count;
}

void Pacer::on_rate_limit_signals(std::size_t count) {
  state_.window_rate_limit_signals += count;
  state_.rate_limit_signals += count;
}

util::VTime Pacer::evaluate_window() {
  const double window_rate =
      static_cast<double>(state_.window_responses) /
      static_cast<double>(std::max<std::size_t>(state_.window_sent, 1));
  state_.window_sent = 0;
  state_.window_responses = 0;
  const bool signaled =
      config_.use_rate_limit_signals &&
      state_.window_rate_limit_signals >= config_.rate_limit_signal_threshold;
  state_.window_rate_limit_signals = 0;

  util::VTime jitter = 0;
  if (state_.baseline_response_rate < 0.0) {
    // First full window: learn the baseline. An explicit rate-limit signal
    // overrides the no-decision-yet rule — the device told us outright, no
    // baseline inference needed.
    state_.baseline_response_rate = window_rate;
    if (!signaled) return 0;
  }

  const bool collapsed =
      signaled ||
      (state_.baseline_response_rate > 0.0 &&
       window_rate < config_.collapse_threshold * state_.baseline_response_rate);
  if (collapsed) {
    state_.rate_pps = std::max(state_.rate_pps * config_.backoff_factor,
                               config_.min_rate_pps);
    ++state_.backoffs;
    if (config_.max_backoff_jitter > 0) {
      jitter = static_cast<util::VTime>(rng_.next_below(
          static_cast<std::uint64_t>(config_.max_backoff_jitter) + 1));
      state_.backoff_wait += jitter;
    }
  } else if (state_.rate_pps < target_rate_pps_) {
    // Healthy window while backed off: multiplicative recovery toward the
    // configured target.
    state_.rate_pps =
        std::min(state_.rate_pps * config_.recover_factor, target_rate_pps_);
  }

  // EWMA keeps the baseline tracking slow drift (diurnal responsiveness)
  // without chasing a single bad window.
  state_.baseline_response_rate =
      0.9 * state_.baseline_response_rate + 0.1 * window_rate;
  return jitter;
}

void Pacer::restore(const PacerState& state) {
  state_ = state;
  tat_ = kUnprimed;  // the burst credit re-primes from the next send
}

}  // namespace snmpv3fp::scan
