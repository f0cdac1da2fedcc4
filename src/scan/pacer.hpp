// Probe pacing: one scheduler for virtual and wall clocks, with optional
// MIDAR-style adaptive rate control.
//
// Schedule. The pacer keeps a theoretical next-send time (GCRA): every
// send advances it by the current gap (1/rate) plus any backoff jitter,
// and the next probe may leave at max(now, tat - (burst - 1) * gap). At
// `burst_probes` = 1 this is exactly the historical fixed-gap schedule
// `previous + gap + jitter`, because a virtual transport's run_until lands
// `now` on the scheduled time. Wall-clock campaigns raise the burst so
// probes leave back-to-back while credit lasts and the batched kernel
// transport fills whole sendmmsg batches; the long-run rate is unchanged.
// The clock is whatever the caller passes as `now` — transport time in the
// prober, a fake clock in tests.
//
// Rate control. A fixed gap assumes a fabric that never pushes back. Real
// control planes police SNMP traffic: when a scan overruns a device's
// budget, responses collapse and the naive scanner burns its probe budget
// on silence. With `adaptive` on, the pacer watches the per-window
// response rate and explicit rate-limit signals, backs the shard's rate
// off (multiplicative, with jitter drawn from the shard Rng so shards
// desynchronize) when the rate collapses relative to the learned baseline,
// then recovers multiplicatively toward the configured target once
// responses return.
//
// Determinism contract: with `adaptive` off (the default) the pacer is a
// pure fixed-rate scheduler — it consumes NO rng draws and reproduces the
// historical schedule bit-for-bit. With `adaptive` on, every decision is a
// function of the caller's clock, the window observations and the shard's
// own Rng, so a backed-off virtual campaign is exactly as reproducible as
// a fixed-rate one. PacerState round-trips through the campaign
// checkpoint; the burst credit does not, and re-primes full on restore.
#pragma once

#include <cstdint>
#include <limits>

#include "util/rng.hpp"
#include "util/vclock.hpp"

namespace snmpv3fp::scan {

struct PacerConfig {
  bool adaptive = false;
  double min_rate_pps = 100.0;      // backoff floor
  double backoff_factor = 0.5;      // rate multiplier per backoff event
  double recover_factor = 1.25;     // rate multiplier per healthy window
  std::size_t window_probes = 64;   // probes per evaluation window
  // A window whose response rate falls below this fraction of the learned
  // baseline triggers a backoff.
  double collapse_threshold = 0.5;
  // Extra delay added per backoff, jittered uniformly in
  // [0, max_backoff_jitter] by the shard Rng.
  util::VTime max_backoff_jitter = 50 * util::kMillisecond;
  // Explicit rate-limit signals (net::Transport::rate_limit_signals
  // deltas, fed by the prober per drain). A window that saw at least
  // `rate_limit_signal_threshold` signals backs off immediately — even
  // before a response-rate baseline is learned — which converges much
  // faster than rate inference alone. Only consulted when `adaptive` is
  // set; with no signals the schedule is unchanged.
  bool use_rate_limit_signals = true;
  std::size_t rate_limit_signal_threshold = 1;
  // Probes released back-to-back before the sender must wait. 1 is the
  // fixed-gap schedule; campaigns force it on virtual clocks and pass this
  // value through on wall clocks, where the engine's batch size is the
  // natural choice.
  std::size_t burst_probes = 1;
};

// Serializable pacer state (doubles travel as IEEE bit patterns in the
// checkpoint codec so resume is exact).
struct PacerState {
  double rate_pps = 0.0;                 // current send rate
  double baseline_response_rate = -1.0;  // EWMA; < 0 = not yet learned
  std::size_t window_sent = 0;
  std::size_t window_responses = 0;
  std::size_t backoffs = 0;              // total backoff events
  util::VTime backoff_wait = 0;          // total jitter delay inserted
  std::size_t window_rate_limit_signals = 0;
  std::size_t rate_limit_signals = 0;    // total signals observed
};

class Pacer {
 public:
  // `rng` must outlive the pacer; it is only drawn from when `adaptive`
  // is set and a backoff fires.
  Pacer(double target_rate_pps, const PacerConfig& config, util::Rng& rng);

  // Records a probe sent at `now` and returns the earliest time the next
  // probe may leave (never before `now`).
  util::VTime on_probe_sent(util::VTime now);

  // Window accounting, fed by the prober per drain.
  void on_responses(std::size_t count);
  // Explicit rate-limit signals observed since the last drain (the
  // transport counter delta). Pure accounting in fixed mode.
  void on_rate_limit_signals(std::size_t count);

  const PacerState& state() const { return state_; }
  void restore(const PacerState& state);

  // The integer inter-probe gap at `rate_pps`. Backoffs only lower the
  // rate, so the gap at the target rate is the shortest the pacer uses.
  static util::VTime gap_at(double rate_pps);

 private:
  util::VTime gap() const { return gap_at(state_.rate_pps); }
  // Closes a full window: returns the jitter delay to apply (0 unless a
  // backoff fired).
  util::VTime evaluate_window();

  static constexpr util::VTime kUnprimed =
      std::numeric_limits<util::VTime>::min();

  double target_rate_pps_;
  PacerConfig config_;
  util::Rng& rng_;
  PacerState state_;
  util::VTime tat_ = kUnprimed;  // theoretical send time of the next probe
};

}  // namespace snmpv3fp::scan
