// Probe pacer tests (scan/pacer.hpp), on a caller clock only — no sleeps.
//
// Burst 1 is the virtual-clock schedule: the fixed gap, the adaptive
// window state machine and its jitter draws, pinned bit for bit. Larger
// bursts are the wall-clock schedule: a full opening burst, the refill
// rate, the burst cap and re-priming on restore.
#include <gtest/gtest.h>

#include <cstdint>

#include "scan/pacer.hpp"
#include "util/rng.hpp"

namespace snmpv3fp::scan {
namespace {

PacerConfig adaptive_config(std::size_t window_probes) {
  PacerConfig config;
  config.adaptive = true;
  config.window_probes = window_probes;
  return config;
}

PacerConfig burst_config(std::size_t burst) {
  PacerConfig config;
  config.burst_probes = burst;
  return config;
}

// ---- burst 1: the virtual schedule -----------------------------------------

struct ScriptedRun {
  std::uint64_t schedule_fnv = 0;  // FNV-1a over the first 256 send times
  util::RngState rng;
  PacerState state;
  bool recovered = false;  // the rate rose again after a backoff
};

// One adaptive shard at 1 kpps over 64 four-probe windows, driven the way
// the prober drives it: two id draws per probe, then the send, then the
// drained responses. Each 16-window cycle holds four healthy windows, two
// silent ones (collapse), a healthy window carrying a rate-limit signal
// and nine healthy windows (recovery), so the run backs off repeatedly,
// draws jitter from the shared stream and recovers.
ScriptedRun run_scripted_schedule() {
  util::Rng rng(20210413);
  PacerConfig config = adaptive_config(4);
  config.min_rate_pps = 50.0;
  config.max_backoff_jitter = 50 * util::kMillisecond;
  Pacer pacer(1000.0, config, rng);

  ScriptedRun run;
  run.schedule_fnv = 0xcbf29ce484222325ull;
  util::VTime t = 1234;
  for (std::size_t i = 0; i < 256; ++i) {
    (void)rng.next_below(65536);
    (void)rng.next_below(65536);
    for (int byte = 0; byte < 8; ++byte) {
      run.schedule_fnv ^= (static_cast<std::uint64_t>(t) >> (8 * byte)) & 0xff;
      run.schedule_fnv *= 0x100000001b3ull;
    }
    const double rate_before = pacer.state().rate_pps;
    t = pacer.on_probe_sent(t);
    if (pacer.state().backoffs > 0 && pacer.state().rate_pps > rate_before)
      run.recovered = true;
    const std::size_t phase = (i / 4) % 16;
    if (phase == 4 || phase == 5) continue;
    pacer.on_responses(1);
    if (phase == 6 && i % 4 == 0) pacer.on_rate_limit_signals(1);
  }
  run.rng = rng.save_state();
  run.state = pacer.state();
  return run;
}

TEST(Pacer, ScriptedAdaptiveScheduleIsPinned) {
  // Recorded from the pre-merge virtual-clock pacer: the send times and
  // the shard RNG's final state (which counts every jitter draw).
  const ScriptedRun run = run_scripted_schedule();
  EXPECT_EQ(run.schedule_fnv, 0xf40ec1e34ef86f1eull);
  const util::RngState expected_rng{
      {0xafa72a01e2284248ull, 0x0475f7e83d502bb2ull, 0x60e199a89713b8d2ull,
       0x4e316239c6cb5000ull},
      false,
      0};
  EXPECT_TRUE(run.rng == expected_rng);
  EXPECT_EQ(run.state.backoffs, 12u);
  EXPECT_EQ(run.state.backoff_wait, 394832);
  EXPECT_TRUE(run.recovered);
}

TEST(Pacer, FixedModeMatchesHistoricalGapAndDrawsNoRng) {
  util::Rng rng(7);
  const auto fresh_state = rng.save_state();
  Pacer pacer(5000.0, {}, rng);  // adaptive defaults to off

  const auto gap = static_cast<util::VTime>(
      static_cast<double>(util::kSecond) / 5000.0);
  util::VTime t = 1000;
  for (int i = 0; i < 1000; ++i) {
    const auto next = pacer.on_probe_sent(t);
    EXPECT_EQ(next, t + gap);
    t = next;
    pacer.on_responses(1);
  }
  EXPECT_EQ(pacer.state().backoffs, 0u);
  // Fixed-gap mode never touches the shard RNG stream.
  EXPECT_TRUE(rng.save_state() == fresh_state);
}

TEST(Pacer, BacksOffOnCollapseAndRecovers) {
  util::Rng rng(7);
  PacerConfig config = adaptive_config(4);
  config.min_rate_pps = 100.0;
  config.max_backoff_jitter = 0;  // keep the schedule arithmetic exact
  Pacer pacer(1000.0, config, rng);

  // Drives exactly one full window with `responses` total responses; the
  // window's last send evaluates it.
  util::VTime t = 0;
  const auto run_window = [&](std::size_t responses) {
    pacer.on_responses(responses);
    for (std::size_t i = 0; i < config.window_probes; ++i)
      t = pacer.on_probe_sent(t);
  };

  // Window 1: full responses — learns baseline 1.0, no rate change.
  run_window(4);
  EXPECT_EQ(pacer.state().rate_pps, 1000.0);
  EXPECT_EQ(pacer.state().backoffs, 0u);
  EXPECT_EQ(pacer.state().baseline_response_rate, 1.0);

  // Window of silence: response rate 0 < 0.5 * baseline — backoff.
  run_window(0);
  EXPECT_EQ(pacer.state().backoffs, 1u);
  EXPECT_EQ(pacer.state().rate_pps, 500.0);

  // Healthy windows: multiplicative recovery, capped at the target.
  for (int i = 0; i < 10; ++i) run_window(4);
  EXPECT_EQ(pacer.state().rate_pps, 1000.0);
  EXPECT_EQ(pacer.state().backoffs, 1u);
}

TEST(Pacer, BackoffNeverDropsBelowFloor) {
  util::Rng rng(7);
  PacerConfig config = adaptive_config(2);
  config.min_rate_pps = 200.0;
  config.max_backoff_jitter = 0;
  Pacer pacer(1000.0, config, rng);

  util::VTime t = 0;
  const auto run_window = [&](std::size_t responses) {
    pacer.on_responses(responses);
    for (std::size_t i = 0; i < config.window_probes; ++i)
      t = pacer.on_probe_sent(t);
  };
  run_window(2);                               // learn baseline
  for (int i = 0; i < 20; ++i) run_window(0);  // sustained silence
  EXPECT_GE(pacer.state().rate_pps, 200.0);
  EXPECT_GT(pacer.state().backoffs, 1u);
}

TEST(Pacer, RateLimitSignalForcesBackoffBeforeBaseline) {
  util::Rng rng(7);
  PacerConfig config = adaptive_config(4);
  config.max_backoff_jitter = 0;
  Pacer pacer(1000.0, config, rng);

  // First window: responses look perfectly healthy, but the transport saw
  // an explicit rate-limit signal (the ICMP admin-prohibited analogue) —
  // backoff fires immediately, before any response-rate baseline exists.
  // Rate inference alone could never back off here.
  pacer.on_responses(4);
  pacer.on_rate_limit_signals(1);
  for (int i = 0; i < 4; ++i) (void)pacer.on_probe_sent(0);
  EXPECT_EQ(pacer.state().backoffs, 1u);
  EXPECT_EQ(pacer.state().rate_pps, 500.0);
  EXPECT_EQ(pacer.state().rate_limit_signals, 1u);
  EXPECT_EQ(pacer.state().window_rate_limit_signals, 0u);  // window closed
}

TEST(Pacer, RateLimitSignalsDisabledKeepRateInferenceOnly) {
  util::Rng rng(7);
  PacerConfig config = adaptive_config(4);
  config.max_backoff_jitter = 0;
  config.use_rate_limit_signals = false;
  Pacer pacer(1000.0, config, rng);

  pacer.on_responses(4);
  pacer.on_rate_limit_signals(3);
  for (int i = 0; i < 4; ++i) (void)pacer.on_probe_sent(0);
  // Signals are still accounted but never force a decision.
  EXPECT_EQ(pacer.state().backoffs, 0u);
  EXPECT_EQ(pacer.state().rate_pps, 1000.0);
  EXPECT_EQ(pacer.state().rate_limit_signals, 3u);
}

TEST(Pacer, StateRoundTripContinuesIdentically) {
  util::Rng rng_a(3), rng_b(3);
  const PacerConfig config = adaptive_config(3);
  Pacer a(800.0, config, rng_a);
  Pacer b(800.0, config, rng_b);

  util::VTime ta = 0;
  for (int i = 0; i < 10; ++i) {
    ta = a.on_probe_sent(ta);
    a.on_responses(i % 3 == 0 ? 1 : 0);
  }
  b.restore(a.state());
  rng_b.restore_state(rng_a.save_state());

  util::VTime tb = ta;
  for (int i = 0; i < 10; ++i) {
    ta = a.on_probe_sent(ta);
    tb = b.on_probe_sent(tb);
    EXPECT_EQ(ta, tb);
    a.on_responses(1);
    b.on_responses(1);
  }
}

// ---- burst > 1: the wall-clock schedule --------------------------------------

TEST(Pacer, OpensWithAFullBurstThenEarnsAtTheTargetRate) {
  util::Rng rng(7);
  Pacer pacer(1000.0, burst_config(8), rng);
  // The first send primes a full burst: eight probes leave at t=0.
  for (int i = 0; i < 7; ++i)
    EXPECT_EQ(pacer.on_probe_sent(0), 0) << "probe " << i;
  // Burst spent: the next slot is one gap away (1 ms at 1 kpps).
  const util::VTime next = pacer.on_probe_sent(0);
  EXPECT_GT(next, 0);
  EXPECT_LE(next, util::kMillisecond + 10);
  // From there on, one probe per gap.
  EXPECT_EQ(pacer.on_probe_sent(next), next + util::kMillisecond);
}

TEST(Pacer, RefillCapsAtTheBurstSize) {
  util::Rng rng(7);
  Pacer pacer(1000.0, burst_config(4), rng);
  for (int i = 0; i < 4; ++i) (void)pacer.on_probe_sent(0);
  // Ten idle seconds earn 10000 probes of credit but the burst holds
  // four: the fifth back-to-back probe must wait.
  const util::VTime later = 10 * util::kSecond;
  for (int i = 0; i < 3; ++i) EXPECT_EQ(pacer.on_probe_sent(later), later);
  EXPECT_GT(pacer.on_probe_sent(later), later);
}

TEST(Pacer, LongRunRateMatchesTheTarget) {
  util::Rng rng(7);
  Pacer pacer(2000.0, burst_config(64), rng);
  util::VTime now = 0;
  std::size_t sent = 0;
  while (now < util::kSecond) {
    now = pacer.on_probe_sent(now);
    ++sent;
  }
  // One second at 2 kpps: the burst structure must not change the
  // long-run rate (the initial full burst allows a small overshoot).
  EXPECT_GE(sent, 1990u);
  EXPECT_LE(sent, 2000u + 64u);
}

TEST(Pacer, SilentWindowsBackOffAndHealthyWindowsRecover) {
  util::Rng rng(7);
  PacerConfig config = adaptive_config(4);
  config.burst_probes = 4;
  config.min_rate_pps = 100.0;
  Pacer pacer(1000.0, config, rng);
  const auto run_window = [&](std::size_t responses) {
    pacer.on_responses(responses);
    for (int i = 0; i < 4; ++i) (void)pacer.on_probe_sent(0);
  };
  run_window(4);  // window 1 learns the baseline (rate 1.0)
  EXPECT_DOUBLE_EQ(pacer.state().rate_pps, 1000.0);
  run_window(0);  // collapse: rate halves
  EXPECT_DOUBLE_EQ(pacer.state().rate_pps, 500.0);
  EXPECT_EQ(pacer.state().backoffs, 1u);
  run_window(0);  // collapse again
  EXPECT_DOUBLE_EQ(pacer.state().rate_pps, 250.0);
  run_window(4);  // healthy: multiplicative recovery toward the target
  EXPECT_DOUBLE_EQ(pacer.state().rate_pps, 312.5);
  EXPECT_EQ(pacer.state().backoffs, 2u);
}

TEST(Pacer, BackoffFloorsAtTheMinimumRate) {
  util::Rng rng(7);
  PacerConfig config = adaptive_config(2);
  config.burst_probes = 4;
  config.min_rate_pps = 100.0;
  Pacer pacer(1000.0, config, rng);
  pacer.on_responses(2);
  for (int i = 0; i < 2; ++i) (void)pacer.on_probe_sent(0);  // baseline
  for (int window = 0; window < 10; ++window)
    for (int i = 0; i < 2; ++i) (void)pacer.on_probe_sent(0);  // all silent
  EXPECT_DOUBLE_EQ(pacer.state().rate_pps, 100.0);
  // The backed-off rate slows the schedule: one probe now takes 10 ms.
  const util::VTime t = pacer.on_probe_sent(0);
  EXPECT_GT(t, 0);
  EXPECT_GE(pacer.on_probe_sent(t) - t, 9 * util::kMillisecond);
}

TEST(Pacer, ExplicitRateLimitSignalsBackOffImmediately) {
  util::Rng rng(7);
  PacerConfig config = adaptive_config(2);
  config.burst_probes = 4;
  Pacer pacer(1000.0, config, rng);
  pacer.on_rate_limit_signals(1);
  pacer.on_responses(2);
  for (int i = 0; i < 2; ++i) (void)pacer.on_probe_sent(0);
  // Even the baseline-learning window backs off when the device said so.
  EXPECT_EQ(pacer.state().backoffs, 1u);
  EXPECT_DOUBLE_EQ(pacer.state().rate_pps, 500.0);
  EXPECT_EQ(pacer.state().rate_limit_signals, 1u);
}

TEST(Pacer, StateRoundTripsThroughRestore) {
  util::Rng rng(7);
  PacerConfig config = adaptive_config(2);
  config.burst_probes = 4;
  config.max_backoff_jitter = 0;  // keep the burst arithmetic exact
  Pacer pacer(1000.0, config, rng);
  pacer.on_responses(2);
  for (int i = 0; i < 4; ++i) (void)pacer.on_probe_sent(0);
  const PacerState saved = pacer.state();

  Pacer resumed(1000.0, config, rng);
  resumed.restore(saved);
  EXPECT_DOUBLE_EQ(resumed.state().rate_pps, saved.rate_pps);
  EXPECT_EQ(resumed.state().backoffs, saved.backoffs);
  // The burst re-primes full on the first post-restore send.
  const util::VTime later = 5 * util::kSecond;
  for (int i = 0; i < 3; ++i) EXPECT_EQ(resumed.on_probe_sent(later), later);
}

}  // namespace
}  // namespace snmpv3fp::scan
