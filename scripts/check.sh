#!/usr/bin/env bash
# Repo verification driver:
#   1. Tier-1: configure + build + full ctest suite in build/. The suite
#      includes the bench_repro test: it rebuilds every paper artifact
#      (Tables 1-3, Figs. 4-20, §5-§9, the ablation) from the
#      full-Internet and router-focus worlds and fails when any paper
#      claim leaves its band, so this step gates the reproduction itself.
#   2. Focused race check: TSan build in build-tsan/ running the tests that
#      exercise the parallel execution and observability layers
#      (test_parallel, test_obs, test_telemetry) plus test_worlds — the
#      procedural-vs-materialized equivalence suite drives sharded
#      spec-mode campaigns over the lazy per-fabric device cache — and
#      test_store's campaign and pipeline suites, since every campaign
#      sorts its shard record stores on the worker threads and merges
#      them after the barrier. It also runs the crash harness
#      (test_crash, ctest label crash_harness): children spawned from the
#      test binary, SIGKILLed mid-campaign, resumed in-process on another
#      thread count.
#   3. Focused memory/UB check: ASan+UBSan build in build-asan/ running the
#      hostile-input corpus plus the decode-path suites (test_hostile,
#      test_asn1, test_snmp_message, test_checkpoint, test_store,
#      test_wire), the probe-validation suites (test_probe_validation's
#      id-permutation and forged-REPORT tests, plus test_checkpoint's
#      send-window codec, bound and wrapped-ring resume tests), the filter
#      funnel's oracle suite (test_columnar's ColumnarFilterTest) and the whole pacer suite (test_pacer's unit
#      tests on a caller clock, burst 1 and wall-clock bursts, plus
#      test_checkpoint's campaign-level Pacer test), the crash harness
#      (test_crash: spawn -> SIGKILL -> resume over torn checkpoint and
#      store files), and test_topo's Churn
#      suite, whose patched address index erases and re-inserts hash-map
#      nodes through iterators on every rebind — >=10k corrupted
#      payloads must decode-reject with zero memory errors or UB; the
#      store suites re-run the codec
#      mutation corpus and the spill/restore paths under the sanitizers,
#      the funnel suite its dictionary/census code over campaign data; the
#      wire suites re-run the fast-parser differential fuzz (fast-accept
#      must imply full-accept with equal fields, throw-free).
#   4. Bench-artifact schema checks: bench_store --quick and
#      bench_wire --quick must emit BENCH_*.json files that pass their own
#      schema validation (the binaries exit non-zero on drift). bench_store
#      additionally fails when a mid-scan checkpoint outgrows its fixed
#      bound at any record count (the manifest must stay O(open tail)). bench_wire
#      additionally fails when any fast-path op allocates or when the fast
#      parser rejects a payload of the clean REPORT corpus (a fallback on
#      clean census traffic means its accept set regressed). bench_obs
#      --quick --gate checks the telemetry layer: the disabled hot path
#      must cost ~nothing and never allocate, the trace/status/flight/
#      timeline JSON artifacts must hold their schemas, and an armed
#      campaign must be bit-identical to an unarmed one.
#   5. Flat-memory gate: bench_world --gate sweeps procedural census
#      worlds of growing address count and fails when the RSS delta of
#      the largest sweep exceeds 2x the smallest's (the O(responders)
#      claim), or when BENCH_world.json drifts from its schema. Under
#      --quick-bench the sweep sizes shrink (1M/4M instead of 1M/134M).
#   6. Parallel-scaling gate: bench_micro_parallel --gate on the full
#      world must show the columnar filter >= 4x the recorded pre-columnar
#      single-thread baseline and no stage speedup regressing below 70% of
#      bench/baselines/BENCH_parallel_before.json (the scan 8-thread >= 3x
#      gate additionally needs >= 8 hardware threads and self-skips below
#      that). Skipped under --quick-bench, which swaps in the fast
#      schema-only run.
#   7. Real-socket gates: the test_net_engine loopback self-test (the
#      pipeline through actual kernel sockets must be bit-identical to the
#      sim-fabric run) and bench_net --gate (batched sendmmsg+GSO send
#      >= 2x the per-datagram loop at batch 64, zero allocations per
#      probe; ring drain >= 2x the recvmmsg drain with zero allocations
#      per frame when CAP_NET_RAW grants rings; BENCH_net.json schema).
#      Both print SKIP and pass when the sandbox denies sockets —
#      visible, never silent.
#   8. Ring-receive suite: test_packet_ring — the link-parser hostile
#      corpus and EINTR regression tests always run; the live AF_PACKET
#      suites (ring-vs-socket byte equality, fanout steering, pipeline
#      bit-identity ring on/off across thread counts) GTEST_SKIP with a
#      visible "SKIP (no CAP_NET_RAW)" line on unprivileged boxes.
#
# Usage: scripts/check.sh [--no-tsan] [--no-asan] [--quick-bench]
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_TSAN=1
RUN_ASAN=1
QUICK_BENCH=0
for arg in "$@"; do
  case "$arg" in
    --no-tsan) RUN_TSAN=0 ;;
    --no-asan) RUN_ASAN=0 ;;
    --quick-bench) QUICK_BENCH=1 ;;
    *) echo "usage: scripts/check.sh [--no-tsan] [--no-asan] [--quick-bench]" >&2; exit 2 ;;
  esac
done

echo "==> tier-1: build + full test suite"
cmake -B build -S .
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "==> TSan: focused parallel/observability/columnar race check"
  cmake -B build-tsan -S . -DSNMPFP_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS" \
      --target test_parallel test_obs test_telemetry test_columnar test_worlds \
               test_store test_crash
  # Only the focused binaries are built; select their gtest suites by
  # name (unbuilt targets register _NOT_BUILT placeholders ctest must skip)
  # and the crash harness by its label, which the name run excludes since
  # the harness reuses some of the suite names.
  # The columnar suites drive the overlapped join+filter stages and the
  # radix alias grouping at 8 threads — the paths with real cross-thread
  # queue handoffs. The worlds suites run the procedural-vs-materialized
  # pipeline equivalence over the per-fabric lazy device caches. The
  # store suites sort and merge shard record stores across worker
  # threads, resident and spilled. The crash harness resumes killed
  # campaigns and pipelines on 1, 4 and 8 threads.
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -LE crash_harness \
      -R "^(ParallelFor|ParallelMap|ParallelDeterminism|Metrics|Json|Log|Trace|ObsContract|EngineDictionaryTest|TelemetryContract|Timeline|Status|TraceExport|Flight|Report|ColumnarBlockTest|ColumnarCursorTest|ColumnarFilterTest|ColumnarAliasTest|ColumnarPipelineTest|TargetGenerator|ProceduralWorld|SpecModeCampaign|ScenarioLayers|StoreCampaignTest|StorePipelineTest)\.")
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -L crash_harness)
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "==> ASan+UBSan: hostile-input / decode-path memory check"
  # SNMPFP_SANITIZE=address enables -fsanitize=address,undefined (see the
  # top-level CMakeLists), so one build covers both sanitizers.
  cmake -B build-asan -S . -DSNMPFP_SANITIZE=address
  cmake --build build-asan -j "$JOBS" \
      --target test_hostile test_asn1 test_snmp_message test_checkpoint \
               test_pacer test_store test_wire test_columnar test_topo \
               test_probe_validation test_crash
  (cd build-asan && ctest --output-on-failure -j "$JOBS" -LE crash_harness \
      -R "^(HostileInput|HostileFabric|Ber|BerMalformed|V3Message|V2cMessage|DiscoveryRequest|DiscoveryReport|PduType|PeekVersion|ProbeIds|WirePath/ProbeValidation|SendWindow|CheckpointCodec|Pacer|RngState|StoreCodec|RecordStoreTest|StoreCampaignTest|ColumnarFilterTest|StorePipelineTest|WireTemplate|WireFastParse|WireReportWriter|WireTransport|WireCampaign|Churn)\.")
  (cd build-asan && ctest --output-on-failure -j "$JOBS" -L crash_harness)
fi

echo "==> record-store check (bench_store --quick: checkpoint bound, schema)"
(cd build/bench && ./bench_store --quick >/dev/null)

echo "==> wire fast-path check (bench_wire --quick: schema, zero-alloc, no clean-corpus fallback)"
(cd build/bench && ./bench_wire --quick >/dev/null)

echo "==> telemetry gate (bench_obs --quick --gate: zero-overhead off, artifact schemas, bit-identity)"
(cd build/bench && ./bench_obs --quick --gate >/dev/null)

if [[ "$QUICK_BENCH" == 1 ]]; then
  echo "==> flat-memory gate: quick sweeps (bench_world --quick --gate)"
  (cd build/bench && ./bench_world --quick --gate >/dev/null)
  echo "==> parallel-scaling gate: quick schema-only run (--quick-bench)"
  ./build/bench/bench_micro_parallel --quick --gate >/dev/null
else
  echo "==> flat-memory gate (bench_world --gate: 1M -> 134M census sweeps)"
  (cd build/bench && ./bench_world --gate >/dev/null)
  echo "==> parallel-scaling gate (bench_micro_parallel --gate, full world)"
  # Run from the repo root so the default --baseline path resolves.
  ./build/bench/bench_micro_parallel --gate >/dev/null
fi

echo "==> real-socket loopback self-test (test_net_engine: pipeline bit-identity over kernel sockets)"
# The suite GTEST_SKIPs each socket test individually when the sandbox
# denies sockets; surface those skip lines instead of hiding them, but
# still fail on any real failure.
NET_TEST_OUT="$(cd build && ./tests/test_net_engine 2>&1)" || {
  echo "$NET_TEST_OUT" | tail -30; exit 1; }
echo "$NET_TEST_OUT" | grep -E "^\[  SKIPPED|sockets unavailable" || true
echo "$NET_TEST_OUT" | tail -1

echo "==> batched-I/O gate (bench_net --quick --gate: sendmmsg+GSO >= 2x per-datagram, ring rx >= 2x recvmmsg, zero allocs on both hot paths)"
# bench_net prints its own SKIP line and exits 0 when sockets are denied;
# without CAP_NET_RAW the rx ring gate self-skips the same way.
(cd build/bench && ./bench_net --quick --gate | grep -E "SKIP|GATE" || true)
# Propagate the gate verdict (grep above swallows the status).
(cd build/bench && ./bench_net --quick --gate >/dev/null)

echo "==> ring-receive suite (test_packet_ring: parser corpus, EINTR regressions, live AF_PACKET rings)"
# The AF_PACKET suites GTEST_SKIP individually without CAP_NET_RAW;
# surface those skip lines instead of hiding them, fail on any failure.
RING_TEST_OUT="$(cd build && ./tests/test_packet_ring 2>&1)" || {
  echo "$RING_TEST_OUT" | tail -30; exit 1; }
echo "$RING_TEST_OUT" | grep -E "^\[  SKIPPED|SKIP \(no CAP_NET_RAW\)" || true
echo "$RING_TEST_OUT" | tail -1

echo "==> all checks passed"
