// The parallel execution layer's two contracts:
//  1. parallel_for / parallel_map behave like their sequential equivalents
//     (coverage, ordering, exception propagation) at any thread count.
//  2. The full pipeline is bit-identical across thread counts — threads
//     are scheduling only, never part of the experiment configuration.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "result_equal.hpp"
#include "core/pipeline.hpp"
#include "util/parallel.hpp"

namespace snmpv3fp {
namespace {

using result_equal::expect_same_joined;
using result_equal::expect_same_run;

using util::ParallelOptions;

TEST(ParallelFor, EmptyRangeRunsNothing) {
  std::atomic<int> calls{0};
  util::parallel_for(0, 0, {.threads = 8},
                     [&](std::size_t) { ++calls; });
  util::parallel_for(5, 5, {.threads = 8},
                     [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  util::parallel_for(0, kCount, {.threads = 8},
                     [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, FewerItemsThanThreads) {
  std::vector<std::atomic<int>> visits(3);
  util::parallel_for(0, 3, {.threads = 16},
                     [&](std::size_t i) { ++visits[i]; });
  for (auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, SingleThreadRunsInOrder) {
  std::vector<std::size_t> order;
  util::parallel_for(10, 20, {.threads = 1},
                     [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 10);
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, ChunksPartitionTheRange) {
  constexpr std::size_t kCount = 103;  // not a multiple of the thread count
  std::vector<std::atomic<int>> visits(kCount);
  util::parallel_for_chunks(
      0, kCount, {.threads = 8},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        ASSERT_LE(begin, end);
        for (std::size_t i = begin; i < end; ++i) ++visits[i];
      });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      util::parallel_for(0, 100, {.threads = 4},
                         [](std::size_t i) {
                           if (i == 37) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
  // The pool survives a failed batch and accepts new work.
  std::atomic<int> calls{0};
  util::parallel_for(0, 10, {.threads = 4}, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ParallelMap, ResultsLandInIndexOrder) {
  const auto squares = util::parallel_map<std::size_t>(
      257, ParallelOptions{.threads = 8},
      [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 257u);
  for (std::size_t i = 0; i < squares.size(); ++i)
    EXPECT_EQ(squares[i], i * i);
}

// ---- pipeline determinism across thread counts ---------------------------

// Mid-size world: denser than tiny() so every parallel stage sees several
// chunks' worth of records, still fast enough for a unit test to run the
// pipeline three times.
topo::WorldConfig mid_size_world() {
  topo::WorldConfig config = topo::WorldConfig::tiny();
  config.seed = 11;
  config.router_scale = 120.0;
  config.mega_scale = 120.0;
  config.device_scale = 1200.0;
  config.tail_as_count = 80;
  return config;
}

core::PipelineResult run_with_threads(std::size_t threads) {
  core::PipelineOptions options;
  options.world = mid_size_world();
  options.parallel.threads = threads;
  return core::run_full_pipeline(options);
}

void expect_same_report(const core::FilterReport& a,
                        const core::FilterReport& b) {
  EXPECT_EQ(a.input, b.input);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.dropped, b.dropped);
}

void expect_identical(const core::PipelineResult& a,
                      const core::PipelineResult& b) {
  expect_same_run(a, b);
  EXPECT_EQ(a.v4_campaign.fabric_stats, b.v4_campaign.fabric_stats);
}

TEST(ParallelDeterminism, PipelineBitIdenticalAcrossThreadCounts) {
  const auto sequential = run_with_threads(1);
  const auto two_threads = run_with_threads(2);
  const auto eight_threads = run_with_threads(8);
  expect_identical(sequential, two_threads);
  expect_identical(sequential, eight_threads);
}

TEST(ParallelDeterminism, AnalysisStagesMatchSequential) {
  // Join / filter / alias on the same campaign: chunked runs must equal
  // the sequential ones record for record.
  const auto result = run_with_threads(1);
  const ParallelOptions eight{.threads = 8};

  core::JoinStats stats_seq, stats_par;
  const auto joined_seq =
      core::join_scans(result.v4_campaign.scan1, result.v4_campaign.scan2,
                       &stats_seq, {.threads = 1});
  const auto joined_par =
      core::join_scans(result.v4_campaign.scan1, result.v4_campaign.scan2,
                       &stats_par, eight);
  EXPECT_EQ(stats_seq.overlap, stats_par.overlap);
  expect_same_joined(joined_seq, joined_par);

  const core::FilterPipeline pipeline;
  std::vector<core::JoinedRecord> records_seq, records_par;
  expect_same_report(
      pipeline.apply_columnar(joined_seq, records_seq, {.threads = 1}),
      pipeline.apply_columnar(joined_par, records_par, eight));
  ASSERT_EQ(records_seq.size(), records_par.size());

  const auto aliases_seq =
      core::resolve_aliases(records_seq, {}, {.threads = 1});
  const auto aliases_par = core::resolve_aliases(records_par, {}, eight);
  ASSERT_EQ(aliases_seq.sets.size(), aliases_par.sets.size());
  for (std::size_t i = 0; i < aliases_seq.sets.size(); ++i) {
    ASSERT_EQ(aliases_seq.sets[i].addresses, aliases_par.sets[i].addresses);
    EXPECT_EQ(aliases_seq.sets[i].engine_id, aliases_par.sets[i].engine_id);
  }
}

}  // namespace
}  // namespace snmpv3fp
