#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/vclock.hpp"

namespace snmpv3fp::util {
namespace {

// ---------------------------------------------------------------------------
// bytes
// ---------------------------------------------------------------------------

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x80, 0x00, 0x07, 0xc7, 0x03, 0x74, 0x8e, 0xf8};
  EXPECT_EQ(to_hex(data), "800007c703748ef8");
  const auto parsed = from_hex(to_hex(data));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), data);
}

TEST(Bytes, HexColonFormat) {
  const Bytes mac = {0x74, 0x8e, 0xf8, 0x31, 0xdb, 0x80};
  EXPECT_EQ(to_hex_colon(mac), "74:8e:f8:31:db:80");
  const auto parsed = from_hex("74:8e:f8:31:db:80");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), mac);
}

TEST(Bytes, FromHexRejectsGarbage) {
  EXPECT_FALSE(from_hex("xyz").ok());
  EXPECT_FALSE(from_hex("abc").ok());  // odd digit count
  EXPECT_TRUE(from_hex("").ok());
  EXPECT_TRUE(from_hex("").value().empty());
}

TEST(Bytes, BigEndianRoundTrip) {
  Bytes out;
  append_be(out, 0x0123456789abcdefULL, 8);
  EXPECT_EQ(out.size(), 8u);
  EXPECT_EQ(read_be(out), 0x0123456789abcdefULL);
  Bytes short_out;
  append_be(short_out, 0xbeef, 2);
  EXPECT_EQ(read_be(short_out), 0xbeefULL);
}

TEST(Bytes, HammingWeight) {
  EXPECT_EQ(hamming_weight(Bytes{}), 0u);
  EXPECT_EQ(hamming_weight(Bytes{0xff}), 8u);
  EXPECT_EQ(hamming_weight(Bytes{0x0f, 0xf0}), 8u);
  EXPECT_DOUBLE_EQ(relative_hamming_weight(Bytes{0x0f, 0xf0}), 0.5);
  EXPECT_DOUBLE_EQ(relative_hamming_weight(Bytes{}), 0.0);
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

// next_below's rejection algorithm as it ran for every bound, kept here
// as the reference for the power-of-two fast path.
std::uint64_t next_below_by_rejection(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = rng.next();
    if (r >= threshold) return r % bound;
  }
}

TEST(Rng, NextBelowPowerOfTwoMatchesRejectionPath) {
  for (int exponent = 0; exponent < 64; ++exponent) {
    const std::uint64_t bound = std::uint64_t{1} << exponent;
    Rng fast(1000 + exponent), reference(1000 + exponent);
    for (int i = 0; i < 256; ++i)
      ASSERT_EQ(fast.next_below(bound),
                next_below_by_rejection(reference, bound))
          << "2^" << exponent << " draw " << i;
    // Same stream position: both consumed exactly one draw per call.
    EXPECT_EQ(fast.save_state(), reference.save_state()) << "2^" << exponent;
  }
  // Other bounds keep the rejection path.
  for (const std::uint64_t bound :
       {std::uint64_t{3}, std::uint64_t{17}, (std::uint64_t{1} << 63) + 1}) {
    Rng fast(7), reference(7);
    for (int i = 0; i < 256; ++i)
      ASSERT_EQ(fast.next_below(bound),
                next_below_by_rejection(reference, bound))
          << bound << " draw " << i;
    EXPECT_EQ(fast.save_state(), reference.save_state()) << bound;
  }
}

TEST(Rng, Uniform01InRange) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(5.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.2);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(17);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::size_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0u);
  EXPECT_NEAR(static_cast<double>(counts[2]) / static_cast<double>(counts[0]),
              3.0, 0.25);
}

TEST(Rng, ZipfIsHeavyTailed) {
  Rng rng(19);
  std::size_t first = 0, top10 = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::size_t k = rng.zipf(100, 1.2);
    ASSERT_LT(k, 100u);
    first += k == 0;
    top10 += k < 10;
  }
  // For s=1.2, n=100: P(0) ~ 1/H_{100,1.2} ~ 0.21; top-10 holds a majority.
  EXPECT_GT(first, 1700u);
  EXPECT_GT(top10, 5000u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(23);
  Rng a = parent.fork("a");
  Rng b = parent.fork("b");
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(Ecdf, BasicQueries) {
  Ecdf ecdf({3.0, 1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_most(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_most(2.5), 0.5);
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_most(100.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.max(), 4.0);
  EXPECT_DOUBLE_EQ(ecdf.median(), 2.0);
}

TEST(Ecdf, QuantileMatchesFraction) {
  Ecdf ecdf;
  for (int i = 1; i <= 100; ++i) ecdf.add(i);
  ecdf.finalize();
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(ecdf.quantile(0.01), 1.0);
}

TEST(Ecdf, EmptyIsSafe) {
  const Ecdf ecdf;
  EXPECT_TRUE(ecdf.empty());
  EXPECT_DOUBLE_EQ(ecdf.fraction_at_most(1.0), 0.0);
  EXPECT_TRUE(ecdf.curve().empty());
}

TEST(Ecdf, CurveIsMonotonic) {
  Ecdf ecdf;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) ecdf.add(rng.uniform(0, 1000));
  ecdf.finalize();
  const auto curve = ecdf.curve(25);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LE(curve[i - 1].second, curve[i].second);
  }
}

TEST(Histogram, BinsAndClamping) {
  Histogram histogram(0.0, 1.0, 10);
  histogram.add(0.05);
  histogram.add(0.95);
  histogram.add(-5.0);  // clamps to first bin
  histogram.add(5.0);   // clamps to last bin
  EXPECT_EQ(histogram.total(), 4u);
  EXPECT_EQ(histogram.bin_count(0), 2u);
  EXPECT_EQ(histogram.bin_count(9), 2u);
  EXPECT_DOUBLE_EQ(histogram.bin_fraction(0), 0.5);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Tally, CountsAndSorting) {
  Tally tally;
  tally.add("cisco", 5);
  tally.add("huawei", 3);
  tally.add("cisco", 2);
  EXPECT_EQ(tally.get("cisco"), 7u);
  EXPECT_EQ(tally.total(), 10u);
  EXPECT_DOUBLE_EQ(tally.fraction("huawei"), 0.3);
  EXPECT_DOUBLE_EQ(tally.fraction("nokia"), 0.0);
  const auto sorted = tally.sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted.front().first, "cisco");
}

// ---------------------------------------------------------------------------
// strings / table / vclock
// ---------------------------------------------------------------------------

TEST(Strings, Split) {
  const auto parts = split("a.b..c", '.');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(split("", '.').size(), 1u);
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("EU"), "eu");
  EXPECT_TRUE(starts_with("xe-0-0-1.r1", "xe-"));
  EXPECT_TRUE(ends_with("r1.example.net", ".net"));
}

TEST(Table, FormattersAndRendering) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_compact(12500000.0), "12.5M");
  EXPECT_EQ(fmt_compact(31800.0), "31.8k");
  EXPECT_EQ(fmt_percent(0.1234), "12.3%");

  TablePrinter table({"a", "bb"});
  table.add_row({"1", "2"});
  const auto rendered = table.render();
  EXPECT_NE(rendered.find("| a "), std::string::npos);
  EXPECT_NE(rendered.find("| 1 "), std::string::npos);
}

TEST(Csv, EscapesSpecials) {
  CsvWriter csv({"x", "y"});
  csv.add_row({"a,b", "q\"q"});
  const auto rendered = csv.render();
  EXPECT_NE(rendered.find("\"a,b\""), std::string::npos);
  EXPECT_NE(rendered.find("\"q\"\"q\""), std::string::npos);
}

TEST(VClock, ArithmeticAndFormatting) {
  EXPECT_EQ(from_seconds(1.5), 1500000);
  EXPECT_DOUBLE_EQ(to_seconds(kDay), 86400.0);
  EXPECT_EQ(format_vtime(kDay + 2 * kHour + 3 * kMinute + 4 * kSecond),
            "1+02:03:04");
  EXPECT_EQ(format_vtime(-kHour), "-0+01:00:00");

  VirtualClock clock;
  clock.advance(5 * kSecond);
  clock.advance_to(3 * kSecond);  // never goes backwards
  EXPECT_EQ(clock.now(), 5 * kSecond);
  clock.advance_to(10 * kSecond);
  EXPECT_EQ(clock.now(), 10 * kSecond);
}

TEST(VClock, UnixEpochAnchor) {
  // VTime 0 = 2021-04-16T00:00Z = 1618531200 Unix.
  EXPECT_EQ(kUnixEpochVtime, -1618531200LL * kSecond);
}

}  // namespace
}  // namespace snmpv3fp::util
