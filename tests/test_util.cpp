// Unit tests for the utility layer: deterministic RNG, statistics, table
// rendering, and CLI parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace ulpsync::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 20; ++i) differences += (a.next_u64() != b.next_u64());
  EXPECT_GT(differences, 15);
}

TEST(Rng, NextBelowStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.next_in_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(rng.next_gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
}

TEST(RunningStats, DegenerateCases) {
  RunningStats stats;
  EXPECT_EQ(stats.variance(), 0.0);
  stats.add(3.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.mean(), 3.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> samples = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(samples, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7.0);
}

TEST(Stats, RelativeError) {
  EXPECT_DOUBLE_EQ(relative_error(110, 100), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(90, 100), 0.1);
  EXPECT_DOUBLE_EQ(relative_error(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(relative_error(5, 0), 1.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(geometric_mean({2, 8}), 4.0, 1e-12);
  EXPECT_NEAR(geometric_mean({3, 3, 3}), 3.0, 1e-12);
  EXPECT_EQ(geometric_mean({}), 0.0);
}

TEST(Table, AlignsColumnsAndPadsRows) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer-name"});  // short row padded
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("| longer-name"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
  EXPECT_EQ(Table::num(-0.5, 1), "-0.5");
}

TEST(Table, CsvEscapesSpecialCells) {
  Table table({"a", "b"});
  table.add_row({"plain", "with,comma"});
  table.add_row({"quote\"inside", "line\nbreak"});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Cli, ParsesFlagFormsAndPositionals) {
  const char* argv[] = {"prog", "--alpha=3", "pos1", "--beta", "4",
                        "--gamma", "--delta=x"};
  CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 4);
  // A bare flag immediately followed by another flag reads as "1".
  EXPECT_TRUE(args.has("gamma"));
  EXPECT_EQ(args.get("gamma", ""), "1");
  EXPECT_EQ(args.get("delta", ""), "x");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, BareFlagBeforeWordConsumesItAsValue) {
  const char* argv[] = {"prog", "--gamma", "pos1"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get("gamma", ""), "pos1");
  EXPECT_TRUE(args.positional().empty());
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_FALSE(args.has("x"));
  EXPECT_EQ(args.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("y", 2.5), 2.5);
  EXPECT_EQ(args.get("z", "dflt"), "dflt");
}

TEST(Cli, ParsesHexAndDoubles) {
  const char* argv[] = {"prog", "--addr=0x40", "--ratio=0.75"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get_int("addr", 0), 0x40);
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0), 0.75);
}

TEST(Cli, RejectsNumbersThatDoNotParseCompletely) {
  const char* argv[] = {"prog",       "--max-cycles=2e6", "--jobs=abc",
                        "--samples=4x", "--big=99999999999999999999",
                        "--mhz=2.5MHz", "--huge=1e999"};
  CliArgs args(7, argv);
  const auto message = [&](const std::string& name) -> std::string {
    try {
      (void)args.get_int(name, 0);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    return "accepted";
  };
  EXPECT_EQ(message("max-cycles"), "malformed --max-cycles value '2e6'");
  EXPECT_EQ(message("jobs"), "malformed --jobs value 'abc'");
  EXPECT_EQ(message("samples"), "malformed --samples value '4x'");
  EXPECT_EQ(message("big"),
            "malformed --big value '99999999999999999999'");  // overflows
  EXPECT_THROW((void)args.get_double("mhz", 0), std::runtime_error);
  EXPECT_THROW((void)args.get_double("huge", 0), std::runtime_error);
  // Doubles accept what integers refuse.
  EXPECT_DOUBLE_EQ(args.get_double("max-cycles", 0), 2e6);
}

}  // namespace
}  // namespace ulpsync::util
