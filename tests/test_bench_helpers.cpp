/**
 * @file
 * Unit tests for the bench-harness helpers (statistics, cell formatting,
 * option parsing) so the reported tables are trustworthy.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "bench/common.hpp"

namespace bench = smoothe::bench;

TEST(BenchHelpers, GeometricMean)
{
    EXPECT_DOUBLE_EQ(bench::geometricMean({}), 0.0);
    EXPECT_DOUBLE_EQ(bench::geometricMean({4.0}), 4.0);
    EXPECT_NEAR(bench::geometricMean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(bench::geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(BenchHelpers, NormalizedIncrease)
{
    EXPECT_DOUBLE_EQ(bench::normalizedIncrease(110.0, 100.0), 0.1);
    EXPECT_DOUBLE_EQ(bench::normalizedIncrease(100.0, 100.0), 0.0);
    EXPECT_DOUBLE_EQ(bench::normalizedIncrease(50.0, 0.0), 0.0); // guard
    EXPECT_NEAR(bench::normalizedIncrease(730.0, 100.0), 6.3, 1e-12);
}

TEST(BenchHelpers, WorstAvgCell)
{
    EXPECT_EQ(bench::worstAvgCell(0.044, 0.002, 0), "4.4% / 0.2%");
    const std::string failed = bench::worstAvgCell(0.0, 0.075, 2);
    EXPECT_NE(failed.find("Failed(2)"), std::string::npos);
    EXPECT_NE(failed.find("7.5%"), std::string::npos);
}

TEST(BenchHelpers, OptionsParseAndQuickMode)
{
    const char* argv[] = {"bench", "--scale", "0.5", "--time-limit=3",
                          "--runs", "2", "--max-graphs", "7"};
    smoothe::bench::BenchOptions options =
        bench::BenchOptions::parse(8, const_cast<char**>(argv));
    EXPECT_DOUBLE_EQ(options.scale, 0.5);
    EXPECT_DOUBLE_EQ(options.timeLimit, 3.0);
    EXPECT_EQ(options.runs, 2u);
    EXPECT_EQ(options.maxGraphs, 7u);

    const char* quickArgv[] = {"bench", "--quick"};
    const auto quick =
        bench::BenchOptions::parse(2, const_cast<char**>(quickArgv));
    EXPECT_LT(quick.scale, 0.1);
    EXPECT_LE(quick.timeLimit, 2.0);
    EXPECT_EQ(quick.runs, 1u);

    // An explicit --time-limit survives --quick.
    const char* quickLimitArgv[] = {"bench", "--quick", "--time-limit=30"};
    const auto quickLimit =
        bench::BenchOptions::parse(3, const_cast<char**>(quickLimitArgv));
    EXPECT_DOUBLE_EQ(quickLimit.timeLimit, 30.0);
    EXPECT_EQ(quickLimit.runs, 1u);
}

TEST(BenchHelpers, CapGraphs)
{
    smoothe::bench::BenchOptions options;
    options.maxGraphs = 2;
    std::vector<int> items = {1, 2, 3, 4};
    EXPECT_EQ(options.capGraphs(items).size(), 2u);
    options.maxGraphs = 0;
    EXPECT_EQ(options.capGraphs(items).size(), 4u);
}

TEST(BenchHelpers, RepeatMeasureStatsAndWarmup)
{
    smoothe::obs::Report::uninstall(); // isolate from parse() installs

    int calls = 0;
    const auto stats =
        bench::repeatMeasure("", /*warmup=*/2, /*repeats=*/3,
                             [&calls] { ++calls; });
    EXPECT_EQ(calls, 5); // 2 untimed warmups + 3 timed repeats
    EXPECT_EQ(stats.repeats, 3u);
    EXPECT_GE(stats.mean, 0.0);
    EXPECT_LE(stats.min, stats.mean);
    EXPECT_GE(stats.max, stats.mean);
    EXPECT_GE(stats.stddev, 0.0);
    EXPECT_FALSE(stats.cell().empty());
}

TEST(BenchHelpers, RepeatMeasureRecordsIntoReport)
{
    smoothe::obs::Report& report =
        smoothe::obs::Report::install("bench_helpers_test",
                                      "/tmp/smoothe_bench_helpers.json");
    const auto stats =
        bench::repeatMeasure("helper.kernel", 0, 4, [] {});
    EXPECT_EQ(stats.repeats, 4u);
    EXPECT_EQ(report.measurement("helper.kernel").count(), 4u);
    EXPECT_DOUBLE_EQ(report.measurement("helper.kernel").mean(),
                     stats.mean);
    smoothe::obs::Report::uninstall();

    // Without an installed report the helper still measures.
    const auto bare = bench::repeatMeasure("helper.kernel", 0, 2, [] {});
    EXPECT_EQ(bare.repeats, 2u);
}

TEST(BenchHelpers, InterleavedMeasureAlternatesSides)
{
    smoothe::obs::Report& report =
        smoothe::obs::Report::install("bench_helpers_test",
                                      "/tmp/smoothe_bench_helpers.json");
    std::string order;
    const auto [a, b] = bench::repeatMeasureInterleaved(
        "helper.a", "helper.b", /*warmup=*/1, /*repeats=*/3,
        [&order] { order += 'a'; }, [&order] { order += 'b'; });
    EXPECT_EQ(order, "abababab"); // one warmup round, then 3 timed
    EXPECT_EQ(a.repeats, 3u);
    EXPECT_EQ(b.repeats, 3u);
    EXPECT_LE(a.min, a.mean);
    EXPECT_LE(b.min, b.mean);
    // Per-repeat samples stay in run order, so sample i of each side
    // forms a pair (bench_micro_kernels takes per-pair ratios).
    ASSERT_EQ(a.samples.size(), 3u);
    ASSERT_EQ(b.samples.size(), 3u);
    EXPECT_EQ(*std::min_element(a.samples.begin(), a.samples.end()), a.min);
    EXPECT_EQ(report.measurement("helper.a").count(), 3u);
    EXPECT_EQ(report.measurement("helper.b").count(), 3u);
    smoothe::obs::Report::uninstall();
}

TEST(BenchHelpers, MedianPairRatio)
{
    // Odd count: the middle ratio, whatever the order of the pairs.
    EXPECT_DOUBLE_EQ(
        bench::medianPairRatio({3.0, 2.0, 10.0}, {1.0, 1.0, 1.0}), 3.0);
    // Even count: the mean of the two middle ratios.
    EXPECT_DOUBLE_EQ(bench::medianPairRatio({1.0, 4.0, 2.0, 8.0},
                                            {1.0, 2.0, 1.0, 2.0}),
                     2.0);
    // A pair disturbed on one side shifts one ratio, not the median.
    EXPECT_DOUBLE_EQ(bench::medianPairRatio({1.01, 1.01, 300.0},
                                            {1.0, 1.0, 100.0}),
                     1.01);
    // Pairs with a non-positive denominator are skipped; none left
    // gives 0.
    EXPECT_DOUBLE_EQ(bench::medianPairRatio({5.0, 2.0}, {0.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(bench::medianPairRatio({1.0}, {0.0}), 0.0);
    EXPECT_DOUBLE_EQ(bench::medianPairRatio({}, {}), 0.0);
}
