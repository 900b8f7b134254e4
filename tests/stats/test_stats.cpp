#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "src/common/rng.h"
#include "src/stats/regression.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace wsync {
namespace {

TEST(SummaryTest, BasicStatistics) {
  const std::array<double, 5> values = {1, 2, 3, 4, 5};
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(SummaryTest, EmptyInputYieldsZeros) {
  const Summary s = summarize(std::span<const double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(SummaryTest, IntegerOverload) {
  const std::array<int64_t, 3> values = {10, 20, 30};
  EXPECT_DOUBLE_EQ(summarize(values).mean, 20.0);
}

TEST(QuantileTest, InterpolatesLinearly) {
  const std::array<double, 4> values = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 2.5);
  EXPECT_NEAR(quantile(values, 0.9), 3.7, 1e-12);
}

TEST(QuantileTest, UnsortedInputHandled) {
  const std::array<double, 5> values = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 3.0);
}

TEST(QuantileTest, Validates) {
  const std::array<double, 2> values = {1, 2};
  EXPECT_THROW(quantile(values, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(values, 1.1), std::invalid_argument);
  EXPECT_THROW(quantile(std::span<const double>{}, 0.5),
               std::invalid_argument);
}

TEST(WilsonTest, CoversTrueProportion) {
  const Proportion p = wilson_interval(80, 100);
  EXPECT_NEAR(p.estimate, 0.8, 1e-12);
  EXPECT_LT(p.lower, 0.8);
  EXPECT_GT(p.upper, 0.8);
  EXPECT_GT(p.lower, 0.7);
  EXPECT_LT(p.upper, 0.9);
}

TEST(WilsonTest, ExtremesStayInUnitInterval) {
  const Proportion zero = wilson_interval(0, 50);
  EXPECT_GE(zero.lower, 0.0);
  const Proportion one = wilson_interval(50, 50);
  EXPECT_LE(one.upper, 1.0);
  EXPECT_THROW(wilson_interval(5, 4), std::invalid_argument);
}

TEST(MeanCiTest, ShrinksWithSampleSize) {
  std::vector<double> small(10), large(1000);
  Rng rng(1);
  for (auto& v : small) v = rng.uniform01();
  for (auto& v : large) v = rng.uniform01();
  EXPECT_GT(mean_ci(small).half_width, mean_ci(large).half_width);
}

TEST(LinearFitTest, RecoversExactLine) {
  const std::array<double, 4> x = {1, 2, 3, 4};
  const std::array<double, 4> y = {5, 7, 9, 11};  // y = 3 + 2x
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(LinearFitTest, Validates) {
  const std::array<double, 2> x = {1, 1};
  const std::array<double, 2> y = {1, 2};
  EXPECT_THROW(linear_fit(x, y), std::invalid_argument);  // equal x's
  const std::array<double, 1> one = {1};
  EXPECT_THROW(linear_fit(one, one), std::invalid_argument);
}

TEST(PowerFitTest, RecoversExponent) {
  std::vector<double> x, y;
  for (double v = 1; v <= 64; v *= 2) {
    x.push_back(v);
    y.push_back(3.0 * v * v);  // y = 3 x^2
  }
  const PowerFit fit = power_fit(x, y);
  EXPECT_NEAR(fit.exponent, 2.0, 1e-9);
  EXPECT_NEAR(fit.constant, 3.0, 1e-9);
}

TEST(PowerFitTest, RejectsNonPositive) {
  const std::array<double, 2> x = {1, -2};
  const std::array<double, 2> y = {1, 2};
  EXPECT_THROW(power_fit(x, y), std::invalid_argument);
}

TEST(ModelFitTest, FindsBestConstant) {
  const std::array<double, 3> model = {1, 2, 3};
  const std::array<double, 3> y = {2, 4, 6};  // y = 2 * model
  const ModelFit fit = model_fit(model, y);
  EXPECT_NEAR(fit.constant, 2.0, 1e-9);
  EXPECT_NEAR(fit.max_relative_error, 0.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(ModelFitTest, ReportsDeviation) {
  const std::array<double, 3> model = {1, 2, 3};
  const std::array<double, 3> y = {2, 4, 9};
  const ModelFit fit = model_fit(model, y);
  EXPECT_GT(fit.max_relative_error, 0.0);
}

TEST(TableTest, MarkdownRendering) {
  Table table({"name", "value"});
  table.row().cell("alpha").cell(int64_t{42});
  table.row().cell("beta").cell(3.14159, 2);
  const std::string md = table.markdown();
  EXPECT_NE(md.find("| name"), std::string::npos);
  EXPECT_NE(md.find("| alpha"), std::string::npos);
  EXPECT_NE(md.find("3.14"), std::string::npos);
  EXPECT_NE(md.find("|---"), std::string::npos);
}

TEST(TableTest, CsvRendering) {
  Table table({"a", "b"});
  table.row().cell(int64_t{1}).cell(int64_t{2});
  EXPECT_EQ(table.csv(), "a,b\n1,2\n");
}

TEST(TableTest, RejectsIncompleteRows) {
  Table table({"a", "b"});
  table.row().cell("only-one");
  EXPECT_THROW(table.markdown(), std::invalid_argument);
  EXPECT_THROW(table.row(), std::invalid_argument);
}

TEST(TableTest, RejectsOverflowingRow) {
  Table table({"a"});
  table.row().cell("x");
  EXPECT_THROW(table.cell("y"), std::invalid_argument);
}

}  // namespace
}  // namespace wsync
