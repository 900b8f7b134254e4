// Edge cases of the stats layer: degenerate samples (empty, single,
// zero-variance) and the JSON table rendering — the inputs every
// aggregation path produces eventually (e.g. a point where all runs timed
// out yields empty summaries).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/stats/regression.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"

namespace wsync {
namespace {

TEST(SummaryEdgeTest, EmptySampleIsAllZeros) {
  const Summary s = summarize(std::span<const double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p90, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(SummaryEdgeTest, SingleSampleHasZeroSpread) {
  const std::array<double, 1> values = {7.5};
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 7.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_DOUBLE_EQ(s.p50, 7.5);
  EXPECT_DOUBLE_EQ(s.p90, 7.5);
  EXPECT_DOUBLE_EQ(s.p99, 7.5);
}

TEST(SummaryEdgeTest, ConstantSampleHasZeroStddev) {
  const std::array<double, 4> values = {3, 3, 3, 3};
  const Summary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.p90, 3.0);
}

TEST(SummaryEdgeTest, NegativeValuesKeepOrdering) {
  const std::array<double, 3> values = {-5, -1, -3};
  const Summary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.min, -5.0);
  EXPECT_DOUBLE_EQ(s.max, -1.0);
  EXPECT_DOUBLE_EQ(s.p50, -3.0);
}

TEST(QuantileEdgeTest, SingleSampleIgnoresQ) {
  const std::array<double, 1> values = {2.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.37), 2.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 2.0);
}

TEST(MeanCiEdgeTest, DegenerateSamplesHaveZeroHalfWidth) {
  EXPECT_DOUBLE_EQ(mean_ci({}).half_width, 0.0);
  const std::array<double, 1> one = {4.0};
  EXPECT_DOUBLE_EQ(mean_ci(one).mean, 4.0);
  EXPECT_DOUBLE_EQ(mean_ci(one).half_width, 0.0);
  const std::array<double, 5> constant = {2, 2, 2, 2, 2};
  EXPECT_DOUBLE_EQ(mean_ci(constant).half_width, 0.0);
}

TEST(WilsonEdgeTest, ZeroTrialsYieldsZeroInterval) {
  const Proportion p = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(p.estimate, 0.0);
  EXPECT_DOUBLE_EQ(p.lower, 0.0);
  EXPECT_DOUBLE_EQ(p.upper, 0.0);
}

TEST(LinearFitEdgeTest, ZeroVarianceYIsAPerfectFlatFit) {
  const std::array<double, 4> x = {1, 2, 3, 4};
  const std::array<double, 4> y = {5, 5, 5, 5};
  const LinearFit fit = linear_fit(x, y);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 5.0);
  // ss_tot == ss_res == 0: the convention is a perfect fit, not NaN.
  EXPECT_DOUBLE_EQ(fit.r2, 1.0);
}

TEST(LinearFitEdgeTest, ZeroVarianceYWithNoiseReportsZeroR2) {
  // Flat y cannot be explained at all once residuals are forced nonzero:
  // a sloped x with y constant except one point.
  const std::array<double, 3> x = {1, 2, 30};
  const std::array<double, 3> y = {5, 5, 5};
  const LinearFit fit = linear_fit(x, y);
  EXPECT_DOUBLE_EQ(fit.r2, 1.0);  // still exact: slope 0 passes through
}

TEST(ModelFitEdgeTest, AllZeroYGivesZeroConstantPerfectR2) {
  const std::array<double, 3> model = {1, 2, 3};
  const std::array<double, 3> y = {0, 0, 0};
  const ModelFit fit = model_fit(model, y);
  EXPECT_DOUBLE_EQ(fit.constant, 0.0);
  // Zero y-values are skipped by the relative-error scan.
  EXPECT_DOUBLE_EQ(fit.max_relative_error, 0.0);
  EXPECT_DOUBLE_EQ(fit.r2, 1.0);
}

TEST(ModelFitEdgeTest, SinglePointFitsExactly) {
  const std::array<double, 1> model = {4};
  const std::array<double, 1> y = {10};
  const ModelFit fit = model_fit(model, y);
  EXPECT_DOUBLE_EQ(fit.constant, 2.5);
  EXPECT_DOUBLE_EQ(fit.max_relative_error, 0.0);
}

TEST(PowerFitEdgeTest, ConstantCurveHasZeroExponent) {
  const std::array<double, 4> x = {1, 2, 4, 8};
  const std::array<double, 4> y = {3, 3, 3, 3};
  const PowerFit fit = power_fit(x, y);
  EXPECT_NEAR(fit.exponent, 0.0, 1e-12);
  EXPECT_NEAR(fit.constant, 3.0, 1e-12);
}

TEST(TableJsonTest, NumbersUnquotedStringsEscaped) {
  Table table({"name", "count", "ratio"});
  table.row().cell("alpha \"x\"").cell(int64_t{42}).cell(0.5, 2);
  table.row().cell("line\nbreak").cell(int64_t{-7}).cell(-1.25, 2);
  const std::string json = table.json();
  EXPECT_NE(json.find("{\"name\": \"alpha \\\"x\\\"\", \"count\": 42, "
                      "\"ratio\": 0.50}"),
            std::string::npos);
  EXPECT_NE(json.find("\"line\\nbreak\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": -7"), std::string::npos);
  EXPECT_NE(json.find("\"ratio\": -1.25"), std::string::npos);
}

TEST(TableJsonTest, EmptyTableIsEmptyArray) {
  Table table({"a"});
  EXPECT_EQ(table.json(), "[]");
}

TEST(TableJsonTest, IndentAppliesToEveryLine) {
  Table table({"a"});
  table.row().cell(int64_t{1});
  EXPECT_EQ(table.json(2), "  [\n    {\"a\": 1}\n  ]");
}

TEST(TableJsonTest, NonNumericLookalikesStayQuoted) {
  Table table({"v"});
  table.row().cell("1,024");
  table.row().cell("3.");
  table.row().cell("-");
  table.row().cell("1e5");  // exponents are not produced by cell(); quoted
  table.row().cell("007");  // JSON forbids leading zeros
  table.row().cell("-007");
  const std::string json = table.json();
  EXPECT_NE(json.find("\"1,024\""), std::string::npos);
  EXPECT_NE(json.find("\"3.\""), std::string::npos);
  EXPECT_NE(json.find("\"-\""), std::string::npos);
  EXPECT_NE(json.find("\"1e5\""), std::string::npos);
  EXPECT_NE(json.find("\"007\""), std::string::npos);
  EXPECT_NE(json.find("\"-007\""), std::string::npos);
}

TEST(TableJsonTest, ZeroFormsStayNumeric) {
  Table table({"v"});
  table.row().cell(int64_t{0});
  table.row().cell(0.5, 2);
  table.row().cell(-0.25, 2);
  const std::string json = table.json();
  EXPECT_NE(json.find("{\"v\": 0}"), std::string::npos);
  EXPECT_NE(json.find("{\"v\": 0.50}"), std::string::npos);
  EXPECT_NE(json.find("{\"v\": -0.25}"), std::string::npos);
}

TEST(JsonEscapedTest, QuotesAndControlCharacters) {
  EXPECT_EQ(json_escaped("plain"), "\"plain\"");
  EXPECT_EQ(json_escaped("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_escaped("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(json_escaped(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(TableJsonTest, RejectsIncompleteLastRow) {
  Table table({"a", "b"});
  table.row().cell("only");
  EXPECT_THROW(table.json(), std::invalid_argument);
}

TEST(TableCsvTest, PlainCellsStayBare) {
  Table table({"name", "count"});
  table.row().cell("alpha").cell(int64_t{42});
  table.row().cell("beta").cell(int64_t{-7});
  EXPECT_EQ(table.csv(), "name,count\nalpha,42\nbeta,-7\n");
}

TEST(TableCsvTest, QuotesCommasQuotesAndLineBreaks) {
  Table table({"v"});
  table.row().cell("a,b");
  table.row().cell("say \"hi\"");
  table.row().cell("line\nbreak");
  table.row().cell("cr\rhere");
  EXPECT_EQ(table.csv(),
            "v\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"line\nbreak\"\n"
            "\"cr\rhere\"\n");
}

TEST(TableCsvTest, QuotesHeadersToo) {
  Table table({"plain", "with,comma"});
  table.row().cell("x").cell("y");
  EXPECT_EQ(table.csv(), "plain,\"with,comma\"\nx,y\n");
}

TEST(TableCsvTest, EmptyTableIsHeaderOnly) {
  Table table({"a", "b"});
  EXPECT_EQ(table.csv(), "a,b\n");
}

TEST(TableCsvTest, EmptyCellsRoundTrip) {
  Table table({"a", "b"});
  table.row().cell("").cell("");
  EXPECT_EQ(table.csv(), "a,b\n,\n");
}

TEST(TableCsvTest, RejectsIncompleteLastRow) {
  Table table({"a", "b"});
  table.row().cell("only");
  EXPECT_THROW(table.csv(), std::invalid_argument);
}

}  // namespace
}  // namespace wsync
