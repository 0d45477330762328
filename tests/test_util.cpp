// Unit tests for glva_util: strings, CSV, tables, charts, stats, CLI.

#include <gtest/gtest.h>

#include "util/ascii_chart.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/errors.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/text_table.h"

namespace {

using namespace glva::util;

// ---------------------------------------------------------------- strings

TEST(StringUtil, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringUtil, TrimKeepsInteriorWhitespace) {
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(StringUtil, SplitOnSeparator) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtil, SplitWhitespaceDropsEmptyFields) {
  EXPECT_EQ(split_ws("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StringUtil, JoinConcatenatesWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(StringUtil, ToLowerIsAsciiOnly) {
  EXPECT_EQ(to_lower("AbC_9"), "abc_9");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(starts_with("myers_and", "myers_"));
  EXPECT_FALSE(starts_with("and", "myers_"));
  EXPECT_TRUE(ends_with("trace.csv", ".csv"));
  EXPECT_FALSE(ends_with("csv", "trace.csv"));
}

TEST(StringUtil, ReplaceAllHandlesOverlapsAndEmpty) {
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("x", "", "y"), "x");
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
}

TEST(StringUtil, ParseDoubleAcceptsOnlyCleanNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("  -1e3 ").value(), -1000.0);
  EXPECT_FALSE(parse_double("2.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("nanx").has_value());
}

TEST(StringUtil, ParseIntRejectsFractions) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_FALSE(parse_int("4.2").has_value());
  EXPECT_FALSE(parse_int("abc").has_value());
}

TEST(StringUtil, FormatDoubleTrimsIntegralValues) {
  EXPECT_EQ(format_double(15.0), "15");
  EXPECT_EQ(format_double(0.25), "0.25");
  EXPECT_EQ(format_double(-3.0), "-3");
}

TEST(StringUtil, FormatDoubleHandlesSpecials) {
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
}

TEST(StringUtil, ValidSidFollowsSbmlRules) {
  EXPECT_TRUE(is_valid_sid("GFP"));
  EXPECT_TRUE(is_valid_sid("_x9"));
  EXPECT_FALSE(is_valid_sid("9x"));
  EXPECT_FALSE(is_valid_sid(""));
  EXPECT_FALSE(is_valid_sid("a-b"));
}

// ------------------------------------------------------------------- CSV

TEST(Csv, WritesSimpleRows) {
  CsvWriter csv;
  csv.row("a", 1, 2.5);
  EXPECT_EQ(csv.str(), "a,1,2.5\n");
}

TEST(Csv, QuotesFieldsWithSeparatorsAndQuotes) {
  CsvWriter csv;
  csv.add_row({"a,b", "say \"hi\"", "line\nbreak"});
  EXPECT_EQ(csv.str(), "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(Csv, ParseRoundTripsQuotedContent) {
  CsvWriter csv;
  csv.add_row({"a,b", "plain", "q\"q"});
  csv.add_row({"1", "2", "3"});
  const auto rows = parse_csv(csv.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a,b", "plain", "q\"q"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Csv, ParseRejectsUnterminatedQuote) {
  EXPECT_THROW(parse_csv("\"abc"), glva::ParseError);
}

TEST(Csv, ParseHandlesCrLf) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

// ------------------------------------------------------------ text table

TEST(TextTable, AlignsColumns) {
  TextTable table({"name", "value"});
  table.set_align(1, TextTable::Align::kRight);
  table.add_row({"x", "1"});
  table.add_row({"longer", "123"});
  const std::string out = table.str();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("x           1"), std::string::npos);
}

TEST(TextTable, PadsShortRows) {
  TextTable table({"a", "b", "c"});
  table.add_row({"1"});
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_NO_THROW(table.str());
}

// ------------------------------------------------------------ ascii chart

TEST(AsciiChart, TimeSeriesRendersThresholdLine) {
  std::vector<double> times{0, 1, 2, 3, 4};
  std::vector<double> values{0, 10, 20, 30, 40};
  ChartOptions options;
  options.width = 20;
  options.height = 5;
  options.threshold = 15.0;
  const std::string out = render_time_series("t", times, values, options);
  EXPECT_NE(out.find('-'), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiChart, TimeSeriesHandlesEmptyData) {
  const std::string out = render_time_series("t", {}, {});
  EXPECT_NE(out.find("no data"), std::string::npos);
}

TEST(AsciiChart, BarChartScalesToMax) {
  const std::string out =
      render_bar_chart("b", {"x", "y"}, {1.0, 2.0}, 10);
  // y gets the full 10 hashes, x half.
  EXPECT_NE(out.find("##########"), std::string::npos);
}

TEST(AsciiChart, RunLengthEncodesStreams) {
  EXPECT_EQ(render_run_length({false, false, true, true, true, false}),
            "0x2 1x3 0x1");
  EXPECT_EQ(render_run_length({}), "(empty)");
  EXPECT_EQ(render_run_length({true}), "1x1");
}

// ------------------------------------------------------------------ stats

TEST(Stats, RunningStatsMatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, RunningStatsMergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3.0;
    (i < 20 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(Stats, RunningStatsMergeFuzzAcrossEverySplitPoint) {
  // Deterministic sample with spread and repeats; every split of it must
  // merge back to the sequential statistics (parallel-Welford identity).
  std::vector<double> xs;
  for (int i = 0; i < 40; ++i) {
    xs.push_back(((i * 7919) % 23) * 0.125 - 1.0);
  }
  RunningStats all;
  for (const double x : xs) all.add(x);
  for (std::size_t split = 0; split <= xs.size(); ++split) {
    RunningStats left, right;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      (i < split ? left : right).add(xs[i]);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count()) << "split " << split;
    EXPECT_NEAR(left.mean(), all.mean(), 1e-12) << "split " << split;
    EXPECT_NEAR(left.variance(), all.variance(), 1e-10) << "split " << split;
    EXPECT_DOUBLE_EQ(left.min(), all.min()) << "split " << split;
    EXPECT_DOUBLE_EQ(left.max(), all.max()) << "split " << split;
  }
}

TEST(Stats, RunningStatsEmptyAndSingletonEdges) {
  RunningStats empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.variance(), 0.0);
  EXPECT_EQ(empty.stddev(), 0.0);

  RunningStats one;
  one.add(3.5);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_DOUBLE_EQ(one.mean(), 3.5);
  EXPECT_EQ(one.variance(), 0.0);  // no spread information
  EXPECT_DOUBLE_EQ(one.min(), 3.5);
  EXPECT_DOUBLE_EQ(one.max(), 3.5);

  // Merging an empty accumulator in either direction changes nothing.
  RunningStats lhs = one;
  lhs.merge(empty);
  EXPECT_EQ(lhs.count(), 1u);
  EXPECT_DOUBLE_EQ(lhs.mean(), 3.5);
  empty.merge(one);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.5);
}

TEST(Stats, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_THROW((void)percentile({}, 0.5), glva::InvalidArgument);
}

TEST(Stats, HistogramClampsOutliers) {
  const std::vector<double> xs{-10.0, 0.5, 1.5, 99.0};
  const auto counts = histogram(xs, 0.0, 2.0, 2);
  EXPECT_EQ(counts[0], 2u);  // -10 clamps into bin 0
  EXPECT_EQ(counts[1], 2u);  // 99 clamps into bin 1
}

TEST(Stats, OtsuSeparatesBimodalSample) {
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(1.0 + 0.01 * (i % 7));
  for (int i = 0; i < 500; ++i) xs.push_back(60.0 + 0.01 * (i % 7));
  const double threshold = otsu_threshold(xs);
  EXPECT_GT(threshold, 5.0);
  EXPECT_LT(threshold, 58.0);
}

TEST(Stats, OtsuHandlesConstantSignal) {
  EXPECT_DOUBLE_EQ(otsu_threshold(std::vector<double>{5.0, 5.0, 5.0}), 5.0);
  EXPECT_THROW((void)otsu_threshold(std::vector<double>{}),
               glva::InvalidArgument);
}

// -------------------------------------------------------------------- CLI

TEST(Cli, ParsesOptionsFlagsAndPositionals) {
  CliParser cli;
  cli.add_option("threshold", "15", "ThVAL");
  cli.add_flag("two-stage", "expand");
  const char* argv[] = {"prog", "--threshold", "40", "--two-stage", "extra"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("threshold"), 40.0);
  EXPECT_TRUE(cli.get_flag("two-stage"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "extra");
}

TEST(Cli, SupportsEqualsSyntax) {
  CliParser cli;
  cli.add_option("seed", "1", "seed");
  const char* argv[] = {"prog", "--seed=42"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("seed"), 42);
}

TEST(Cli, HelpRequestsReturnFalse) {
  CliParser cli;
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.help("prog").find("usage"), std::string::npos);
}

TEST(Cli, RejectsUnknownAndValuelessOptions) {
  CliParser cli;
  cli.add_option("x", "", "x");
  const char* bad[] = {"prog", "--nope", "1"};
  EXPECT_THROW((void)cli.parse(3, bad), glva::InvalidArgument);
  CliParser cli2;
  cli2.add_option("x", "", "x");
  const char* missing[] = {"prog", "--x"};
  EXPECT_THROW((void)cli2.parse(2, missing), glva::InvalidArgument);
}

TEST(Cli, TypedGettersValidate) {
  CliParser cli;
  cli.add_option("name", "abc", "a string");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW((void)cli.get_double("name"), glva::InvalidArgument);
  EXPECT_THROW((void)cli.get("undeclared"), glva::InvalidArgument);
}

TEST(Cli, UnsignedGetterRefusesNegativesInsteadOfWrapping) {
  CliParser cli;
  cli.add_option("seed", "1", "seed");
  const char* argv[] = {"prog", "--seed", "-1"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("seed"), -1);
  try {
    (void)cli.get_uint("seed");
    ADD_FAILURE() << "-1 must not wrap to 2^64 - 1";
  } catch (const glva::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos);
  }
  CliParser zero;
  zero.add_option("seed", "0", "seed");
  ASSERT_TRUE(zero.parse(1, argv));
  EXPECT_EQ(zero.get_uint("seed"), 0u);
}

}  // namespace
