// Unit tests for src/util: RNG, statistics, tables, CLI, JSON, spec tokens.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../bench/bench_support.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/spec_token.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fnr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42, 7), b(42, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(42, 0), b(42, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(1);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 5 * std::sqrt(kDraws));
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(hits, kDraws * 0.25, 5 * std::sqrt(kDraws * 0.25 * 0.75));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 3);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  const auto sample = sample_without_replacement(100, 40, rng);
  ASSERT_EQ(sample.size(), 40u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 40u);
  for (const auto v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(33);
  const auto sample = sample_without_replacement(10, 10, rng);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(35);
  EXPECT_THROW((void)sample_without_replacement(5, 6, rng), CheckError);
}

TEST(Rng, ChooseRejectsEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW((void)choose(empty, rng), CheckError);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(77);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  shuffle(w, rng);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Stats, SummaryBasics) {
  const auto s = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, SummaryEmptyIsZero) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, SummarySingleton) {
  const auto s = summarize({7.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 10.0);
}

TEST(Stats, SummaryEmptyPinsAllFieldsToZero) {
  // The sweep engine's aggregate columns feed straight from Summary; an
  // all-failure cell must produce all-zero round statistics, not garbage.
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
  EXPECT_DOUBLE_EQ(s.p90, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(Stats, SummarySingletonPinsAllPercentilesToTheValue) {
  const auto s = summarize({7.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.min, 7.5);
  EXPECT_DOUBLE_EQ(s.median, 7.5);
  EXPECT_DOUBLE_EQ(s.p90, 7.5);
  EXPECT_DOUBLE_EQ(s.p95, 7.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, PercentileEndpointsAreExact) {
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 5.0};
  // q = 0 and q = 1 must return the endpoints with no interpolation drift.
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 5.0);
  EXPECT_THROW((void)percentile_sorted(sorted, -0.1), CheckError);
  EXPECT_THROW((void)percentile_sorted(sorted, 1.1), CheckError);
  EXPECT_THROW((void)percentile_sorted({}, 0.5), CheckError);
}

TEST(Stats, TwoElementTailPercentilesInterpolateLinearly) {
  // Pin the linear-interpolation convention on two elements: position
  // q * (n - 1), so p90 = 0.9 of the way from min to max.
  const auto s = summarize({10.0, 20.0});
  EXPECT_DOUBLE_EQ(s.median, 15.0);
  EXPECT_DOUBLE_EQ(s.p90, 19.0);
  EXPECT_DOUBLE_EQ(s.p95, 19.5);
  // Sample (n-1 denominator) standard deviation.
  EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(50.0));
}

TEST(Stats, PowerLawFitRecoversExponent) {
  // y = 3 x^2 exactly.
  std::vector<double> xs, ys;
  for (double x : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    xs.push_back(x);
    ys.push_back(3.0 * x * x);
  }
  const auto fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.exponent, 2.0, 1e-9);
  EXPECT_NEAR(fit.prefactor, 3.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, PowerLawFitRejectsNonPositive) {
  EXPECT_THROW((void)fit_power_law({1.0, 2.0, 4.0}, {0.0, 1.0, 2.0}),
               CheckError);
}

TEST(Stats, PowerLawFitNeedsThreePoints) {
  // Two points always fit exactly (R^2 = 1): no evidence of a growth rate.
  EXPECT_THROW((void)fit_power_law({1.0, 2.0}, {3.0, 12.0}), CheckError);
  EXPECT_NO_THROW((void)fit_power_law({1.0, 2.0, 4.0}, {3.0, 12.0, 48.0}));
}

TEST(Table, MarkdownShape) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const auto md = t.to_markdown();
  EXPECT_NE(md.find("| a "), std::string::npos);
  EXPECT_NE(md.find("| 333 |"), std::string::npos);
  // header + separator + 2 rows
  EXPECT_EQ(std::count(md.begin(), md.end(), '\n'), 4);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, CsvRoundTrip) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Table, RowBuilderFormats) {
  auto row = RowBuilder()
                 .add("s")
                 .add(std::int64_t{-5})
                 .add(std::uint64_t{7})
                 .add(3.14159, 2)
                 .build();
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1], "-5");
  EXPECT_EQ(row[3], "3.14");
}

TEST(Table, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(2.0, 3), "2");
  EXPECT_EQ(format_double(2.5, 3), "2.5");
  EXPECT_EQ(format_double(1.0 / 0.0, 3), "inf");
}

TEST(Cli, ParsesTypedOptions) {
  const char* argv[] = {"prog", "--n=128", "--rate=0.5", "--name=abc",
                        "--fast"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.5);
  EXPECT_EQ(cli.get_string("name", ""), "abc");
  EXPECT_TRUE(cli.get_flag("fast"));
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  cli.reject_unknown();
}

TEST(Cli, RejectsUnknownOption) {
  const char* argv[] = {"prog", "--oops=1"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.reject_unknown(), CheckError);
}

TEST(Cli, UnknownOptionMessageIsPlainAndListsAcceptedOptions) {
  const char* argv[] = {"prog", "--help", "--reps=3"};
  Cli cli(3, argv);
  (void)cli.get_int("reps", 1);
  (void)cli.get_flag("quick");
  try {
    cli.reject_unknown();
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
    EXPECT_EQ(what.find("cli.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown option --help"), std::string::npos) << what;
    EXPECT_NE(what.find("--reps"), std::string::npos) << what;
    EXPECT_NE(what.find("--quick"), std::string::npos) << what;
  }
}

TEST(Cli, UserInputErrorsCarryNoCheckText) {
  const char* positional[] = {"prog", "positional"};
  const char* boolean[] = {"prog", "--fast=maybe"};
  Cli flags(2, boolean);
  for (const auto& attempt : std::vector<std::function<void()>>{
           [&] { (void)Cli(2, positional); },
           [&] { (void)flags.get_flag("fast"); }}) {
    try {
      attempt();
      ADD_FAILURE() << "expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_EQ(std::string(e.what()).find("check failed"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(BenchConfig, DegenerateValuesCarryNoCheckTextAndNameTheFlag) {
  // Only parses: no trial runner is built, so no value here starts a
  // thread.
  const std::vector<std::pair<const char*, const char*>> cases = {
      {"--reps=0", "--reps must be >= 1, got 0"},
      {"--reps=-3", "--reps must be >= 1, got -3"},
      {"--threads=-1", "--threads must be in [0, 4096], got -1"},
      {"--threads=4097", "--threads must be in [0, 4096], got 4097"}};
  for (const auto& [flag, message] : cases) {
    const char* argv[] = {"bench", flag};
    try {
      (void)bench::BenchConfig::from_cli(2, argv);
      ADD_FAILURE() << flag << ": expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_EQ(std::string(e.what()), message) << flag;
    }
  }
  const char* edge[] = {"bench", "--reps=1", "--threads=4096"};
  const auto config = bench::BenchConfig::from_cli(3, edge);
  EXPECT_EQ(config.reps, 1u);
  EXPECT_EQ(config.threads, 4096u);
}

TEST(Cli, BoundedIntegersThrowPlainMessagesNamingTheRange) {
  const char* argv[] = {"prog", "--a=-1", "--b=3", "--c=0", "--d=7"};
  Cli cli(5, argv);
  const std::vector<std::pair<std::function<void()>, std::string>> cases = {
      {[&] { (void)cli.get_int("a", 0, 0, 4096); },
       "--a must be in [0, 4096], got -1"},
      {[&] { (void)cli.get_int("b", 0, 0, 2); },
       "--b must be in [0, 2], got 3"},
      {[&] { (void)cli.get_int("c", 5, 1); }, "--c must be >= 1, got 0"}};
  for (const auto& [call, message] : cases) {
    try {
      call();
      ADD_FAILURE() << message << ": expected CheckError";
    } catch (const CheckError& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
  EXPECT_EQ(cli.get_int("d", 0, 7, 7), 7);  // bounds are inclusive
  EXPECT_EQ(cli.get_int("absent", 3, 0, 4), 3);  // absent: the fallback
}

TEST(JsonWriter, PutsCommasAndColonsInItself) {
  JsonWriter json;
  json.begin_object()
      .key("a").uint64(1)
      .key("empty").begin_object().end_object()
      .key("list").begin_array()
      .uint64(2).begin_object().key("b").boolean(false).end_object()
      .begin_array().end_array().string("s")
      .end_array()
      .key("raw").raw(R"({"x":[1,2]})")
      .key("ok").boolean(true)
      .end_object();
  EXPECT_EQ(json.str(),
            R"({"a":1,"empty":{},"list":[2,{"b":false},[],"s"],)"
            R"("raw":{"x":[1,2]},"ok":true})");
}

TEST(JsonWriter, FormatsNumbersLikeFormatDouble) {
  JsonWriter json;
  json.begin_array()
      .uint64(18446744073709551615ull)
      .uint64(0)
      .number(0.775, 4)
      .number(123.456, 2)
      .number(2.0, 2)
      .number(1.5433333, 4)
      .end_array();
  EXPECT_EQ(json.str(), "[18446744073709551615,0,0.775,123.46,2,1.5433]");
}

TEST(JsonWriter, EscapesEveryStringAndKey) {
  JsonWriter json;
  json.begin_object()
      .key("k\"ey").string("q\"b\\n\nt\t\x01")
      .end_object();
  EXPECT_EQ(json.str(), R"({"k\"ey":"q\"b\\n\nt\t\u0001"})");
}

TEST(JsonWriter, EveryByteRoundTripsThroughTheCursor) {
  std::string all;
  for (int c = 1; c < 256; ++c) all.push_back(static_cast<char>(c));
  JsonWriter json;
  json.begin_object().key(all).string(all).end_object();
  JsonCursor cursor(json.str(), "round trip");
  int fields = 0;
  cursor.object([&](const std::string& field) {
    EXPECT_EQ(field, all);
    EXPECT_EQ(cursor.parse_string(), all);
    ++fields;
  });
  cursor.expect_end();
  EXPECT_EQ(fields, 1);
}

TEST(JsonCursor, ObjectWalksFieldsInOrder) {
  const std::string text = R"( { "a" : 1 , "b":{"c":true}, "d":"x" } )";
  JsonCursor cursor(text, "walk");
  std::vector<std::string> seen;
  cursor.object([&](const std::string& field) {
    seen.push_back(field);
    if (field == "b") {
      cursor.object([&](const std::string& inner) {
        seen.push_back(inner);
        EXPECT_TRUE(cursor.parse_bool());
      });
    } else {
      cursor.skip_value();
    }
  });
  cursor.expect_end();
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b", "c", "d"}));

  const std::string empty = "{}";
  JsonCursor empty_cursor(empty, "walk");
  empty_cursor.object([](const std::string&) { ADD_FAILURE(); });
  empty_cursor.expect_end();
}

TEST(JsonCursor, ObjectRejectsMalformedObjectsNamingTheContext) {
  for (const std::string text :
       {R"({"a":1,})", R"({"a" 1})", R"({a:1})", R"({"a":1)", R"({,})",
        R"([1])", R"({"a":1 "b":2})", ""}) {
    JsonCursor cursor(text, "walk ctx");
    try {
      cursor.object([&](const std::string&) { cursor.skip_value(); });
      ADD_FAILURE() << "accepted " << text;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("walk ctx"), std::string::npos)
          << e.what();
    }
  }
  // A callback that leaves the value unread fails at the next separator
  // instead of looping.
  const std::string text = R"({"a":1})";
  JsonCursor cursor(text, "walk ctx");
  EXPECT_THROW(cursor.object([](const std::string&) {}), CheckError);
}

TEST(BenchEmit, JsonLineIsOneWriterObject) {
  bench::BenchConfig config;
  config.json = true;
  runner::TrialAggregate agg;
  agg.trials = 2;
  agg.successes = 2;
  agg.success_rate = 1;
  ::testing::internal::CaptureStdout();
  bench::emit_aggregate(config, "n=256 \"dense\"", agg);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            R"({"cell":"n=256 \"dense\"","aggregate":)" + agg.to_json() +
                "}\n");
}

TEST(SpecToken, SplitsNameAndSortedParamsUnderEitherSeparator) {
  const DeclaredParams declared = {{"a", 1.0}, {"b", 2.0}};
  std::string resolved;
  const DeclaredFn resolve = [&](const std::string& name)
      -> const DeclaredParams& {
    resolved = name;
    return declared;
  };
  const SpecToken bare = parse_spec_token("thing", " x ", '?', '&', resolve);
  EXPECT_EQ(bare.name, "x");
  EXPECT_EQ(resolved, "x");
  EXPECT_TRUE(bare.params.empty());
  const SpecToken query =
      parse_spec_token("thing", "x ? b = 2.5 & a=1e-1", '?', '&', resolve);
  EXPECT_EQ(query.name, "x");
  EXPECT_EQ(query.params, (std::map<std::string, double>{{"a", 0.1},
                                                         {"b", 2.5}}));
  const SpecToken colon =
      parse_spec_token("thing", "x:b=3:a=4", ':', ':', resolve);
  EXPECT_EQ(colon.params, (std::map<std::string, double>{{"a", 4.0},
                                                         {"b", 3.0}}));
  // The resolver's own error passes through untouched.
  EXPECT_THROW((void)parse_spec_token("thing", "y?a=1", '?', '&',
                                      [](const std::string&)
                                          -> const DeclaredParams& {
                                        throw CheckError("unknown y");
                                      }),
               CheckError);
}

TEST(SpecToken, RejectionsArePlainAndNameTheToken) {
  const DeclaredParams declared = {{"rate", 0.5}, {"skip", 0.0}};
  const DeclaredFn resolve =
      [&](const std::string&) -> const DeclaredParams& { return declared; };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"f?", "empty key=value pair"},
      {"f?rate=1&", "empty key=value pair"},
      {"f?rate=1&&skip=2", "empty key=value pair"},
      {"f?rate", "'rate' is not key=value"},
      {"f?=1", "'=1' is not key=value"},
      {"f?bogus=1", "unknown parameter 'bogus'; declared: rate skip"},
      {"f?rate=1&rate=2", "repeats parameter 'rate'"},
      {"f?rate=", "parameter 'rate' expects a number"},
      {"f?rate=nan", "parameter 'rate' must be a finite number"},
      {"f?rate=1x", "parameter 'rate' expects a number"}};
  for (const auto& [token, expected] : cases) {
    try {
      (void)parse_spec_token("fault clause", token, '?', '&', resolve);
      ADD_FAILURE() << token << " must be rejected";
    } catch (const CheckError& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind("fault clause '" + token + "'", 0), 0u) << what;
      EXPECT_NE(what.find(expected), std::string::npos) << what;
      EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
    }
  }
  const DeclaredParams none;
  try {
    (void)parse_spec_token("program", "w?d=3", '?', '&',
                           [&](const std::string&) -> const DeclaredParams& {
                             return none;
                           });
    ADD_FAILURE() << "an undeclared key must be rejected";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("declared: (none)"),
              std::string::npos)
        << error.what();
  }
}

TEST(SpecToken, SuffixIsSortedAndShortestRoundTrip) {
  EXPECT_EQ(param_suffix({}), "");
  EXPECT_EQ(param_suffix({{"rate", 0.05}, {"downtime", 4.0}}),
            "?downtime=4&rate=0.05");
  EXPECT_EQ(param_suffix({{"x", 0.1234567}}), "?x=0.1234567");
  EXPECT_EQ(param_suffix({{"x", 1e-300}}), "?x=1e-300");
}

TEST(SpecToken, IntegralValueTakesAnyIntegralNumber) {
  EXPECT_EQ(integral_value(3.0, "q"), 3u);
  EXPECT_EQ(integral_value(0.0, "q"), 0u);
  EXPECT_EQ(integral_value(1e18, "q"), 1'000'000'000'000'000'000u);
  for (const double bad : {2.5, -1.0, 1e19, std::nan("")}) {
    try {
      (void)integral_value(bad, "parameter 'q'");
      ADD_FAILURE() << bad << " must be rejected";
    } catch (const CheckError& error) {
      EXPECT_EQ(std::string(error.what())
                    .rfind("parameter 'q' must be a non-negative integer", 0),
                0u)
          << error.what();
    }
  }
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=12x"};
  Cli cli(2, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), CheckError);
}

TEST(Parse, MalformedNumbersCarryNoCheckTextAndNameTheField) {
  // The parsers see only outside input (flags, spec values, wire fields):
  // every rejection names the field and carries no check expression or
  // source location.
  const std::vector<std::function<void()>> attempts = {
      [] { (void)parse_int64("abc", "option --threads"); },
      [] { (void)parse_int64("", "option --threads"); },
      [] { (void)parse_int64("99999999999999999999", "option --threads"); },
      [] { (void)parse_uint64("z", "option --threads"); },
      [] { (void)parse_uint64("-1", "option --threads"); },
      [] { (void)parse_uint64("99999999999999999999", "option --threads"); },
      [] { (void)parse_double("x", "option --threads"); },
      [] { (void)parse_double("", "option --threads"); },
      [] { (void)parse_double("1e999", "option --threads"); },
      [] { (void)parse_finite_double("nan", "option --threads"); },
  };
  for (const auto& attempt : attempts) {
    try {
      attempt();
      ADD_FAILURE() << "expected CheckError";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
      EXPECT_EQ(what.find("parse.cpp"), std::string::npos) << what;
      EXPECT_NE(what.find("option --threads"), std::string::npos) << what;
    }
  }
  try {
    (void)parse_int64("abc", "option --threads");
  } catch (const CheckError& e) {
    EXPECT_EQ(std::string(e.what()),
              "option --threads expects an integer, got 'abc'");
  }
}

TEST(Cli, RejectsNonOptionArgument) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Cli(2, argv), CheckError);
}

TEST(Cli, RejectsEmptyNumericValues) {
  // `--trials=` used to parse as 0 (strtoll leaves `end` at the start of
  // an empty string, and *end == '\0' held). It must fail loudly.
  const char* argv[] = {"prog", "--trials=", "--rate="};
  Cli cli(3, argv);
  EXPECT_THROW((void)cli.get_int("trials", 7), CheckError);
  EXPECT_THROW((void)cli.get_double("rate", 0.5), CheckError);
}

TEST(Cli, RejectsIntegerOverflow) {
  // strtoll clamps to LLONG_MAX/MIN with errno = ERANGE; clamping must not
  // be silent.
  const char* argv[] = {"prog", "--big=99999999999999999999",
                        "--small=-99999999999999999999",
                        "--huge=1e999", "--tiny=1e-310"};
  Cli cli(5, argv);
  EXPECT_THROW((void)cli.get_int("big", 0), CheckError);
  EXPECT_THROW((void)cli.get_int("small", 0), CheckError);
  EXPECT_THROW((void)cli.get_double("huge", 0.0), CheckError);
  // Underflow to a subnormal also sets ERANGE on glibc but the value is
  // representable — it must parse, not throw.
  EXPECT_GT(cli.get_double("tiny", 0.0), 0.0);
}

TEST(Cli, FlagSpellingsAreSymmetric) {
  const char* on_argv[] = {"prog", "--a=1", "--b=true", "--c=yes", "--d=on",
                           "--e"};
  Cli on(6, on_argv);
  for (const char* name : {"a", "b", "c", "d", "e"})
    EXPECT_TRUE(on.get_flag(name)) << name;
  const char* off_argv[] = {"prog", "--a=0", "--b=false", "--c=no",
                            "--d=off"};
  Cli off(5, off_argv);
  for (const char* name : {"a", "b", "c", "d"})
    EXPECT_FALSE(off.get_flag(name)) << name;
  EXPECT_FALSE(off.get_flag("absent"));
}

TEST(Cli, RejectsUnrecognizedBooleanSpellings) {
  // `--flag=no` historically meant *on*; unknown spellings now throw
  // instead of silently flipping the sense.
  const char* argv[] = {"prog", "--a=No", "--b=2", "--c=enabled"};
  Cli cli(4, argv);
  EXPECT_THROW((void)cli.get_flag("a"), CheckError);
  EXPECT_THROW((void)cli.get_flag("b"), CheckError);
  EXPECT_THROW((void)cli.get_flag("c"), CheckError);
}

TEST(Check, MacroThrowsWithMessage) {
  try {
    FNR_CHECK_MSG(false, "ctx " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

TEST(Log, ConcurrentLinesNeverInterleave) {
  // Worker threads log while another thread flips the level: every captured
  // line must be one whole message (the level is atomic, each line one
  // write).
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Debug);
  ::testing::internal::CaptureStderr();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i)
        FNR_WARN("thread " << t << " line " << i << " end");
    });
  threads.emplace_back([] {
    for (int i = 0; i < kLines; ++i)
      set_log_level(i % 2 == 0 ? LogLevel::Info : LogLevel::Debug);
  });
  for (auto& thread : threads) thread.join();
  std::istringstream captured(::testing::internal::GetCapturedStderr());
  set_log_level(saved);
  int lines = 0;
  for (std::string line; std::getline(captured, line); ++lines) {
    ASSERT_EQ(line.rfind("[WARN] thread ", 0), 0u) << line;
    ASSERT_EQ(line.find("[", 1), std::string::npos) << line;
    ASSERT_GE(line.size(), 4u);
    ASSERT_EQ(line.substr(line.size() - 4), " end") << line;
  }
  EXPECT_EQ(lines, kThreads * kLines);
}

}  // namespace
}  // namespace fnr
