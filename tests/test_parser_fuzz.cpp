// Deterministic fuzzing of every JSON reader — checkpoint lines
// (load_checkpoint), trial aggregates (TrialAggregate::from_json), fnrd
// requests (parse_request) and the fnrd responses fnrc reads
// (response_type, response_field) — and of the spec readers: sweep specs
// (parse_spec + expand) and fault plans (FaultPlan::parse). Valid inputs
// are mutated by every truncation, by random byte flips and by insertions
// of random bytes and grammar tokens. A reader fed any of them must either
// parse it or throw a plain CheckError (no "check failed" text) naming its
// context — never crash, hang or throw anything else. Runs in well under a
// second, also under ASan/UBSan.
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "fault/fault.hpp"
#include "runner/trial_runner.hpp"
#include "service/protocol.hpp"
#include "sweep/spec.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fnr {
namespace {

const std::vector<std::string> kJsonTokens = {
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u00", "\\u12",
    "-", "1e999", "true", "null", std::string(1, '\0'), "\n", " ", "0x1"};

/// The pieces of the spec-token grammar and its numbers.
const std::vector<std::string> kSpecTokens = {
    "=", ",", "?", "&", ":", "+", "#", "*", "\n", " ", "-", "nan", "1e999",
    "0.5", "3.0", "none", "deg=", "quorum?q=", "crash?rate=",
    std::string(1, '\0')};

/// Every truncation of each seed input, then `rounds` random mutations.
std::vector<std::string> mutations(
    const std::vector<std::string>& seeds, int rounds, std::uint64_t rng_seed,
    const std::vector<std::string>& tokens = kJsonTokens) {
  Rng rng(rng_seed, 4242);
  std::vector<std::string> out;
  for (const std::string& seed : seeds)
    for (std::size_t len = 0; len < seed.size(); ++len)
      out.push_back(seed.substr(0, len));
  for (int round = 0; round < rounds; ++round) {
    std::string text = seeds[rng.below(seeds.size())];
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = rng.below(text.size() + 1);
      switch (rng.below(3)) {
        case 0:  // flip one byte to a random value
          if (at < text.size()) text[at] = static_cast<char>(rng.below(256));
          break;
        case 1:  // insert a random byte
          text.insert(at, 1, static_cast<char>(rng.below(256)));
          break;
        default:  // insert a grammar token
          text.insert(at, tokens[rng.below(tokens.size())]);
      }
    }
    out.push_back(std::move(text));
  }
  return out;
}

/// Feeds every mutation to `parse`; returns how many it rejected. Each
/// rejection must name `context` and be plain: no check expression or
/// source location.
std::size_t expect_parse_or_plain_rejection(
    const std::vector<std::string>& inputs, const std::string& context,
    const std::function<void(const std::string&)>& parse) {
  std::size_t rejected = 0;
  for (const std::string& input : inputs) {
    try {
      parse(input);
    } catch (const CheckError& error) {
      ++rejected;
      const std::string what = error.what();
      EXPECT_NE(what.find(context), std::string::npos)
          << "rejection without '" << context << "': " << what;
      EXPECT_EQ(what.find("check failed"), std::string::npos)
          << what << "\n" << input;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "not a CheckError: " << error.what() << "\n"
                    << input;
    }
  }
  return rejected;
}

runner::TrialAggregate sample_aggregate(bool faults) {
  runner::TrialAggregate agg;
  agg.trials = 40;
  agg.successes = 31;
  agg.failures = 9;
  agg.success_rate = 0.775;
  agg.rounds.mean = 123.456;
  agg.rounds.max = 388;
  agg.total_marks = 1234;
  agg.mean_moves_a = 99.125;
  if (faults) {
    agg.fault_totals.crashes = 5;
    agg.fault_totals.moves_blocked = 17;
  }
  return agg;
}

TEST(ParserFuzz, TrialAggregates) {
  const std::vector<std::string> seeds = {sample_aggregate(false).to_json(),
                                          sample_aggregate(true).to_json()};
  for (const auto& seed : seeds)
    EXPECT_EQ(runner::TrialAggregate::from_json(seed).to_json(), seed);
  const auto rejected = expect_parse_or_plain_rejection(
      mutations(seeds, 3000, 1), "trial aggregate", [](const std::string& in) {
        (void)runner::TrialAggregate::from_json(in);
      });
  EXPECT_GT(rejected, 0u);
}

TEST(ParserFuzz, CheckpointLines) {
  const auto grid = sweep::expand(sweep::parse_spec(
      "name = fuzz\ntrials = 2\nprograms = whiteboard\n"
      "scenarios = sync-pair\ntopologies = ring\nsizes = 16, 32\n"
      "seeds = 1\n"));
  campaign::CellResult ok;
  ok.cell = grid[0];
  ok.agg_json = sample_aggregate(true).to_json();
  ok.seconds = 0.25;
  campaign::CellResult failed;
  failed.cell = grid[1];
  failed.ok = false;
  failed.error = "bad \"cell\"\\ at\nline\t2";
  const std::vector<std::string> seeds = {campaign::checkpoint_line(ok),
                                          campaign::checkpoint_line(failed)};
  // Each mutated line is followed by an intact one, so a bad line is
  // corruption (it throws) rather than a torn tail (it is dropped).
  const std::string path = testing::TempDir() + "parser_fuzz.jsonl";
  const auto rejected = expect_parse_or_plain_rejection(
      mutations(seeds, 600, 2), "sweep checkpoint",
      [&](const std::string& line) {
        {
          std::ofstream out(path, std::ios::trunc);
          out << line << "\n" << seeds[0] << "\n";
        }
        (void)campaign::load_checkpoint(path);
      });
  std::remove(path.c_str());
  EXPECT_GT(rejected, 0u);
}

TEST(ParserFuzz, DeepNestingIsRejectedNotRecursedIntoAStackOverflow) {
  // A checkpoint's "agg" and a response's skipped fields are walked
  // without a schema; a hostile file must not nest them past the stack.
  const std::string deep =
      std::string(100'000, '[') + std::string(100'000, ']');
  const std::string line = R"({"key":"k","ok":true,"agg":)" + deep + "}";
  const std::string path = testing::TempDir() + "parser_fuzz_deep.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << line << "\n" << line << "\n";
  }
  try {
    (void)campaign::load_checkpoint(path);
    ADD_FAILURE() << "a 100000-deep aggregate was accepted";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("nested deeper"),
              std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
  EXPECT_THROW((void)service::response_field(
                   R"({"type":"cell","x":)" + deep + "}", "type"),
               CheckError);
  // Nesting as deep as a real artifact's still parses.
  EXPECT_EQ(service::response_field(R"({"a":[[{"b":[1]}]],"type":"x"})",
                                    "type"),
            "\"x\"");
}

TEST(ParserFuzz, FnrdRequests) {
  service::Request submit;
  submit.verb = service::Verb::Submit;
  submit.campaign = "smoke-1";
  submit.spec_text = "name = t\ntrials = 2 # \"q\" \\ \x01";
  submit.trials = 8;
  submit.max_cells = 3;
  service::Request status;
  service::Request stream;
  stream.verb = service::Verb::Stream;
  stream.campaign = "smoke-1";
  const std::vector<std::string> seeds = {
      service::serialize_request(submit), service::serialize_request(status),
      service::serialize_request(stream)};
  for (const auto& seed : seeds)
    EXPECT_EQ(service::serialize_request(service::parse_request(seed)), seed);
  const auto rejected = expect_parse_or_plain_rejection(
      mutations(seeds, 3000, 3), "fnrd request", [](const std::string& in) {
        (void)service::parse_request(in);
      });
  EXPECT_GT(rejected, 0u);
}

TEST(ParserFuzz, FnrdResponsesAsFnrcReadsThem) {
  const std::string agg = sample_aggregate(false).to_json();
  const std::vector<std::string> seeds = {
      service::status_response("smoke-1", "running", 2, 7),
      service::cell_response("smoke-1", "k|\"q\"", true, agg, ""),
      service::cell_response("smoke-1", "k", false, "", "no\ngraph"),
      service::report_response("smoke-1", R"({"cells":[{"a":[1,true]}]})"),
      service::error_response("bad \"request\"")};
  for (const auto& seed : seeds)
    EXPECT_EQ(service::response_field(seed, "type"),
              "\"" + service::response_type(seed) + "\"");
  const auto rejected = expect_parse_or_plain_rejection(
      mutations(seeds, 3000, 4), "fnrd response", [](const std::string& in) {
        (void)service::response_type(in);
        for (const char* field : {"state", "report", "agg", "error"}) {
          try {
            (void)service::response_field(in, field);
          } catch (const CheckError& error) {
            // A missing field is an answer, not a malformed frame.
            if (std::string(error.what()).find("has no '") ==
                std::string::npos)
              throw;
          }
        }
      });
  EXPECT_GT(rejected, 0u);
}

TEST(ParserFuzz, SweepSpecs) {
  // Every predefined spec, parsed and expanded (no graph is built). A
  // rejection names the spec line, or the spec itself when no one line is
  // at fault (a missing axis, a size the family cannot host).
  std::vector<std::string> seeds;
  for (const auto& [name, text] : sweep::predefined_specs())
    seeds.push_back(text);
  seeds.push_back(
      "name = axes\ntrials = 1\nprograms = explore-rally, "
      "random-walk?laziness=0.25\nscenarios = swarm-gather\n"
      "topologies = ring, watts-strogatz:k=2:beta=0.5\nsizes = 16\n"
      "seeds = 1, 2\nagents = 3, 4\ngathers = any-pair, quorum?q=3, "
      "fraction?f=0.5\nfaults = none, crash?rate=0.1+churn?skip=2\n");
  for (const auto& seed : seeds)
    EXPECT_FALSE(sweep::expand(sweep::parse_spec(seed)).empty());
  const auto rejected = expect_parse_or_plain_rejection(
      mutations(seeds, 1500, 5, kSpecTokens), "sweep spec ",
      [](const std::string& in) {
        (void)sweep::expand(sweep::parse_spec(in));
      });
  EXPECT_GT(rejected, 0u);
}

TEST(ParserFuzz, FaultPlans) {
  const std::vector<std::string> seeds = {
      "none", "crash?rate=0.05&downtime=4", "wb-drop?rate=0.2&skip=3&count=2",
      "wb-stale?rate=1+wb-wipe?rate=0.25",
      "churn?count=8&rate=0.1&skip=16+crash"};
  const auto rejected = expect_parse_or_plain_rejection(
      mutations(seeds, 3000, 6, kSpecTokens), "fault",
      [](const std::string& in) {
        const auto plan = fault::FaultPlan::parse(in);
        // An accepted plan's canonical key parses back to itself.
        if (plan.active())
          EXPECT_EQ(fault::FaultPlan::parse(plan.key()).key(), plan.key());
      });
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace fnr
