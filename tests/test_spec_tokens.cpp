// One outcome table per spec-token kind: program labels (find_program),
// fault clauses (FaultPlan::parse), gathering predicates (parse_gather) and
// topology families (parse_topology). Each row is an edge input and what it
// must become: its canonical key, or a rejection. The four kinds share one
// grammar, so the rows mirror each other: a bare name, a declared key, an
// unsorted or repeated key, an empty pair, a missing '=', an empty key or
// value, a non-finite or non-integral value, and whitespace around the
// parts. Every accepted key must parse back to itself.
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "scenario/program_registry.hpp"
#include "sim/model.hpp"
#include "sweep/spec.hpp"
#include "util/check.hpp"

namespace fnr {
namespace {

/// An edge input and its outcome: the canonical key, or nullptr when the
/// token must be rejected.
struct Row {
  const char* input;
  const char* key;
};

using Canonical = std::function<std::string(const std::string&)>;

/// The canonical key, or the rejection's message prefixed by "!".
std::string outcome(const Canonical& canonical, const std::string& input) {
  try {
    return canonical(input);
  } catch (const CheckError& error) {
    return std::string("!") + error.what();
  }
}

void expect_table(const char* kind, const std::vector<Row>& rows,
                  const Canonical& canonical) {
  for (const Row& row : rows) {
    const std::string got = outcome(canonical, row.input);
    if (row.key == nullptr) {
      EXPECT_EQ(got.front(), '!')
          << kind << " '" << row.input << "' must be rejected, got '" << got
          << "'";
      continue;
    }
    EXPECT_EQ(got, row.key) << kind << " '" << row.input << "'";
    EXPECT_EQ(outcome(canonical, row.key), row.key)
        << kind << " key '" << row.key << "' must parse back to itself";
  }
}

std::string program_key(const std::string& token) {
  return scenario::find_program(token).label();
}

std::string fault_key(const std::string& token) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(token);
  return plan.active() ? plan.key() : "none";
}

std::string gather_key(const std::string& token) {
  return sim::to_string(sweep::parse_gather(token));
}

std::string topology_key(const std::string& token) {
  return sweep::parse_topology(token).key();
}

const std::vector<Row> kProgramRows = {
    {"whiteboard", "whiteboard"},
    {"random-walk", "random-walk"},
    {"random-walk?laziness=0.25", "random-walk?laziness=0.25"},
    {"random-walk?laziness=2.5e-1", "random-walk?laziness=0.25"},
    {"random-walk?laziness=0.1234567", "random-walk?laziness=0.1234567"},
    {"random-walk?laziness= 0.25", "random-walk?laziness=0.25"},
    {"random-walk?laziness=0.25 ", "random-walk?laziness=0.25"},
    {" random-walk ? laziness = 0.25 ", "random-walk?laziness=0.25"},
    {"random-walk?", nullptr},
    {"random-walk?laziness=0.25&", nullptr},
    {"random-walk?&laziness=0.25", nullptr},
    {"random-walk?laziness", nullptr},
    {"random-walk?=0.25", nullptr},
    {"random-walk?laziness=", nullptr},
    {"random-walk?laziness=0.25?x", nullptr},
    {"random-walk?bogus=1", nullptr},
    {"random-walk?laziness=0.1&laziness=0.2", nullptr},
    {"random-walk?laziness=nan", nullptr},
    {"random-walk?laziness=-inf", nullptr},
    {"random-walk?laziness=1e999", nullptr},
    {"whiteboard?delta=3", nullptr},
    {"?laziness=0.25", nullptr},
    {"", nullptr},
    {"quantum-walk", nullptr},
};

const std::vector<Row> kFaultRows = {
    {"none", "none"},
    {"crash", "crash"},
    {"crash?rate=0.05&downtime=4", "crash?downtime=4&rate=0.05"},
    {"crash?downtime=4.0", "crash?downtime=4"},
    {"churn?skip=16&rate=0.1&count=8", "churn?count=8&rate=0.1&skip=16"},
    {"churn+crash?rate=0.1", "crash?rate=0.1+churn"},
    {"wb-drop?rate=0.1234567", "wb-drop?rate=0.1234567"},
    {"crash?rate= 0.1", "crash?rate=0.1"},
    {"crash?rate=0.1 ", "crash?rate=0.1"},
    {" crash ? rate = 0.1 ", "crash?rate=0.1"},
    {"crash?", nullptr},
    {"crash?rate=0.1&", nullptr},
    {"crash?&rate=0.1", nullptr},
    {"crash?rate", nullptr},
    {"crash?=0.1", nullptr},
    {"crash?rate=", nullptr},
    {"crash?ratee=0.1", nullptr},
    {"crash?rate=0.1&rate=0.2", nullptr},
    {"crash?rate=nan", nullptr},
    {"crash?rate=2", nullptr},
    {"crash?downtime=4.5", nullptr},
    {"crash?skip=-1", nullptr},
    {"crash?downtime=0", nullptr},
    {"wb-drop?downtime=4", nullptr},
    {"?rate=0.1", nullptr},
    {"", nullptr},
    {"meteor", nullptr},
    {"crash+", nullptr},
    {"crash+crash", nullptr},
    {"none+crash", nullptr},
};

const std::vector<Row> kGatherRows = {
    {"any-pair", "any-pair"},
    {"all-meet", "all-meet"},
    {"quorum?q=3", "quorum?q=3"},
    {"quorum?q= 3", "quorum?q=3"},
    {"quorum?q=3.0", "quorum?q=3"},
    {"fraction?f=0.5", "fraction?f=0.5"},
    {"fraction?f=1", "fraction?f=1"},
    {"fraction?f=0.1234567", "fraction?f=0.123457"},
    {" quorum ? q = 3 ", "quorum?q=3"},
    {"quorum?q=3 ", "quorum?q=3"},
    {"quorum", nullptr},
    {"quorum?", nullptr},
    {"quorum?q=3&", nullptr},
    {"quorum?&q=3", nullptr},
    {"quorum?q", nullptr},
    {"quorum?=3", nullptr},
    {"quorum?q=", nullptr},
    {"quorum?f=0.5", nullptr},
    {"quorum?q=3&q=4", nullptr},
    {"quorum?q=2.5", nullptr},
    {"quorum?q=1", nullptr},
    {"quorum?q=-3", nullptr},
    {"quorum?q=99999999999999999999", nullptr},
    {"fraction?f=0", nullptr},
    {"fraction?f=1.5", nullptr},
    {"fraction?f=nan", nullptr},
    {"any-pair?", nullptr},
    {"any-pair?q=3", nullptr},
    {"", nullptr},
    {"ring", nullptr},
};

const std::vector<Row> kTopologyRows = {
    {"ring", "ring"},
    {"torus", "torus"},
    {"near-regular:deg=16", "near-regular:deg=16"},
    {"near-regular : deg = 16", "near-regular:deg=16"},
    {"near-regular:deg=16.0", "near-regular:deg=16"},
    {"watts-strogatz:k=6:beta=0.1", "watts-strogatz:beta=0.1:k=6"},
    {"watts-strogatz:beta=0.1234567", "watts-strogatz:beta=0.123457"},
    {"torus:", nullptr},
    {"near-regular::deg=4", nullptr},
    {"near-regular:deg=4:", nullptr},
    {"torus:side=3", nullptr},
    {"near-regular:deg", nullptr},
    {"near-regular:=4", nullptr},
    {"near-regular:deg=", nullptr},
    {"near-regular:deg=4:deg=5", nullptr},
    {"near-regular:deg=nan", nullptr},
    {"near-regular:deg=4.5", nullptr},
    {"barabasi-albert:m=2.5", nullptr},
    {"watts-strogatz:k=3.5", nullptr},
    {"near-regular?deg=4", nullptr},
    {":deg=4", nullptr},
    {"", nullptr},
    {"klein-bottle", nullptr},
};

TEST(SpecTokens, ProgramLabels) {
  expect_table("program", kProgramRows, program_key);
}

TEST(SpecTokens, FaultClauses) {
  expect_table("fault", kFaultRows, fault_key);
}

TEST(SpecTokens, Gathers) { expect_table("gather", kGatherRows, gather_key); }

TEST(SpecTokens, Topologies) {
  expect_table("topology", kTopologyRows, topology_key);
}

TEST(SpecTokens, RejectionsArePlainAndNameTheToken) {
  const std::vector<std::pair<const std::vector<Row>*, Canonical>> kinds = {
      {&kProgramRows, program_key},
      {&kFaultRows, fault_key},
      {&kGatherRows, gather_key},
      {&kTopologyRows, topology_key}};
  for (const auto& [rows, canonical] : kinds)
    for (const Row& row : *rows) {
      if (row.key != nullptr) continue;
      const std::string got = outcome(canonical, row.input);
      EXPECT_EQ(got.find("check failed"), std::string::npos) << got;
      // A pair-level rejection quotes the whole token.
      const std::string input = row.input;
      const auto sep = input.find_first_of("?:");
      if (sep != std::string::npos && sep > 0 && input.find('+') == input.npos)
        EXPECT_NE(got.find("'" + input + "'"), std::string::npos)
            << row.input << " -> " << got;
    }
}

}  // namespace
}  // namespace fnr
