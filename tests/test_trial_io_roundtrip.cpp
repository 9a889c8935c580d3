// TrialAccumulator emission round-trips and merge robustness, plus the
// byte pins of every JSON artifact.
//
// CSV and JSON rows are consumed by scripts and dashboards; this suite
// parses exactly what we emit and checks every field against the aggregate
// it came from (integers exactly, doubles to the emitted precision). The
// merge fuzz partitions one outcome multiset at random many times and
// checks that any grouping and insertion order produces a bit-identical
// aggregate. The byte pins hold the exact bytes of the aggregate, a
// checkpoint line, a merged report, every fnrd response and a serialized
// request for strings that need no escaping: resumed campaigns, old
// checkpoints and fnrc all depend on those bytes never moving.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "service/protocol.hpp"
#include "util/json.hpp"
#include "test_support.hpp"

namespace fnr::runner {
namespace {

using test::bits_equal;

TrialOutcome synthetic_outcome(std::uint64_t trial, std::uint64_t seed) {
  TrialOutcome out;
  out.trial = trial;
  out.seed = seed;
  out.met = seed % 5 != 0;
  out.meeting_round = out.met ? (seed % 977) + 1 : 0;
  out.rounds = out.met ? out.meeting_round : 4096;
  out.moves_a = seed % 131;
  out.moves_b = seed % 149;
  out.whiteboard_marks = seed % 11;
  out.faults.crashes = seed % 3;
  out.faults.restarts = seed % 3;
  out.faults.writes_dropped = seed % 7;
  out.faults.wipes = seed % 2;
  out.faults.stale_reads = seed % 5;
  out.faults.moves_blocked = seed % 13;
  return out;
}

TrialAggregate sample_aggregate(std::uint64_t base_seed, std::uint64_t n) {
  TrialAccumulator acc;
  for (std::uint64_t t = 0; t < n; ++t)
    acc.add(synthetic_outcome(t, trial_seed(base_seed, t)));
  return acc.aggregate();
}

/// RFC-4180-aware splitter: a field starting with `"` runs to the closing
/// quote (with `""` unescaping to `"`), so quoted labels containing commas
/// come back as one field.
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"' && current.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(current);
  return fields;
}

/// Extracts the number following "key": in a flat JSON fragment.
double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

TEST(TrialIoRoundtrip, CsvRowParsesBackToTheAggregate) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto agg = sample_aggregate(seed, 40 + seed);
    const auto header = split_csv(TrialAggregate::csv_header());
    const auto row = split_csv(agg.to_csv_row("cell_x"));
    ASSERT_EQ(header.size(), row.size());
    ASSERT_EQ(header.front(), "label");
    EXPECT_EQ(row.front(), "cell_x");
    // Parse every numeric field by header name and compare to the source
    // (integers exactly; doubles to the 2/4-decimal emitted precision).
    for (std::size_t i = 1; i < header.size(); ++i) {
      const double value = std::strtod(row[i].c_str(), nullptr);
      const auto& name = header[i];
      if (name == "trials") {
        EXPECT_EQ(value, static_cast<double>(agg.trials));
      } else if (name == "successes") {
        EXPECT_EQ(value, static_cast<double>(agg.successes));
      } else if (name == "failures") {
        EXPECT_EQ(value, static_cast<double>(agg.failures));
      } else if (name == "success_rate") {
        EXPECT_NEAR(value, agg.success_rate, 5e-5);
      } else if (name == "rounds_mean") {
        EXPECT_NEAR(value, agg.rounds.mean, 5e-3);
      } else if (name == "rounds_median") {
        EXPECT_NEAR(value, agg.rounds.median, 5e-3);
      } else if (name == "rounds_p90") {
        EXPECT_NEAR(value, agg.rounds.p90, 5e-3);
      } else if (name == "rounds_p95") {
        EXPECT_NEAR(value, agg.rounds.p95, 5e-3);
      } else if (name == "rounds_min") {
        EXPECT_NEAR(value, agg.rounds.min, 5e-3);
      } else if (name == "rounds_max") {
        EXPECT_NEAR(value, agg.rounds.max, 5e-3);
      } else if (name == "mean_gathered") {
        EXPECT_NEAR(value, agg.mean_gathered, 5e-3);
      } else if (name == "total_marks") {
        EXPECT_EQ(value, static_cast<double>(agg.total_marks));
      } else if (name == "mean_marks") {
        EXPECT_NEAR(value, agg.mean_marks, 5e-3);
      } else if (name == "mean_moves_a") {
        EXPECT_NEAR(value, agg.mean_moves_a, 5e-3);
      } else if (name == "mean_moves_b") {
        EXPECT_NEAR(value, agg.mean_moves_b, 5e-3);
      } else if (name == "fault_crashes") {
        EXPECT_EQ(value, static_cast<double>(agg.fault_totals.crashes));
      } else if (name == "fault_restarts") {
        EXPECT_EQ(value, static_cast<double>(agg.fault_totals.restarts));
      } else if (name == "fault_writes_dropped") {
        EXPECT_EQ(value, static_cast<double>(agg.fault_totals.writes_dropped));
      } else if (name == "fault_wipes") {
        EXPECT_EQ(value, static_cast<double>(agg.fault_totals.wipes));
      } else if (name == "fault_stale_reads") {
        EXPECT_EQ(value, static_cast<double>(agg.fault_totals.stale_reads));
      } else if (name == "fault_moves_blocked") {
        EXPECT_EQ(value, static_cast<double>(agg.fault_totals.moves_blocked));
      } else {
        ADD_FAILURE() << "csv_header grew an untested column: " << name;
      }
    }
  }
}

TEST(TrialIoRoundtrip, HostileLabelsAreQuotedAndRoundTrip) {
  // Cell keys embed program parameter values (`?key=value&...`) and fault
  // suffixes (`|fault=<key>`); commas and quotes in a value used to shift
  // every later column of the row.
  const auto agg = sample_aggregate(5, 48);
  const std::size_t columns = split_csv(TrialAggregate::csv_header()).size();
  const std::vector<std::string> labels = {
      "whiteboard?k=1,j=2",
      "alg?note=\"quoted\"",
      "a,b\"c\",,\"",
      "plain-label",
  };
  for (const auto& label : labels) {
    const auto row = split_csv(agg.to_csv_row(label));
    ASSERT_EQ(row.size(), columns) << "label shifted columns: " << label;
    EXPECT_EQ(row.front(), label);
    // The numeric columns are unaffected by the label.
    EXPECT_EQ(row[1], std::to_string(agg.trials));
    EXPECT_EQ(row[2], std::to_string(agg.successes));
  }
  // Unquoted plain labels stay byte-identical to the pre-quoting format.
  EXPECT_EQ(agg.to_csv_row("cell_x").rfind("cell_x,", 0), 0u);
  // A label with a comma is emitted inside quotes, inner quotes doubled.
  EXPECT_EQ(agg.to_csv_row("a,\"b\"").rfind("\"a,\"\"b\"\"\",", 0), 0u);
}

TEST(TrialIoRoundtrip, JsonParsesBackToTheAggregate) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto agg = sample_aggregate(seed * 31, 25 + seed);
    const auto json = agg.to_json();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(json_number(json, "trials"), static_cast<double>(agg.trials));
    EXPECT_EQ(json_number(json, "successes"),
              static_cast<double>(agg.successes));
    EXPECT_EQ(json_number(json, "failures"),
              static_cast<double>(agg.failures));
    EXPECT_NEAR(json_number(json, "success_rate"), agg.success_rate, 5e-5);
    EXPECT_NEAR(json_number(json, "mean"), agg.rounds.mean, 5e-3);
    EXPECT_NEAR(json_number(json, "median"), agg.rounds.median, 5e-3);
    EXPECT_NEAR(json_number(json, "p90"), agg.rounds.p90, 5e-3);
    EXPECT_NEAR(json_number(json, "p95"), agg.rounds.p95, 5e-3);
    EXPECT_NEAR(json_number(json, "min"), agg.rounds.min, 5e-3);
    EXPECT_NEAR(json_number(json, "max"), agg.rounds.max, 5e-3);
    EXPECT_EQ(json_number(json, "total_marks"),
              static_cast<double>(agg.total_marks));
    EXPECT_NEAR(json_number(json, "mean_gathered"), agg.mean_gathered, 5e-3);
    EXPECT_NEAR(json_number(json, "mean_marks"), agg.mean_marks, 5e-3);
    EXPECT_NEAR(json_number(json, "mean_moves_a"), agg.mean_moves_a, 5e-3);
    EXPECT_NEAR(json_number(json, "mean_moves_b"), agg.mean_moves_b, 5e-3);
    ASSERT_TRUE(agg.fault_totals.any());  // synthetic outcomes carry faults
    EXPECT_NE(json.find("\"faults\""), std::string::npos);
    EXPECT_EQ(json_number(json, "crashes"),
              static_cast<double>(agg.fault_totals.crashes));
    EXPECT_EQ(json_number(json, "restarts"),
              static_cast<double>(agg.fault_totals.restarts));
    EXPECT_EQ(json_number(json, "writes_dropped"),
              static_cast<double>(agg.fault_totals.writes_dropped));
    EXPECT_EQ(json_number(json, "wipes"),
              static_cast<double>(agg.fault_totals.wipes));
    EXPECT_EQ(json_number(json, "stale_reads"),
              static_cast<double>(agg.fault_totals.stale_reads));
    EXPECT_EQ(json_number(json, "moves_blocked"),
              static_cast<double>(agg.fault_totals.moves_blocked));
  }
}

TEST(TrialIoRoundtrip, FaultFreeJsonOmitsTheFaultsBlock) {
  // Scripts diff fault-free aggregates against pre-fault-layer artifacts,
  // so an all-zero counter block must not appear at all.
  TrialAccumulator acc;
  for (std::uint64_t t = 0; t < 16; ++t) {
    TrialOutcome out = synthetic_outcome(t, trial_seed(77, t));
    out.faults = fault::FaultStats{};
    acc.add(out);
  }
  const auto agg = acc.aggregate();
  EXPECT_FALSE(agg.fault_totals.any());
  EXPECT_EQ(agg.to_json().find("\"faults\""), std::string::npos);
  // The CSV row still carries the (zero) columns — fixed-width schema.
  const auto row = split_csv(agg.to_csv_row("cell_y"));
  ASSERT_EQ(row.size(), split_csv(TrialAggregate::csv_header()).size());
  for (std::size_t i = row.size() - 6; i < row.size(); ++i)
    EXPECT_EQ(row[i], "0");
}

TEST(TrialIoRoundtrip, MergeFuzzAcrossRandomPartitions) {
  // One multiset of outcomes; many random partitions, shuffled insertion
  // orders, and fold orders — every grouping must aggregate bit-identically.
  constexpr std::uint64_t kOutcomes = 64;
  std::vector<TrialOutcome> outcomes;
  for (std::uint64_t t = 0; t < kOutcomes; ++t)
    outcomes.push_back(synthetic_outcome(t, trial_seed(1234, t)));
  TrialAccumulator reference;
  for (const auto& out : outcomes) reference.add(out);
  const auto reference_agg = reference.aggregate();

  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed, 99);
    const std::size_t parts = 1 + rng.below(7);
    std::vector<TrialAccumulator> buckets(parts);
    // Assign outcomes to buckets at random, inserting in shuffled order.
    std::vector<std::size_t> order(kOutcomes);
    for (std::size_t i = 0; i < kOutcomes; ++i) order[i] = i;
    shuffle(order, rng);
    for (const auto i : order) buckets[rng.below(parts)].add(outcomes[i]);

    // Fold the buckets together in a random order.
    std::vector<std::size_t> fold(parts);
    for (std::size_t i = 0; i < parts; ++i) fold[i] = i;
    shuffle(fold, rng);
    TrialAccumulator merged = buckets[fold[0]];
    for (std::size_t i = 1; i < parts; ++i) merged.merge(buckets[fold[i]]);

    EXPECT_EQ(merged.count(), kOutcomes);
    EXPECT_TRUE(bits_equal(merged.aggregate(), reference_agg))
        << "partition seed " << seed << " with " << parts << " buckets";

    // And the associativity pattern ((A ∪ B) ∪ rest) vs (A ∪ (B ∪ rest)).
    if (parts >= 3) {
      TrialAccumulator left = buckets[0];
      left.merge(buckets[1]);
      for (std::size_t i = 2; i < parts; ++i) left.merge(buckets[i]);
      TrialAccumulator tail = buckets[1];
      for (std::size_t i = 2; i < parts; ++i) tail.merge(buckets[i]);
      TrialAccumulator right = buckets[0];
      right.merge(tail);
      EXPECT_TRUE(bits_equal(left.aggregate(), right.aggregate()));
      EXPECT_TRUE(bits_equal(left.aggregate(), reference_agg));
    }
  }
}

// --- byte pins ---------------------------------------------------------------

/// A hand-set aggregate: every field distinct, so a swapped or dropped
/// field shows in the pinned bytes.
TrialAggregate pinned_aggregate(bool with_faults) {
  TrialAggregate agg;
  agg.trials = 40;
  agg.successes = 31;
  agg.failures = 9;
  agg.success_rate = 0.775;
  agg.rounds.mean = 123.456;
  agg.rounds.median = 118;
  agg.rounds.p90 = 201.25;
  agg.rounds.p95 = 240.5;
  agg.rounds.min = 7;
  agg.rounds.max = 388;
  agg.mean_gathered = 2;
  agg.total_marks = 1234;
  agg.mean_marks = 30.85;
  agg.mean_moves_a = 99.125;
  agg.mean_moves_b = 0;
  if (with_faults) {
    agg.fault_totals.crashes = 5;
    agg.fault_totals.restarts = 4;
    agg.fault_totals.writes_dropped = 3;
    agg.fault_totals.wipes = 2;
    agg.fault_totals.stale_reads = 1;
    agg.fault_totals.moves_blocked = 17;
  }
  return agg;
}

constexpr const char* kPinnedFaultFreeAggregate = R"({"trials":40,"successes":31,"failures":9,"success_rate":0.775,"rounds":{"mean":123.46,"median":118,"p90":201.25,"p95":240.5,"min":7,"max":388},"mean_gathered":2,"total_marks":1234,"mean_marks":30.85,"mean_moves_a":99.12,"mean_moves_b":0})";
constexpr const char* kPinnedFaultyAggregate = R"({"trials":40,"successes":31,"failures":9,"success_rate":0.775,"rounds":{"mean":123.46,"median":118,"p90":201.25,"p95":240.5,"min":7,"max":388},"mean_gathered":2,"total_marks":1234,"mean_marks":30.85,"mean_moves_a":99.12,"mean_moves_b":0,"faults":{"crashes":5,"restarts":4,"writes_dropped":3,"wipes":2,"stale_reads":1,"moves_blocked":17}})";

TEST(JsonBytePins, AggregateWithAndWithoutFaultsBlock) {
  EXPECT_EQ(pinned_aggregate(false).to_json(), kPinnedFaultFreeAggregate);
  EXPECT_EQ(pinned_aggregate(true).to_json(), kPinnedFaultyAggregate);
}

/// Three cells: the fault-free control, a crash cell (ok, so the report
/// carries its vs_fault_free block) and a churn cell that failed. The
/// gathers and agents axes put the optional "gather" and "k" fields in.
constexpr const char* kPinSpec = R"(
name       = pin-report
trials     = 4
programs   = explore-rally
scenarios  = swarm-gather
topologies = ring
sizes      = 16
seeds      = 3
gathers    = quorum?q=3
agents     = 4
faults     = none, crash?rate=0.05&downtime=4, churn?rate=0.1
)";

std::vector<campaign::CellResult> pinned_cells() {
  const auto grid = sweep::expand(sweep::parse_spec(kPinSpec));
  EXPECT_EQ(grid.size(), 3u);
  std::vector<campaign::CellResult> cells(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) cells[i].cell = grid[i];
  TrialAggregate control = pinned_aggregate(false);
  control.rounds.mean = 80;
  control.success_rate = 1;
  cells[0].agg_json = control.to_json();
  cells[0].seconds = 0.125;
  cells[1].agg_json = pinned_aggregate(true).to_json();
  cells[1].seconds = 1.5;
  cells[2].ok = false;
  cells[2].error = "graph too small for k = 4 at n = 16";
  cells[2].seconds = 0.0625;
  return cells;
}

constexpr const char* kPinnedOkCheckpointLine = R"({"key":"explore-rally|swarm-gather|ring|n=16|seed=3|trials=4|gather=quorum?q=3|k=4|fault=crash?downtime=4&rate=0.05","ok":true,"agg":{"trials":40,"successes":31,"failures":9,"success_rate":0.775,"rounds":{"mean":123.46,"median":118,"p90":201.25,"p95":240.5,"min":7,"max":388},"mean_gathered":2,"total_marks":1234,"mean_marks":30.85,"mean_moves_a":99.12,"mean_moves_b":0,"faults":{"crashes":5,"restarts":4,"writes_dropped":3,"wipes":2,"stale_reads":1,"moves_blocked":17}},"seconds":1.5})";
constexpr const char* kPinnedFailedCheckpointLine = R"({"key":"explore-rally|swarm-gather|ring|n=16|seed=3|trials=4|gather=quorum?q=3|k=4|fault=churn?rate=0.1","ok":false,"error":"graph too small for k = 4 at n = 16","seconds":0.0625})";

TEST(JsonBytePins, OkAndFailedCheckpointLines) {
  const auto cells = pinned_cells();
  EXPECT_EQ(campaign::checkpoint_line(cells[1]), kPinnedOkCheckpointLine);
  EXPECT_EQ(campaign::checkpoint_line(cells[2]),
            kPinnedFailedCheckpointLine);
}

constexpr const char* kPinnedReport = R"({
  "schema": "fnr-sweep/1",
  "spec": "pin-report",
  "cache": {"lookups":3,"graph_keys":1,"hits":2,"misses":1,"evictions":0},
  "cells": [
    {"key":"explore-rally|swarm-gather|ring|n=16|seed=3|trials=4|gather=quorum?q=3|k=4","program":"explore-rally","scenario":"swarm-gather","topology":"ring","n":16,"achieved_n":16,"seed":3,"trials":4,"gather":"quorum?q=3","k":4,"ok":true,"agg":{"trials":40,"successes":31,"failures":9,"success_rate":1,"rounds":{"mean":80,"median":118,"p90":201.25,"p95":240.5,"min":7,"max":388},"mean_gathered":2,"total_marks":1234,"mean_marks":30.85,"mean_moves_a":99.12,"mean_moves_b":0}},
    {"key":"explore-rally|swarm-gather|ring|n=16|seed=3|trials=4|gather=quorum?q=3|k=4|fault=crash?downtime=4&rate=0.05","program":"explore-rally","scenario":"swarm-gather","topology":"ring","n":16,"achieved_n":16,"seed":3,"trials":4,"gather":"quorum?q=3","k":4,"fault":"crash?downtime=4&rate=0.05","ok":true,"agg":{"trials":40,"successes":31,"failures":9,"success_rate":0.775,"rounds":{"mean":123.46,"median":118,"p90":201.25,"p95":240.5,"min":7,"max":388},"mean_gathered":2,"total_marks":1234,"mean_marks":30.85,"mean_moves_a":99.12,"mean_moves_b":0,"faults":{"crashes":5,"restarts":4,"writes_dropped":3,"wipes":2,"stale_reads":1,"moves_blocked":17}},"vs_fault_free":{"rounds_overhead":1.5433,"success_drop":0.225}},
    {"key":"explore-rally|swarm-gather|ring|n=16|seed=3|trials=4|gather=quorum?q=3|k=4|fault=churn?rate=0.1","program":"explore-rally","scenario":"swarm-gather","topology":"ring","n":16,"achieved_n":16,"seed":3,"trials":4,"gather":"quorum?q=3","k":4,"fault":"churn?rate=0.1","ok":false,"error":"graph too small for k = 4 at n = 16"}
  ]
})";

TEST(JsonBytePins, ReportWithAFaultCellsVsFaultFreeBlock) {
  EXPECT_EQ(campaign::to_json(sweep::parse_spec(kPinSpec), pinned_cells()),
            kPinnedReport);
}

TEST(JsonRoundTrip, HostileErrorAndSpecNameSurviveTheReport) {
  // Quotes, backslashes and control characters are escaped, not rewritten:
  // the report parses back to the exact strings.
  const std::string error = "bad \"cell\"\\path\nline two\t\x01end";
  auto spec = sweep::parse_spec(kPinSpec);
  spec.name = "pin \"report\" \\ v2";
  auto cells = pinned_cells();
  cells[2].error = error;
  const std::string report = campaign::to_json(spec, cells);
  JsonCursor cursor(report, "report");
  std::vector<std::string> errors;
  std::string name;
  cursor.object([&](const std::string& field) {
    if (field == "spec") {
      name = cursor.parse_string();
    } else if (field == "cells") {
      cursor.expect('[');
      do {
        cursor.object([&](const std::string& cell_field) {
          if (cell_field == "error")
            errors.push_back(cursor.parse_string());
          else
            cursor.skip_value();
        });
      } while (cursor.consume(','));
      cursor.expect(']');
    } else {
      cursor.skip_value();
    }
  });
  cursor.expect_end();
  EXPECT_EQ(name, spec.name);
  EXPECT_EQ(errors, std::vector<std::string>{error});
}

TEST(JsonBytePins, EveryWireResponse) {
  using namespace service;
  const std::string key = "whiteboard|sync-pair|ring|n=16";
  const std::string agg = pinned_aggregate(false).to_json();
  EXPECT_EQ(error_response("campaign 'x' is not known"),
            R"({"type":"error","message":"campaign 'x' is not known"})");
  EXPECT_EQ(submitted_response("smoke-1", 12),
            R"({"type":"submitted","campaign":"smoke-1","cells":12})");
  EXPECT_EQ(status_response("smoke-1", "running", 5, 12),
            R"({"type":"status","campaign":"smoke-1","state":"running",)"
            R"("done":5,"total":12})");
  EXPECT_EQ(cell_response("smoke-1", key, true, agg, ""),
            R"({"type":"cell","campaign":"smoke-1",)"
            R"("key":"whiteboard|sync-pair|ring|n=16","ok":true,"agg":)" +
                agg + "}");
  EXPECT_EQ(cell_response("smoke-1", key, false, "", "cell failed: no graph"),
            R"({"type":"cell","campaign":"smoke-1",)"
            R"("key":"whiteboard|sync-pair|ring|n=16","ok":false,)"
            R"("error":"cell failed: no graph"})");
  EXPECT_EQ(end_response("smoke-1", "done"),
            R"({"type":"end","campaign":"smoke-1","state":"done"})");
  EXPECT_EQ(report_response("smoke-1", R"({"cells": []})"),
            R"({"type":"report","campaign":"smoke-1","report":{"cells": []}})");
  EXPECT_EQ(cancelled_response("smoke-1"),
            R"({"type":"cancelled","campaign":"smoke-1"})");
  EXPECT_EQ(resumed_response("smoke-1"),
            R"({"type":"resumed","campaign":"smoke-1"})");
}

TEST(JsonBytePins, SerializedRequests) {
  service::Request submit;
  submit.verb = service::Verb::Submit;
  submit.campaign = "smoke-1";
  submit.spec_text = "name = tiny";
  submit.trials = 8;
  submit.max_cells = 3;
  EXPECT_EQ(service::serialize_request(submit),
            R"({"verb":"submit","campaign":"smoke-1","spec":"name = tiny",)"
            R"("trials":8,"max_cells":3})");
  const service::Request status;  // every optional field left out
  EXPECT_EQ(service::serialize_request(status), R"({"verb":"status"})");
}

}  // namespace
}  // namespace fnr::runner
