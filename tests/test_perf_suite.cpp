// Perf-suite contract tests: deterministic cell identities, JSON schema
// round-trip, file round-trip, and validation failures. Timing fields are
// machine-dependent and are only checked for well-formedness.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "perf/perf_suite.hpp"
#include "util/check.hpp"

namespace fnr {
namespace {

perf::PerfConfig tiny_config(unsigned threads = 1) {
  perf::PerfConfig config;
  config.quick = true;
  config.trials = 2;  // keep suite runs cheap inside the test binary
  config.threads = threads;
  config.seed = 99;
  return config;
}

TEST(PerfSuite, CellSpecsAreDeterministicAndStrategyMajor) {
  const auto config = tiny_config();
  const auto first = perf::perf_cell_specs(config);
  const auto second = perf::perf_cell_specs(config);
  EXPECT_EQ(first, second);
  ASSERT_FALSE(first.empty());
  // Strategy-major sweep: every topology of one strategy precedes the next
  // strategy (the canonical BENCH_perf.json ordering). Swarm cells follow
  // the strategy sweep; campaign-executor cells trail everything.
  EXPECT_EQ(first.front().strategy, "whiteboard");
  EXPECT_TRUE(first.front().scenario.empty());
  ASSERT_GE(first.size(), 4u);
  const auto& swarm = first[first.size() - 3];
  EXPECT_EQ(swarm.strategy, "explore-rally");
  EXPECT_EQ(swarm.scenario, "swarm-quorum-k16");
  EXPECT_EQ(first[first.size() - 2].scenario, "campaign-mixed-jobs1");
  EXPECT_EQ(first.back().strategy, "campaign");
  EXPECT_EQ(first.back().scenario, "campaign-mixed-jobs4");
  // The two campaign cells run the same pinned grid: identical trial
  // identity, independent of config.trials (which sizes the other cells).
  EXPECT_EQ(first[first.size() - 2].trials, first.back().trials);
  for (const auto& spec : first) {
    EXPECT_GT(spec.n, 0u);
    if (spec.strategy != "campaign") EXPECT_EQ(spec.trials, 2u);
  }
}

TEST(PerfSuite, ReportCellsMatchSpecOrder) {
  const auto config = tiny_config();
  const auto specs = perf::perf_cell_specs(config);
  const auto report = perf::run_perf_suite(config);
  ASSERT_EQ(report.cells.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report.cells[i].strategy, specs[i].strategy);
    EXPECT_EQ(report.cells[i].scenario, specs[i].scenario);
    EXPECT_EQ(report.cells[i].topology, specs[i].topology);
    EXPECT_EQ(report.cells[i].n, specs[i].n);
    EXPECT_EQ(report.cells[i].trials, specs[i].trials);
  }
  // The jobs1 / jobs4 campaign cells executed the same pinned grid, so
  // every workload-identity field agrees — the executor's byte-identity
  // contract, visible in the report itself.
  const auto& jobs1 = report.cells[report.cells.size() - 2];
  const auto& jobs4 = report.cells.back();
  EXPECT_EQ(jobs1.scenario, "campaign-mixed-jobs1");
  EXPECT_EQ(jobs4.scenario, "campaign-mixed-jobs4");
  EXPECT_EQ(jobs1.trials, jobs4.trials);
  EXPECT_EQ(jobs1.total_rounds, jobs4.total_rounds);
  EXPECT_EQ(jobs1.success_rate, jobs4.success_rate);
  EXPECT_GT(jobs1.total_rounds, 0u);
}

TEST(PerfSuite, WorkloadAggregatesAreThreadCountInvariant) {
  // Only timings may differ between pool sizes; the measured workload
  // (rounds executed, successes) inherits the runner's bit-identical
  // aggregation contract.
  const auto serial = perf::run_perf_suite(tiny_config(1));
  const auto parallel = perf::run_perf_suite(tiny_config(3));
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].total_rounds, parallel.cells[i].total_rounds);
    EXPECT_EQ(serial.cells[i].success_rate, parallel.cells[i].success_rate);
  }
}

TEST(PerfSuite, JsonRoundTripsExactly) {
  const auto report = perf::run_perf_suite(tiny_config());
  const std::string json = report.to_json();
  const auto parsed = perf::parse_report(json);
  // Serialize-parse-serialize fixpoint: the emitted text is the schema.
  EXPECT_EQ(parsed.to_json(), json);
  EXPECT_EQ(parsed.schema, perf::schema_tag());
  EXPECT_EQ(parsed.quick, report.quick);
  EXPECT_EQ(parsed.threads, report.threads);
  EXPECT_EQ(parsed.seed, report.seed);
  ASSERT_EQ(parsed.cells.size(), report.cells.size());
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    EXPECT_EQ(parsed.cells[i].strategy, report.cells[i].strategy);
    EXPECT_EQ(parsed.cells[i].scenario, report.cells[i].scenario);
    EXPECT_EQ(parsed.cells[i].total_rounds, report.cells[i].total_rounds);
  }
  // The round-tripped report still satisfies the schema validator.
  EXPECT_NO_THROW(perf::validate_report(parsed));
}

TEST(PerfSuite, FileRoundTrip) {
  const auto report = perf::run_perf_suite(tiny_config());
  const std::string path = ::testing::TempDir() + "fnr_perf_roundtrip.json";
  perf::write_report_file(report, path);
  const auto loaded = perf::read_report_file(path);
  EXPECT_EQ(loaded.to_json(), report.to_json());
  std::remove(path.c_str());
}

TEST(PerfSuite, ParseRejectsWrongSchemaTag) {
  const std::string json =
      "{\"schema\": \"fnr-perf/999\", \"quick\": false, \"threads\": 1, "
      "\"seed\": 1, \"cells\": []}";
  EXPECT_THROW((void)perf::parse_report(json), CheckError);
}

TEST(PerfSuite, ParseRejectsUnknownFieldsAndTrailingContent) {
  EXPECT_THROW((void)perf::parse_report("{\"surprise\": 1}"), CheckError);
  const auto report = perf::run_perf_suite(tiny_config());
  EXPECT_THROW((void)perf::parse_report(report.to_json() + "x"), CheckError);
  EXPECT_THROW((void)perf::parse_report("not json at all"), CheckError);
}

TEST(PerfSuite, LegacyBatchFieldParsesAndIsIgnored) {
  // Reports written while the lock-step batch kernel existed (the
  // committed BENCH_perf.json among them) carry a "batch" key. It still
  // parses, and the report re-serializes without it.
  const auto report = perf::run_perf_suite(tiny_config());
  const std::string json = report.to_json();
  EXPECT_EQ(json.find("\"batch\""), std::string::npos);
  std::string legacy = json;
  const std::string cells = "  \"cells\": [";
  legacy.insert(legacy.find(cells), "  \"batch\": 8,\n");
  ASSERT_NE(legacy, json);
  EXPECT_EQ(perf::parse_report(legacy).to_json(), json);
}

TEST(PerfSuite, BestOfTakesPerCellFastestMeasurement) {
  const auto base = perf::run_perf_suite(tiny_config());

  // Two noisy reps: each is slow on a different cell. The merge keeps the
  // best measurement per cell, so gating best-of-N against the clean
  // report is green even though every individual rep would fail.
  auto noisy_a = base;
  noisy_a.cells[0].rounds_per_sec = base.cells[0].rounds_per_sec * 0.1;
  noisy_a.cells[0].trials_per_sec = base.cells[0].trials_per_sec * 0.1;
  noisy_a.cells[0].seconds = base.cells[0].seconds * 10.0;
  auto noisy_b = base;
  noisy_b.cells[1].rounds_per_sec = base.cells[1].rounds_per_sec * 0.1;
  EXPECT_FALSE(perf::gate_against_baseline(base, noisy_a, 0.30).ok());
  EXPECT_FALSE(perf::gate_against_baseline(base, noisy_b, 0.30).ok());

  const auto merged = perf::best_of({noisy_a, noisy_b});
  EXPECT_TRUE(perf::gate_against_baseline(base, merged, 0.30).ok());
  for (std::size_t i = 0; i < base.cells.size(); ++i) {
    EXPECT_EQ(merged.cells[i].rounds_per_sec, base.cells[i].rounds_per_sec);
    EXPECT_EQ(merged.cells[i].seconds, base.cells[i].seconds);
  }

  // A single-report merge is the identity; identity-field drift between
  // reps and an empty input are contract violations, not data.
  EXPECT_EQ(perf::best_of({base}).to_json(), base.to_json());
  auto drifted = base;
  drifted.cells[0].total_rounds += 1;
  EXPECT_THROW((void)perf::best_of({base, drifted}), CheckError);
  EXPECT_THROW((void)perf::best_of({}), CheckError);
}

TEST(PerfSuite, GateComparesRatesWithTolerance) {
  const auto base = perf::run_perf_suite(tiny_config());

  // Identical report: green.
  EXPECT_TRUE(perf::gate_against_baseline(base, base, 0.30).ok());

  // A >30% rounds/sec drop on any one cell fails and names the cell.
  auto slow = base;
  slow.cells[1].rounds_per_sec = base.cells[1].rounds_per_sec * 0.5;
  const auto verdict = perf::gate_against_baseline(base, slow, 0.30);
  ASSERT_EQ(verdict.failures.size(), 1u);
  EXPECT_NE(verdict.failures[0].find(slow.cells[1].strategy),
            std::string::npos);
  EXPECT_NE(verdict.failures[0].find(slow.cells[1].topology),
            std::string::npos);

  // A drop inside the tolerance passes; a speedup always passes (baseline
  // refreshes after a legitimate win are deliberate, not gate failures).
  auto near = base;
  near.cells[1].rounds_per_sec = base.cells[1].rounds_per_sec * 0.8;
  EXPECT_TRUE(perf::gate_against_baseline(base, near, 0.30).ok());
  auto fast = base;
  for (auto& cell : fast.cells) cell.rounds_per_sec *= 10.0;
  EXPECT_TRUE(perf::gate_against_baseline(base, fast, 0.30).ok());

  // A degenerate baseline rate cannot produce a floor: the cell is skipped.
  auto zero_rate = base;
  zero_rate.cells[0].rounds_per_sec = 0.0;
  auto slower_everywhere = base;
  slower_everywhere.cells[0].rounds_per_sec = 1.0;
  EXPECT_TRUE(
      perf::gate_against_baseline(zero_rate, slower_everywhere, 0.30).ok());

  EXPECT_THROW((void)perf::gate_against_baseline(base, base, 1.0), CheckError);
  EXPECT_THROW((void)perf::gate_against_baseline(base, base, -0.1),
               CheckError);
}

TEST(PerfSuite, GateRejectsIdentityAndWorkloadDrift) {
  const auto base = perf::run_perf_suite(tiny_config());

  // The gate is only meaningful cell-for-cell: shape mismatches fail fast.
  auto truncated = base;
  truncated.cells.pop_back();
  EXPECT_FALSE(perf::gate_against_baseline(base, truncated, 0.30).ok());
  auto quick_mismatch = base;
  quick_mismatch.quick = !base.quick;
  EXPECT_FALSE(perf::gate_against_baseline(base, quick_mismatch, 0.30).ok());

  // Identity drift (renamed cell) and workload drift (different rounds —
  // e.g. an algorithm change smuggled past the throughput comparison)
  // each fail even when the rate itself looks fine.
  auto renamed = base;
  renamed.cells[0].topology = "other-topology";
  EXPECT_FALSE(perf::gate_against_baseline(base, renamed, 0.30).ok());
  auto swarm_renamed = base;
  ASSERT_EQ(swarm_renamed.cells.back().scenario, "campaign-mixed-jobs4");
  swarm_renamed.cells.back().scenario = "other-workload";
  EXPECT_FALSE(perf::gate_against_baseline(base, swarm_renamed, 0.30).ok());
  auto drifted = base;
  drifted.cells[0].total_rounds += 1;
  EXPECT_FALSE(perf::gate_against_baseline(base, drifted, 0.30).ok());
  auto rate_drift = base;
  rate_drift.cells[0].success_rate = base.cells[0].success_rate * 0.5;
  EXPECT_FALSE(perf::gate_against_baseline(base, rate_drift, 0.30).ok());
}

TEST(PerfSuite, ValidateRejectsDegenerateReports) {
  auto report = perf::run_perf_suite(tiny_config());

  auto empty = report;
  empty.cells.clear();
  EXPECT_THROW(perf::validate_report(empty), CheckError);

  auto bad_rate = report;
  bad_rate.cells[0].success_rate = 1.5;
  EXPECT_THROW(perf::validate_report(bad_rate), CheckError);

  auto no_trials = report;
  no_trials.cells[0].trials = 0;
  EXPECT_THROW(perf::validate_report(no_trials), CheckError);

  auto wrong_schema = report;
  wrong_schema.schema = "fnr-perf/0";
  EXPECT_THROW(perf::validate_report(wrong_schema), CheckError);
}

}  // namespace
}  // namespace fnr
