// paper-theorems: the paper benches' own trial path, as exp01 (Theorem 1,
// whiteboards) and exp05 (Theorem 2, no whiteboards) run it —
// TrialRunner::run_map over bench::run_once (the scratch-free
// core::run_rendezvous on a fresh adjacent placement from Rng(seed, 3) per
// trial), graphs from bench::dense_family, aggregates from bench::collect.
// Those are called from bench/bench_support.hpp itself, so a change to that
// path shows here. Graphs are generated during set-up. No campaign, service
// or fault code runs on this workload.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bench_support.hpp"
#include "core/rendezvous.hpp"
#include "probes.hpp"
#include "runner/trial_runner.hpp"

namespace perfbench {

namespace core = fnr::core;
namespace runner = fnr::runner;

namespace {

/// Trials per (strategy, n) point; sized so one pass lasts a few seconds.
constexpr std::uint64_t kTrials = 48;
constexpr std::uint64_t kSmokeTrials = 4;
/// Trials per point the traced pass re-runs through both core entry points.
constexpr std::uint64_t kCoreProbeTrials = 8;

struct Point {
  core::Strategy strategy;
  std::size_t n;
  double exponent;          ///< δ ≈ n^exponent (out-degree n^exponent / 2)
  std::uint64_t seed;       ///< graph seed and the trials' base seed
  std::shared_ptr<const fnr::graph::Graph> graph;

  [[nodiscard]] std::string label() const {
    return std::string(core::to_string(strategy)) + "|n=" + std::to_string(n);
  }
};

/// The exp01/exp05 points. The workload seed shifts every graph and trial
/// seed by (seed - 1) << 20, so seed 1 reproduces the benches' seeds.
std::vector<Point> make_points(const PassOptions& options) {
  const std::uint64_t shift = (options.seed - 1) << 20;
  std::vector<Point> points;
  const std::vector<std::size_t> t1 =
      options.smoke ? std::vector<std::size_t>{128, 256}
                    : std::vector<std::size_t>{1024, 2048, 4096};
  const std::vector<std::size_t> t2 =
      options.smoke ? std::vector<std::size_t>{128}
                    : std::vector<std::size_t>{1024, 2048};
  for (const auto n : t1)
    points.push_back({core::Strategy::Whiteboard, n, 0.78, shift + 1000 + n, {}});
  for (const auto n : t2)
    points.push_back({core::Strategy::NoWhiteboard, n, 0.8, shift + 700 + n, {}});
  return points;
}

struct RunTotals {
  std::vector<std::string> lines;  ///< "<label> <aggregate JSON>" per point
  std::string report;              ///< the lines joined, one per line
  double run_s = 0;
  double trials = 0;
  double rounds = 0;
};

/// Runs every point in order, as exp01/exp05 do.
RunTotals run_points(const std::vector<Point>& points, std::uint64_t trials,
                     const runner::TrialRunner& trial_runner, Tracer& tracer,
                     PassResult* result) {
  RunTotals totals;
  double report_s = 0;
  const auto start = Clock::now();
  for (const auto& point : points) {
    const auto reports = trial_runner.run_map(
        trials, point.seed, [&](std::uint64_t, std::uint64_t seed) {
          return fnr::bench::run_once(*point.graph, point.strategy, seed);
        });
    const auto agg_start = Clock::now();
    const std::string agg = tracer.time("runner.aggregate_s", [&] {
      return fnr::bench::collect(reports, point.seed).aggregate.to_json();
    });
    report_s += seconds_since(agg_start);
    for (const auto& report : reports)
      totals.rounds += static_cast<double>(report.run.metrics.rounds);
    totals.trials += static_cast<double>(reports.size());
    totals.lines.push_back(point.label() + " " + agg);
    if (totals.lines.size() == 1 && result != nullptr)
      result->e2e["first_frame_s"] = seconds_since(start);
  }
  const auto join_start = Clock::now();
  for (const auto& line : totals.lines) totals.report += line + "\n";
  report_s += seconds_since(join_start);
  totals.run_s = seconds_since(start);
  if (result != nullptr) result->e2e["report_rtt_ms"] = report_s * 1e3;
  return totals;
}

}  // namespace

PassResult run_paper_theorems(const PassOptions& options) {
  PassResult result;
  Tracer tracer(options.traced);
  const std::uint64_t trials = options.smoke ? kSmokeTrials : kTrials;

  // --- set-up: graph generation ---------------------------------------------
  const auto setup_start = Clock::now();
  std::vector<Point> points = make_points(options);
  for (auto& point : points) {
    point.graph = tracer.time("graph.build_s", [&] {
      return std::make_shared<const fnr::graph::Graph>(
          fnr::bench::dense_family(point.n, point.exponent, point.seed));
    });
  }
  result.e2e["setup_s"] = seconds_since(setup_start);

  // --- the measured run ------------------------------------------------------
  const runner::TrialRunner trial_runner;  // default flags: hardware threads
  const RunTotals totals =
      run_points(points, trials, trial_runner, tracer, &result);
  result.e2e["run_s"] = totals.run_s;
  result.e2e["peak_rss_mb"] = peak_rss_mb();
  result.counts["trials"] = totals.trials;
  result.counts["agent_steps"] = 2.0 * totals.rounds;

  // --- output checks --------------------------------------------------------
  result.check(totals.lines.size() == points.size(),
               "expected " + std::to_string(points.size()) + " points, got " +
                   std::to_string(totals.lines.size()));
  for (const auto& line : totals.lines)
    result.check(line.find("\"trials\":" + std::to_string(trials) + ",") !=
                     std::string::npos,
                 "point lost trials: " + line);
  result.digest = digest(totals.report);

  if (options.traced) {
    for (const auto& [name, value] : tracer.values()) result.layers[name] = value;
    for (const auto& point : points) {
      count_graph(*point.graph, result);
      probe_table(*point.graph, result);
    }

    // core: the same trials through the scratch-free per-trial entry and
    // through run_trials' warm per-worker arena, both at one thread.
    runner::RunnerOptions one;
    one.threads = 1;
    const runner::TrialRunner single(one);
    const std::uint64_t probe = std::min(trials, kCoreProbeTrials);
    double cold_s = 0, warm_s = 0, rounds = 0;
    for (const auto& point : points) {
      auto start = Clock::now();
      std::vector<core::RendezvousReport> reports;
      for (std::uint64_t t = 0; t < probe; ++t)
        reports.push_back(fnr::bench::run_once(
            *point.graph, point.strategy, runner::trial_seed(point.seed, t)));
      cold_s += seconds_since(start);
      core::RendezvousOptions ropts;
      ropts.seed = point.seed;
      start = Clock::now();
      const auto acc =
          core::run_trials(point.strategy, *point.graph, ropts, probe, single);
      warm_s += seconds_since(start);
      for (const auto& out : acc.sorted_outcomes())
        rounds += static_cast<double>(out.rounds);
      result.check(acc.aggregate().to_json() ==
                       fnr::bench::collect(reports, point.seed)
                           .aggregate.to_json(),
                   "core::run_trials differs from run_rendezvous at " +
                       point.label());
    }
    result.layers["core.rendezvous_s"] = cold_s;
    result.layers["core.trials_warm_s"] = warm_s;
    result.layers["core.rounds"] = rounds;

    // The same pass at --threads=1, for the speed-up.
    Tracer off(false);
    const RunTotals t1 = run_points(points, trials, single, off, nullptr);
    result.layers["runner.speedup_vs_1t"] = t1.run_s / totals.run_s;
    result.check(t1.report == totals.report,
                 "--threads=1 aggregates differ from the default-flags ones");
  }
  return result;
}

}  // namespace perfbench
