// Shared plumbing for the experiment binaries.
//
// Every experiment's trial loop routes through runner::TrialRunner: trials
// run across a thread pool (--threads=N, default: all hardware threads) with
// per-trial split RNG streams, so the tables are bit-identical no matter how
// many threads executed the trials.
#pragma once

#include <cmath>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/rendezvous.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "graph/id_space.hpp"
#include "runner/trial_runner.hpp"
#include "scenario/program_registry.hpp"
#include "sim/scheduler.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fnr::bench {

/// Registry listing flags shared by the scenario-driven benches, declared
/// on `cli` so `--help` lists them. Returns true (after printing) when the
/// command line asked for `--list-programs` or `--list-scenarios`; callers
/// exit before checking the remaining flags.
inline bool handle_registry_listings(Cli& cli) {
  if (cli.get_flag("list-programs")) {
    scenario::print_program_listing(std::cout);
    return true;
  }
  if (cli.get_flag("list-scenarios")) {
    scenario::print_scenario_listing(std::cout);
    return true;
  }
  return false;
}

/// A bench's main() runs through fnr::guarded_main (util/cli.hpp): a
/// CheckError becomes its message on stderr and exit code 1.
using fnr::guarded_main;

/// Standard experiment knobs shared by every binary.
struct BenchConfig {
  std::uint64_t reps = 5;
  bool quick = false;
  bool full = false;
  unsigned threads = 0;  ///< trial-runner pool size; 0 → hardware threads
  bool csv = false;      ///< also emit per-cell aggregate CSV rows
  bool json = false;     ///< also emit per-cell aggregate JSON lines

  [[nodiscard]] static BenchConfig from_cli(int argc, const char* const* argv) {
    Cli cli(argc, argv);
    return from_cli(cli);
  }

  /// Same, on a Cli that may already declare options of its own.
  [[nodiscard]] static BenchConfig from_cli(Cli& cli) {
    BenchConfig config;
    config.reps = static_cast<std::uint64_t>(cli.get_int("reps", 5, 1));
    config.quick = cli.get_flag("quick");
    config.full = cli.get_flag("full");
    config.threads =
        static_cast<unsigned>(cli.get_int("threads", 0, 0, 4096));
    config.csv = cli.get_flag("csv");
    config.json = cli.get_flag("json");
    cli.reject_unknown();
    return config;
  }

  [[nodiscard]] runner::TrialRunner trial_runner() const {
    runner::RunnerOptions options;
    options.threads = threads;
    return runner::TrialRunner(options);
  }

  /// Scales a default sweep according to quick/full.
  [[nodiscard]] std::vector<std::size_t> sizes(
      std::vector<std::size_t> normal) const {
    if (quick && normal.size() > 2) normal.resize(2);
    if (full) normal.push_back(normal.back() * 2);
    return normal;
  }
};

/// δ ≈ n^exponent near-regular graph (the Theorem 1/2 workhorse).
inline graph::Graph dense_family(std::size_t n, double exponent,
                                 std::uint64_t seed) {
  Rng rng(seed, 911);
  const auto out = static_cast<std::size_t>(
      std::max(2.0, std::pow(static_cast<double>(n), exponent) / 2.0));
  return graph::make_near_regular(n, out, rng);
}

/// One strategy run on a random adjacent placement.
inline core::RendezvousReport run_once(const graph::Graph& g,
                                       core::Strategy strategy,
                                       std::uint64_t seed,
                                       core::Params params =
                                           core::Params::practical()) {
  Rng rng(seed, 3);
  const auto placement = sim::random_adjacent_placement(g, rng);
  core::RendezvousOptions options;
  options.strategy = strategy;
  options.params = params;
  options.seed = seed;
  return core::run_rendezvous(g, placement, options);
}

/// Summary of one experimental cell's repeated trials.
struct RepeatedOutcome {
  Summary rounds;  ///< meeting rounds of successful trials
  std::uint64_t failures = 0;
  runner::TrialAggregate aggregate;  ///< full aggregate statistics
};

/// Lifts a per-trial result (RunResult, RendezvousReport, or TrialOutcome)
/// into a TrialOutcome for aggregation.
template <typename R>
[[nodiscard]] runner::TrialOutcome to_outcome(std::uint64_t trial,
                                              std::uint64_t seed,
                                              const R& result) {
  if constexpr (std::is_same_v<R, runner::TrialOutcome>) {
    return result;
  } else if constexpr (std::is_same_v<R, core::RendezvousReport>) {
    return runner::TrialOutcome::from_run(trial, seed, result.run,
                                          result.agent_b_marks);
  } else {
    static_assert(std::is_same_v<R, sim::RunResult>,
                  "repeat()/collect() expect RunResult, RendezvousReport, or "
                  "TrialOutcome");
    return runner::TrialOutcome::from_run(trial, seed, result);
  }
}

/// Aggregates per-trial results already produced by TrialRunner::run_map
/// (trial order; seeds recomputed from base_seed for the record).
template <typename R>
[[nodiscard]] RepeatedOutcome collect(const std::vector<R>& results,
                                      std::uint64_t base_seed) {
  runner::TrialAccumulator acc;
  for (std::size_t trial = 0; trial < results.size(); ++trial) {
    acc.add(to_outcome(trial, runner::trial_seed(base_seed, trial),
                       results[trial]));
  }
  RepeatedOutcome outcome;
  outcome.aggregate = acc.aggregate();
  outcome.rounds = outcome.aggregate.rounds;
  outcome.failures = outcome.aggregate.failures;
  return outcome;
}

/// Runs `reps` independent trials of `run(trial, seed)` through the parallel
/// trial runner and summarizes the meeting rounds of successful runs.
/// `run` may return sim::RunResult, core::RendezvousReport, or
/// runner::TrialOutcome, and MUST NOT touch shared mutable state (trials run
/// concurrently); derive all randomness from the provided split seed.
template <typename RunFn>
RepeatedOutcome repeat(const runner::TrialRunner& trial_runner,
                       std::uint64_t reps, std::uint64_t base_seed,
                       RunFn&& run) {
  const auto acc = trial_runner.run(
      reps, base_seed, [&](std::uint64_t trial, std::uint64_t seed) {
        return to_outcome(trial, seed, run(trial, seed));
      });
  RepeatedOutcome outcome;
  outcome.aggregate = acc.aggregate();
  outcome.rounds = outcome.aggregate.rounds;
  outcome.failures = outcome.aggregate.failures;
  return outcome;
}

inline void print_header(const std::string& title, const std::string& claim) {
  std::cout << "## " << title << "\n\n" << claim << "\n\n";
}

/// One line documenting the trial-runner pool; benches print it so runs
/// record how they were parallelized.
inline void print_runner_info(const runner::TrialRunner& trial_runner) {
  std::cout << "(trial runner: " << trial_runner.threads() << " thread"
            << (trial_runner.threads() == 1 ? "" : "s") << ")\n\n";
}

/// For benches whose cells are not rendezvous trial runs (construct
/// probes, deterministic adversary rows): tell the user instead of silently
/// ignoring the emission flags.
inline void note_no_aggregates(const BenchConfig& config) {
  if (config.csv || config.json) {
    std::cout << "(--csv/--json: this bench has no rendezvous trial "
                 "aggregates; flags ignored)\n\n";
  }
}

/// Emits the per-cell aggregate in the machine-readable formats the config
/// asked for (CSV rows share one header per process).
inline void emit_aggregate(const BenchConfig& config, const std::string& label,
                           const runner::TrialAggregate& aggregate) {
  if (config.csv) {
    static bool header_printed = false;
    if (!header_printed) {
      std::cout << runner::TrialAggregate::csv_header() << "\n";
      header_printed = true;
    }
    std::cout << aggregate.to_csv_row(label) << "\n";
  }
  if (config.json) {
    JsonWriter json;
    json.begin_object()
        .key("cell").string(label)
        .key("aggregate").raw(aggregate.to_json())
        .end_object();
    std::cout << json.str() << "\n";
  }
}

inline void print_fit(const char* label, const std::vector<double>& xs,
                      const std::vector<double>& ys) {
  if (xs.size() < kMinFitPoints) return;
  const auto fit = fit_power_law(xs, ys);
  std::cout << label << ": rounds ~ n^" << format_double(fit.exponent, 2)
            << " (R^2 = " << format_double(fit.r_squared, 3) << ")\n\n";
}

}  // namespace fnr::bench
