// Scenario execution: registry programs lifted to k agents, wired through
// the Scheduler's scenario engine and the parallel TrialRunner.
//
// The paper's asymmetric role split carries over: agent 0 runs the
// program's seeker factory, agents 1..k-1 its marker factory (symmetric
// programs build every agent from one factory). Which programs exist, what
// they need from the world, and how they staff agents lives in the program
// registry (program_registry.hpp); this layer only resolves a Program
// handle against a Scenario and a Graph. Strategies are expected to
// *tolerate* desynchronized peers — a sleeping partner just means probes
// find no marks yet — but their guarantees are only proved for the
// synchronous two-agent instance; measuring how far each degrades under
// delay and crowding is the point of the scenario benches.
#pragma once

#include <cstdint>
#include <string>

#include "core/params.hpp"
#include "core/rendezvous.hpp"
#include "fault/fault.hpp"
#include "runner/trial_runner.hpp"
#include "scenario/program_registry.hpp"
#include "scenario/scenario.hpp"
#include "sim/metrics.hpp"
#include "sim/scheduler.hpp"

namespace fnr::scenario {

struct ScenarioOptions {
  core::Params params = core::Params::practical();
  /// Seed for placement-independent agent randomness (streams are split per
  /// agent in index order).
  std::uint64_t seed = 1;
  /// 0 → auto cap (strategy cap plus the scenario's delay bound).
  std::uint64_t max_rounds = 0;
  /// Fault plan for the run (default: inactive — the reliable substrate).
  /// When active, each run builds a FaultSession from a split of the run
  /// seed, drawn *after* the agent streams, so the fault-free seed schedule
  /// — and therefore every fault-free result — is byte-identical to a
  /// build without the fault layer.
  fault::FaultPlan fault;
};

/// Outcome of one scenario instance plus the cap it ran under.
struct ScenarioReport {
  sim::ScenarioRunResult run;   ///< the scheduler's full result
  std::uint64_t round_cap = 0;  ///< budget the run was given

  /// One-line human-readable outcome summary (for traces and examples).
  [[nodiscard]] std::string describe() const;
};

/// Generous failure cap for `program` under `scenario` on this graph: the
/// program's registered cap, scaled for Gathering::All (a sequence of
/// pairwise coalescences) and extended by the scenario's delay bound.
[[nodiscard]] std::uint64_t auto_round_cap(const graph::Graph& g,
                                           const Scenario& scenario,
                                           const Program& program,
                                           const core::Params& params);

/// Runs one concrete instance (starts + delays drawn elsewhere, e.g. via
/// draw_instance). Throws CheckError when the graph/model cannot satisfy
/// the program's registered requirements (e.g. no-whiteboard without tight
/// naming, anderson-weber off a complete graph). Capability *compatibility*
/// (compatible(program, scenario)) is deliberately not enforced here —
/// mismatched runs measure degradation; grids skip them instead.
[[nodiscard]] ScenarioReport run_scenario(const Scenario& scenario,
                                          const Program& program,
                                          const graph::Graph& g,
                                          const sim::ScenarioPlacement& placement,
                                          const ScenarioOptions& options);

/// Same, executing on the caller's scheduler scratch (one per worker in
/// trial loops, so repeated trials reuse a warm arena). Bit-identical to
/// the scratch-free overload.
[[nodiscard]] ScenarioReport run_scenario(const Scenario& scenario,
                                          const Program& program,
                                          const graph::Graph& g,
                                          const sim::ScenarioPlacement& placement,
                                          const ScenarioOptions& options,
                                          sim::SchedulerScratch& scratch);

/// Lifts a scenario run into the accumulator's outcome shape: moves_a is
/// agent 0's moves, moves_b sums agents 1..k-1, whiteboard_marks is the
/// run's total whiteboard writes (markers are the only writers).
[[nodiscard]] runner::TrialOutcome to_outcome(
    std::uint64_t trial, std::uint64_t seed,
    const sim::ScenarioRunResult& run);

/// Trial entry point: n_trials independent instances of (scenario, program)
/// through the parallel TrialRunner. Trial t draws its placement, delays,
/// and agent randomness from the split seed trial_seed(options.seed, t), so
/// the aggregate is bit-identical no matter how many threads ran them.
[[nodiscard]] runner::TrialAccumulator run_scenario_trials(
    const Scenario& scenario, const Program& program, const graph::Graph& g,
    const ScenarioOptions& options, std::uint64_t n_trials,
    const runner::TrialRunner& trial_runner);

/// Span entry: runs *global* trials [first_trial, first_trial + n_trials)
/// of the cell whose base seed is options.seed. Trial t (global index)
/// draws everything from trial_seed(options.seed, t) — the same seed it
/// gets in a full-range run — so a cell split into contiguous spans and
/// merged through TrialAccumulator::merge aggregates bit-identically to
/// one unsharded run (the campaign executor's monster-cell path). Faulty
/// cells shard safely too: fault draws come from per-trial split streams.
/// run_scenario_trials is the first_trial = 0 case. `batch_size` is kept
/// only for source compatibility with older callers: 0 and 1 mean the one
/// scalar path, and anything larger is a CheckError.
[[nodiscard]] runner::TrialAccumulator run_scenario_trial_span(
    const Scenario& scenario, const Program& program, const graph::Graph& g,
    const ScenarioOptions& options, std::uint64_t first_trial,
    std::uint64_t n_trials, const runner::TrialRunner& trial_runner,
    std::uint64_t batch_size = 0);

}  // namespace fnr::scenario
