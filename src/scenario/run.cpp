#include "scenario/run.hpp"

#include <memory>
#include <sstream>
#include <vector>

#include "sim/scheduler.hpp"

namespace fnr::scenario {

std::string ScenarioReport::describe() const {
  std::ostringstream os;
  os << run.describe() << " (cap " << round_cap << ")";
  return os.str();
}

namespace {

/// Builds the k agents for `program` (index 0 = seeker role). Each agent
/// gets its own split stream in index order — the split happens for every
/// slot whether or not the factory consumes it, so deterministic and
/// randomized programs share one seed schedule.
[[nodiscard]] std::vector<std::unique_ptr<sim::Agent>> build_agents(
    const Program& program, std::size_t k, const graph::Graph& g,
    const core::Params& params, Rng& seed_rng) {
  const ProgramDef& def = program.def();
  std::vector<std::unique_ptr<sim::Agent>> agents;
  agents.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    AgentBuild build{g, params, program, i, k, seed_rng.split()};
    const AgentFactory& factory =
        def.symmetric ? def.symmetric : (i == 0 ? def.seeker : def.marker);
    agents.push_back(factory(build));
    FNR_CHECK_MSG(agents.back() != nullptr,
                  "program '" << def.label << "': factory built no agent "
                              << "for slot " << i);
  }
  return agents;
}

}  // namespace

std::uint64_t auto_round_cap(const graph::Graph& g, const Scenario& scenario,
                             const Program& program,
                             const core::Params& params) {
  std::uint64_t cap = program.def().round_cap(g, params);
  // Collecting t >= 3 agents on one vertex is a sequence of pairwise
  // coalescences; scale the pairwise cap by the threshold size. (Under
  // Gathering::All the threshold is k, reproducing the original k-1
  // factor byte-for-byte; any-pair and Quorum(2) stay unscaled.)
  const std::uint64_t threshold =
      scenario.gathering.threshold(scenario.num_agents);
  if (threshold > 2) cap *= (threshold - 1);
  // Sleeping rounds are dead rounds; extend the budget by the bound.
  return cap + scenario.max_delay;
}

ScenarioReport run_scenario(const Scenario& scenario, const Program& program,
                            const graph::Graph& g,
                            const sim::ScenarioPlacement& placement,
                            const ScenarioOptions& options) {
  sim::SchedulerScratch scratch;
  return run_scenario(scenario, program, g, placement, options, scratch);
}

ScenarioReport run_scenario(const Scenario& scenario, const Program& program,
                            const graph::Graph& g,
                            const sim::ScenarioPlacement& placement,
                            const ScenarioOptions& options,
                            sim::SchedulerScratch& scratch) {
  scenario.validate();
  const ProgramDef& def = program.def();
  FNR_CHECK_MSG(placement.num_agents() == scenario.num_agents,
                "placement has " << placement.num_agents()
                                 << " starts for a " << scenario.num_agents
                                 << "-agent scenario");
  FNR_CHECK_MSG(g.min_degree() >= 1, "graph must have no isolated vertices");
  check_runnable(def, g);

  ScenarioReport report;
  report.round_cap =
      options.max_rounds > 0
          ? options.max_rounds
          : auto_round_cap(g, scenario, program, options.params);

  Rng seed_rng(options.seed);
  auto agents = build_agents(program, scenario.num_agents, g, options.params,
                             seed_rng);
  std::vector<sim::Agent*> pointers;
  pointers.reserve(agents.size());
  for (const auto& agent : agents) pointers.push_back(agent.get());

  sim::Scheduler& scheduler = scratch.scheduler_for(g, def.model);
  if (!options.fault.active()) {
    report.run = scheduler.run_scenario(pointers, placement,
                                        scenario.gathering, report.round_cap);
    return report;
  }

  // Faulty run: the session and the reviver stream split off seed_rng only
  // now, after the k agent builds, so the agents' own streams match the
  // fault-free schedule exactly. Crash revivals re-run the slot's factory
  // with fresh splits in revival order (single-threaded inside one run, so
  // the order — and hence the replay — is deterministic). Each slot owns at
  // most one revived instance: the scheduler swaps its pointer to the fresh
  // one and never touches the crashed one again, so a revival frees the
  // slot's previous revival and a crash-heavy run holds at most 2k agents.
  fault::FaultSession session(options.fault, seed_rng.split());
  Rng revive_rng = seed_rng.split();
  std::vector<std::unique_ptr<sim::Agent>> revived(scenario.num_agents);
  session.revive = [&](std::size_t slot) -> sim::Agent* {
    AgentBuild build{g,    options.params,      program,
                     slot, scenario.num_agents, revive_rng.split()};
    const AgentFactory& factory =
        def.symmetric ? def.symmetric : (slot == 0 ? def.seeker : def.marker);
    revived[slot].reset();  // free the crashed instance before building
    revived[slot] = factory(build);
    return revived[slot].get();
  };
  report.run = scheduler.run_scenario(pointers, placement, scenario.gathering,
                                      report.round_cap, &session);
  return report;
}

runner::TrialOutcome to_outcome(std::uint64_t trial, std::uint64_t seed,
                                const sim::ScenarioRunResult& run) {
  runner::TrialOutcome out;
  out.trial = trial;
  out.seed = seed;
  out.met = run.met;
  out.meeting_round = run.meeting_round;
  out.gathered_count = run.gathered_count;
  out.rounds = run.rounds;
  out.moves_a = run.agents.empty() ? 0 : run.agents[0].moves;
  out.moves_b = 0;
  for (std::size_t i = 1; i < run.agents.size(); ++i)
    out.moves_b += run.agents[i].moves;
  out.whiteboard_marks = run.whiteboard_writes;
  out.faults = run.faults;
  return out;
}

runner::TrialAccumulator run_scenario_trials(
    const Scenario& scenario, const Program& program, const graph::Graph& g,
    const ScenarioOptions& options, std::uint64_t n_trials,
    const runner::TrialRunner& trial_runner) {
  return run_scenario_trial_span(scenario, program, g, options, 0, n_trials,
                                 trial_runner);
}

runner::TrialAccumulator run_scenario_trial_span(
    const Scenario& scenario, const Program& program, const graph::Graph& g,
    const ScenarioOptions& options, std::uint64_t first_trial,
    std::uint64_t n_trials, const runner::TrialRunner& trial_runner,
    std::uint64_t batch_size) {
  FNR_CHECK_MSG(batch_size <= 1,
                "batch size " << batch_size
                              << " requested, but the lock-step batch kernel "
                                 "was removed");
  // One SchedulerScratch per worker keeps the trial loop on warm arenas.
  return trial_runner.run_span_with_scratch<sim::SchedulerScratch>(
      first_trial, n_trials, options.seed,
      [&](sim::SchedulerScratch& scratch, std::uint64_t trial,
          std::uint64_t seed) {
        // Stream 11 draws the instance; the agents split their own streams
        // from the bare seed inside run_scenario. Both derive only from the
        // per-trial split seed — bit-identical across thread counts.
        Rng instance_rng(seed, /*stream=*/11);
        const auto placement = draw_instance(scenario, g, instance_rng);
        ScenarioOptions trial_options = options;
        trial_options.seed = seed;
        const auto report =
            run_scenario(scenario, program, g, placement, trial_options,
                         scratch);
        return to_outcome(trial, seed, report.run);
      });
}

}  // namespace fnr::scenario
