#include "core/rendezvous.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/no_whiteboard.hpp"

namespace fnr::core {

const char* to_string(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::Whiteboard: return "whiteboard";
    case Strategy::WhiteboardDoubling: return "whiteboard+doubling";
    case Strategy::NoWhiteboard: return "no-whiteboard";
  }
  return "?";
}

std::uint64_t auto_round_cap(const graph::Graph& g, Strategy strategy,
                             const Params& params) {
  const std::size_t n = g.num_vertices();
  const double delta = std::max<double>(1.0, g.min_degree());
  switch (strategy) {
    case Strategy::Whiteboard:
    case Strategy::WhiteboardDoubling: {
      // Construct budget (with δ/2 to absorb the doubling estimate) plus a
      // wide multiple of the Theorem 1 probing bound.
      const double probing =
          64.0 * theorem1_bound(n, delta, g.max_degree()) + 1024.0;
      return params.construct_round_budget(n, std::max(1.0, delta / 2.0)) +
             static_cast<std::uint64_t>(probing);
    }
    case Strategy::NoWhiteboard: {
      const auto schedule =
          NoWbSchedule::make(n, g.id_bound(), delta, params);
      return 2 * schedule.total_rounds() + 1024;
    }
  }
  return 1 << 20;
}

std::string RendezvousReport::describe() const {
  std::ostringstream os;
  os << run.describe() << "; |T^a|=" << agent_a.t_set_size
     << ", construct iters=" << agent_a.construct.iterations
     << ", strict runs=" << agent_a.construct.strict_runs
     << ", delta_hat=" << agent_a.delta_hat_final;
  return os.str();
}

RendezvousReport run_rendezvous(const graph::Graph& g,
                                sim::Placement placement,
                                const RendezvousOptions& options) {
  sim::SchedulerScratch scratch;
  return run_rendezvous(g, placement, options, scratch);
}

RendezvousReport run_rendezvous(const graph::Graph& g,
                                sim::Placement placement,
                                const RendezvousOptions& options,
                                sim::SchedulerScratch& scratch) {
  FNR_CHECK_MSG(g.min_degree() >= 1, "graph must have no isolated vertices");
  FNR_CHECK_MSG(g.has_edge(placement.a_start, placement.b_start),
                "neighborhood rendezvous expects adjacent starting vertices");

  Rng seed_rng(options.seed);
  Rng rng_a = seed_rng.split();
  Rng rng_b = seed_rng.split();

  RendezvousReport report;
  report.round_cap = options.max_rounds > 0
                         ? options.max_rounds
                         : auto_round_cap(g, options.strategy, options.params);

  const double delta = static_cast<double>(g.min_degree());
  switch (options.strategy) {
    case Strategy::Whiteboard:
    case Strategy::WhiteboardDoubling: {
      const bool doubling = options.strategy == Strategy::WhiteboardDoubling;
      report.delta_used = doubling ? -1.0 : delta;
      WhiteboardAgentA agent_a(options.params, report.delta_used, rng_a);
      WhiteboardAgentB agent_b(rng_b);
      sim::Scheduler& scheduler =
          scratch.scheduler_for(g, sim::Model::full());
      report.run =
          scheduler.run(agent_a, agent_b, placement, report.round_cap);
      report.agent_a = agent_a.stats();
      report.agent_b_marks = agent_b.marks();
      if (doubling) report.delta_used = report.agent_a.delta_hat_final;
      break;
    }
    case Strategy::NoWhiteboard: {
      FNR_CHECK_MSG(g.tight_ids(),
                    "Theorem 2 requires tight naming (n' = O(n))");
      report.delta_used = delta;
      NoWhiteboardAgentA agent_a(options.params, delta, rng_a);
      NoWhiteboardAgentB agent_b(options.params, delta, rng_b);
      sim::Scheduler& scheduler =
          scratch.scheduler_for(g, sim::Model::no_whiteboards());
      report.run =
          scheduler.run(agent_a, agent_b, placement, report.round_cap);
      report.agent_a = agent_a.stats();
      break;
    }
  }
  return report;
}

runner::TrialAccumulator run_trials(Strategy strategy, const graph::Graph& g,
                                    const RendezvousOptions& options,
                                    std::uint64_t n_trials, unsigned threads) {
  runner::RunnerOptions runner_options;
  runner_options.threads = threads;
  return run_trials(strategy, g, options, n_trials,
                    runner::TrialRunner(runner_options));
}

runner::TrialAccumulator run_trials(Strategy strategy, const graph::Graph& g,
                                    const RendezvousOptions& options,
                                    std::uint64_t n_trials,
                                    const runner::TrialRunner& trial_runner) {
  // One SchedulerScratch per worker: trial 2..N on a worker reuse its warm
  // arena, so the trial loop allocates no scheduler-side heap after warm-up.
  return trial_runner.run_with_scratch<sim::SchedulerScratch>(
      n_trials, options.seed,
      [&](sim::SchedulerScratch& scratch, std::uint64_t trial,
          std::uint64_t seed) {
        Rng placement_rng(seed, /*stream=*/3);
        const auto placement = sim::random_adjacent_placement(g, placement_rng);
        RendezvousOptions trial_options = options;
        trial_options.strategy = strategy;
        trial_options.seed = seed;
        const auto report = run_rendezvous(g, placement, trial_options, scratch);
        return runner::TrialOutcome::from_run(trial, seed, report.run,
                                              report.agent_b_marks);
      });
}

}  // namespace fnr::core
