// Public entry point: run one neighborhood-rendezvous instance end to end.
//
// Picks the agent pair for the requested strategy, wires up the scheduler
// with the right Model, enforces the strategy's standing assumptions
// (whiteboards, tight naming, known δ), and returns the run result together
// with algorithm-level statistics.
#pragma once

#include <cstdint>
#include <string>

#include "core/main_rendezvous.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"
#include "runner/trial_runner.hpp"
#include "sim/scheduler.hpp"

namespace fnr::core {

enum class Strategy {
  Whiteboard,          ///< Theorem 1 (agents know δ)
  WhiteboardDoubling,  ///< Theorem 1 + §4.1 (δ estimated by doubling)
  NoWhiteboard,        ///< Theorem 2 (tight naming, known δ, no whiteboards)
};

[[nodiscard]] const char* to_string(Strategy strategy) noexcept;

struct RendezvousOptions {
  Strategy strategy = Strategy::Whiteboard;
  Params params = Params::practical();
  /// Seed for both agents' private randomness (streams are split).
  std::uint64_t seed = 1;
  /// 0 → an automatically derived generous cap (see auto_round_cap).
  std::uint64_t max_rounds = 0;
};

struct RendezvousReport {
  sim::RunResult run;
  AgentAStats agent_a;
  std::uint64_t agent_b_marks = 0;  ///< whiteboard strategies only
  double delta_used = 0.0;          ///< δ handed to (or estimated by) agents
  std::uint64_t round_cap = 0;

  [[nodiscard]] std::string describe() const;
};

/// Generous failure cap for the given strategy on this graph.
[[nodiscard]] std::uint64_t auto_round_cap(const graph::Graph& g,
                                           Strategy strategy,
                                           const Params& params);

/// Runs one instance. Placement must be two distinct vertices; the upper
/// bounds assume distance 1 (checked). Throws CheckError when the graph /
/// model cannot satisfy the strategy's assumptions.
[[nodiscard]] RendezvousReport run_rendezvous(const graph::Graph& g,
                                              sim::Placement placement,
                                              const RendezvousOptions& options);

/// Same, executing on the caller's scheduler scratch: trial loops pass one
/// scratch per worker so every trial after the first reuses a warm arena
/// (zero scheduler-side heap allocation; see docs/PERFORMANCE.md). Results
/// are bit-identical to the scratch-free overload.
[[nodiscard]] RendezvousReport run_rendezvous(const graph::Graph& g,
                                              sim::Placement placement,
                                              const RendezvousOptions& options,
                                              sim::SchedulerScratch& scratch);

/// Trial entry point: runs `n_trials` independent instances of `strategy`
/// through the parallel TrialRunner. Each trial t derives its own RNG stream
/// from (options.seed, t) — the seed split makes the aggregate bit-identical
/// no matter how many threads execute them — and draws a fresh uniform
/// adjacent placement from that stream. options.strategy is overridden by
/// the explicit `strategy` argument.
[[nodiscard]] runner::TrialAccumulator run_trials(
    Strategy strategy, const graph::Graph& g,
    const RendezvousOptions& options, std::uint64_t n_trials,
    unsigned threads = 0);

/// Same trials, executed on a caller-provided runner (reuse one pool across
/// cells and keep any reporting about it accurate).
[[nodiscard]] runner::TrialAccumulator run_trials(
    Strategy strategy, const graph::Graph& g,
    const RendezvousOptions& options, std::uint64_t n_trials,
    const runner::TrialRunner& trial_runner);

}  // namespace fnr::core
