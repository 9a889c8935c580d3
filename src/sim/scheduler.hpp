// Synchronous execution of k agents on a graph (paper §2.1-2.2,
// generalized into a scenario engine).
//
// Round structure: at the beginning of each round the gathering predicate is
// evaluated over agent positions (any-pair co-location for the paper's
// two-agent rendezvous, all-meet for multi-agent gathering); if it holds the
// run is complete. Otherwise each awake agent observes its View, returns an
// Action (optional whiteboard write at its current vertex, then stay/move),
// and all actions are applied simultaneously. Note the paper's convention
// means agents that *cross* on an edge do not meet — only co-location at a
// round boundary counts. The paper's model has this one round rule, and
// the Scheduler codes it once: run (two agents), run_scenario (k agents)
// and run_single (one agent, until it halts) all run one private round
// loop, set up only by their arguments.
//
// Delayed start: each agent may carry a wake delay (rounds it sleeps at its
// start vertex before its program runs). A sleeping agent is physically
// present — co-location with it counts toward the gathering predicate — but
// it neither observes nor acts, and its View's round counter is local (it
// reads 0 on the agent's first awake round), so programs that schedule
// against view.round() run unmodified on their own clock. A k=2, zero-delay,
// fault-free scenario is exactly the paper's synchronous two-agent model:
// run is the round loop's k=2 projection.
//
// Determinism and tie-breaking: within one round every per-agent stage —
// observation/step, whiteboard writes, movement — walks agents in index
// order, so simultaneous actions resolve deterministically (e.g. two
// co-located writers: the highest-indexed write wins). Wake delays shift
// when an agent's program starts but not this order; in particular, k
// agents sharing one identical wake delay d behave exactly like the
// zero-delay run prefixed by d inert rounds (tests pin this).
//
// Performance: a Scheduler is a reusable arena. All per-run scratch —
// positions, arrival ports (a flat uint32 array with a no-port sentinel),
// staged actions, per-agent Views, the per-vertex occupancy counts, the
// whiteboard store — lives in the Scheduler and is reset (not reallocated) at
// the start of each run, so repeated trials on one Scheduler perform zero heap
// allocation after the first (warm-up) run. The arena holds no per-graph
// tables: Views observe neighbor IDs through spans into the graph's per-slot
// arrays, and moves resolve arrival ports with one load from
// Graph::reverse_ports — both built once per graph in GraphBuilder::build and
// shared read-only by every Scheduler on that graph. The run result is reused
// too: Scheduler::run projects it onto a RunResult without touching the heap,
// and run_scenario's returned copy is its one allocation per run.
// tests/test_alloc_guard.cpp enforces these invariants; docs/PERFORMANCE.md
// and docs/ARCHITECTURE.md document them. The Scheduler is the only round
// loop for scenario trials: independent trials run one after another on a
// warm arena, never in lock step.
//
// Meeting detection: every gathering predicate is a per-vertex co-location
// threshold (Gathering::threshold), evaluated one of two ways chosen from
// the agent count alone. Up to 8 agents the pairwise oracle scans positions
// in O(k^2) per round; above 8 the occupancy path maintains per-vertex
// agent counts plus a count of vertices at/above the threshold
// incrementally, so a round boundary costs O(1) and each move O(1) — the
// massive-k path. Both report byte-identical results (meeting round/vertex/
// pair and all metrics): with set_occupancy_self_check on, every run keeps
// the counts at any k and checks them against the oracle each round
// (tests/test_swarm_differential, tests/test_swarm_fuzzer).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/model.hpp"
#include "sim/view.hpp"
#include "sim/whiteboard.hpp"
#include "util/rng.hpp"

namespace fnr::sim {

/// Initial placement of the two agents.
struct Placement {
  graph::VertexIndex a_start = graph::kNoVertex;
  graph::VertexIndex b_start = graph::kNoVertex;
};

/// Uniformly random adjacent pair (the neighborhood-rendezvous instance
/// class I_1): picks a uniform edge, then orients it uniformly.
[[nodiscard]] Placement random_adjacent_placement(const graph::Graph& g,
                                                  Rng& rng);

/// Initial placement of a k-agent scenario: k pairwise-distinct start
/// vertices plus per-agent wake delays (empty = everyone wakes at round 0).
/// Delays are normalized by convention: time starts when the first agent
/// wakes, so at least one delay should be 0 (not enforced — an all-delayed
/// placement just prepends dead rounds).
struct ScenarioPlacement {
  std::vector<graph::VertexIndex> starts;
  std::vector<std::uint64_t> wake_delays;  ///< size starts.size() or empty

  /// Number of agents this placement positions.
  [[nodiscard]] std::size_t num_agents() const noexcept {
    return starts.size();
  }
  /// Wake delay of `agent` (0 when wake_delays is empty).
  [[nodiscard]] std::uint64_t delay_of(std::size_t agent) const noexcept {
    return agent < wake_delays.size() ? wake_delays[agent] : 0;
  }
};

class Scheduler {
 public:
  /// Binds the arena to `g` (must outlive the Scheduler) and `model`.
  Scheduler(const graph::Graph& g, Model model);

  /// Runs agents from `placement` for at most `max_rounds` rounds.
  /// Agents must be freshly constructed (they carry run state).
  /// Exactly the k=2, zero-delay, any-pair, fault-free projection of
  /// run_scenario; a warm arena allocates nothing.
  [[nodiscard]] RunResult run(Agent& agent_a, Agent& agent_b,
                              Placement placement, std::uint64_t max_rounds);

  /// Runs a k-agent scenario: agents[i] starts (asleep for
  /// placement.delay_of(i) rounds) on placement.starts[i]; the run ends when
  /// `gathering` holds at a round boundary or after `max_rounds` rounds.
  /// Agent 0 is named a, agents 1..k-1 are named b (the paper's asymmetric
  /// role split). Agents must be freshly constructed. `faults` (null = the
  /// reliable model) injects faults into this run only; it is read only
  /// during the call.
  [[nodiscard]] ScenarioRunResult run_scenario(
      const std::vector<Agent*>& agents, const ScenarioPlacement& placement,
      Gathering gathering, std::uint64_t max_rounds,
      fault::FaultSession* faults = nullptr);

  /// Runs a single agent (as agent a) until it reports halted() or the cap:
  /// the round loop's k=1 case, fault-free. Used for exploration
  /// measurements and for exercising sub-protocols (e.g. Construct) without
  /// a partner ending the run early. meeting_vertex is the agent's final
  /// position (there is no partner to meet); agent b's counters read 0.
  [[nodiscard]] RunResult run_single(Agent& agent, graph::VertexIndex start,
                                     std::uint64_t max_rounds);

  /// The graph this arena is bound to.
  [[nodiscard]] const graph::Graph& graph() const noexcept { return graph_; }
  /// The computational model runs execute under.
  [[nodiscard]] const Model& model() const noexcept { return model_; }

  /// Differential test hook: when enabled, every later run keeps occupancy
  /// counts at any k and, at each round boundary, recounts them from the
  /// positions and runs the pairwise oracle, throwing CheckError on any
  /// difference (count total, threshold counter, met, meeting pair). The
  /// reported answer is the same either way. O(n + k^2) per round — never
  /// enable outside tests.
  void set_occupancy_self_check(bool enabled) noexcept {
    self_check_ = enabled;
  }

 private:
  /// Sentinel in arrival_port_: no arrival port (start vertex, stay, or
  /// blocked move).
  static constexpr std::uint32_t kNoArrival = 0xFFFFFFFFu;

  /// Runs of more agents than this count occupancy instead of scanning pairs.
  static constexpr std::size_t kOccupancyAutoCutover = 8;

  /// The one round loop, behind run, run_scenario and run_single:
  /// agents[i] starts on starts[i], asleep for wake_delays[i] rounds
  /// (empty = none), until `gathering` holds at a round boundary, after
  /// `max_rounds` rounds, or — with `until_halted`, which only run_single
  /// sets — once agents[0] reports halted(). Injects faults from `faults`
  /// (null = the reliable model). Returns result_, valid until the next run.
  [[nodiscard]] const ScenarioRunResult& run_rounds(
      std::span<Agent* const> agents,
      std::span<const graph::VertexIndex> starts,
      std::span<const std::uint64_t> wake_delays, Gathering gathering,
      std::uint64_t max_rounds, fault::FaultSession* faults,
      bool until_halted);

  /// Grows the per-agent arena to `k` slots and resets the per-run state,
  /// whiteboards included (positions untouched — callers seed them).
  /// Allocates only when `k` exceeds every previous run's agent count or
  /// the graph's vertex count changed.
  void ensure_arena(std::size_t k);

  /// Points views_[agent] at (here, local_round, arrival) for this round.
  /// The view's graph/model bindings persist.
  void aim_view(std::size_t agent, AgentName name, std::uint64_t local_round,
                graph::VertexIndex here, std::uint32_t arrival);

  /// Whether a run with `k` agents uses occupancy counting.
  [[nodiscard]] bool use_occupancy(std::size_t k) const noexcept {
    return self_check_ || k > kOccupancyAutoCutover;
  }

  /// The occupancy path's meeting check, filling the oracle's pair on success.
  [[nodiscard]] bool occupancy_gathered(std::size_t k, std::uint64_t threshold,
                                        std::size_t& pair_a,
                                        std::size_t& pair_b) const;

  /// The self-check: CheckError unless recounts of occ_ / at_threshold_ and
  /// the pairwise oracle agree with this round's occupancy answer.
  void verify_occupancy(std::size_t k, std::uint64_t threshold, bool met,
                        std::size_t pair_a, std::size_t pair_b) const;

  const graph::Graph& graph_;
  Model model_;
  Whiteboards boards_;  // re-sized by ensure_arena if graph_'s n changes
  bool self_check_ = false;

  // --- per-run arena (reused across runs; zero-allocation after warm-up) ---
  std::vector<graph::VertexIndex> pos_;
  std::vector<graph::VertexIndex> sorted_starts_;  // distinctness check
  ScenarioRunResult result_;  // every field reset at the start of a run
  std::vector<std::uint32_t> arrival_port_;  // kNoArrival = none
  std::vector<Action> actions_;
  std::vector<View> views_;  // one per agent slot
  // Fault bookkeeping, sized with the arena so faulty runs stay
  // allocation-free too: the live instance per slot (crash revival swaps
  // pointers), the round each slot acts again (wake delay, then crash
  // downtime), the local-clock base, and the pending-revival flags.
  std::vector<Agent*> run_agents_;
  std::vector<std::uint64_t> wake_at_;
  std::vector<std::uint64_t> local_base_;
  std::vector<char> needs_revive_;
  // Occupancy-detection state: occ_[v] = agents standing on v (zero
  // between runs — a clean exit unseeds its k increments, so the array
  // never needs an O(n) clear on the hot path; occ_dirty_ flags a run that
  // threw mid-flight and forces the fill on the next occupancy run), and
  // at_threshold_ = vertices currently holding >= threshold agents
  // (gathered <=> at_threshold_ > 0).
  std::vector<std::uint32_t> occ_;
  std::uint64_t at_threshold_ = 0;
  bool occ_dirty_ = false;
};

/// Per-worker scheduler cache: hands out a Scheduler arena for a
/// (graph, model) pair. Trial loops (core::run_trials,
/// scenario::run_scenario_trials) keep one SchedulerScratch per worker
/// thread, so after the first trial every subsequent trial on that worker
/// reuses a warm arena and the trial loop stays allocation-free.
class SchedulerScratch {
 public:
  /// A Scheduler bound to `g`'s address under `model`, rebuilt when either
  /// changes. The arena caches nothing derived from the graph beyond its
  /// vertex count, which every run re-checks, so a different graph later
  /// built at the same address is served correctly too.
  [[nodiscard]] Scheduler& scheduler_for(const graph::Graph& g, Model model);

 private:
  std::optional<Scheduler> scheduler_;
};

}  // namespace fnr::sim
