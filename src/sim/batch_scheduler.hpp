// Lock-step batched execution of many independent trials on one graph.
//
// A sweep cell runs hundreds of trials of the same (graph, model, scenario)
// with different seeds. The scalar Scheduler executes them one at a time;
// the BatchScheduler stages a batch of trials and advances them all through
// round 0, round 1, … in lock step, with the per-(trial, agent) state —
// positions, arrival ports, wake clocks — laid out as flat
// structure-of-arrays buffers indexed by trial*k + agent. Like the scalar
// path, Views read the graph's per-slot observation tables directly.
//
// Bit-exactness contract: trials are mutually independent, and within one
// trial the batch round loop performs *exactly* the scalar run_scenario
// sequence (fault-free): gathering predicate at the round boundary, budget
// check, per-agent observation in agent-index order on the agent's local
// clock, whiteboard writes in agent-index order, then simultaneous moves.
// Each trial owns a private whiteboard store, so cross-trial interleaving
// cannot be observed. The scalar Scheduler therefore remains the oracle:
// for every staged trial the batch result must be (and is, enforced by
// tests/test_batch_equivalence.cpp) byte-identical to a scalar run of the
// same agents/placement/cap. Faults are out of scope — faulty cells keep
// the scalar path (the fault sites consume RNG in round order, which a
// batch would re-interleave).
//
// Allocation discipline: like the scalar arena, all buffers grow to the
// high-water mark of (trials, agents) and are reused; after the staging
// prologue of run() the round loop performs zero heap allocations
// (enforced by tests/test_batch_alloc_guard.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "sim/model.hpp"
#include "sim/scheduler.hpp"
#include "sim/view.hpp"
#include "sim/whiteboard.hpp"

namespace fnr::sim {

class BatchScheduler {
 public:
  /// Binds the kernel to `g` (must outlive the BatchScheduler) and
  /// `model`.
  BatchScheduler(const graph::Graph& g, Model model);

  /// Starts staging a new batch (drops any previously staged trials).
  void begin_batch(Gathering gathering);

  /// Stages one trial: `agents` (one per slot, alive until run() returns)
  /// starting from `placement`, capped at `max_rounds`. Every trial of a
  /// batch must have the same agent count. Validation matches
  /// Scheduler::run_scenario.
  void add_trial(const std::vector<Agent*>& agents,
                 const ScenarioPlacement& placement, std::uint64_t max_rounds);

  /// Runs all staged trials to completion in lock step; results are in
  /// staging order and bit-identical to scalar runs of the same trials.
  [[nodiscard]] std::vector<ScenarioRunResult> run();

  [[nodiscard]] const graph::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const Model& model() const noexcept { return model_; }
  [[nodiscard]] std::size_t staged_trials() const noexcept { return trials_; }

 private:
  static constexpr std::uint32_t kNoPort = static_cast<std::uint32_t>(-1);

  const graph::Graph& graph_;
  Model model_;

  Gathering gathering_ = Gathering::AnyPair;
  std::size_t trials_ = 0;  ///< staged trials in the current batch
  std::size_t k_ = 0;       ///< agents per trial (fixed per batch)

  // --- SoA per-(trial, agent) state, indexed trial * k_ + agent ---
  std::vector<Agent*> agents_;
  std::vector<graph::VertexIndex> pos_;
  std::vector<std::uint32_t> arrival_;  ///< arrival port or kNoPort
  std::vector<std::uint64_t> wake_at_;  ///< wake delay = local clock base

  // --- per-trial state ---
  std::vector<std::uint64_t> caps_;
  std::vector<Whiteboards> boards_;  ///< private store per staged trial
  std::vector<std::uint64_t> wb_reads0_;
  std::vector<std::uint64_t> wb_writes0_;
  std::vector<std::uint32_t> live_;  ///< trials still running (compacted)

  // --- per-agent scratch, reused across trials within a round ---
  std::vector<View> views_;
  std::vector<Action> actions_;
};

/// Per-worker batch-kernel cache, mirroring SchedulerScratch: hands out a
/// BatchScheduler bound to `g`'s address under `model`, rebuilding only
/// when either changes (whiteboard pools re-size per trial on a vertex-count
/// change, so a new graph at the same address is served correctly).
class BatchSchedulerScratch {
 public:
  [[nodiscard]] BatchScheduler& kernel_for(const graph::Graph& g, Model model);

 private:
  std::optional<BatchScheduler> kernel_;
};

}  // namespace fnr::sim
