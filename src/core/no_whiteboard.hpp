// Algorithm 4 — Rendezvous-without-Whiteboards (§4.2, Theorem 2).
//
// Requires tight naming (n' = O(n)) and known δ. Agent a runs Construct,
// then both agents synchronize at round t' (a deterministic bound on
// Construct's running time that both compute from n, δ and the Params).
// Each agent keeps a random subset of candidate vertices:
//   Φᵃ ⊆ Tᵃ,  Φᵇ ⊆ N+(v₀ᵇ),  each kept with probability ~4 ln n/√δ.
// The ID space [0, n') is cut into blocks of width β = ⌈√δ⌉. In phase i,
// agent a sits on each of its Φᵃ vertices with IDs in block i long enough
// for b to complete a full marking pass, while b cycles through its Φᵇ
// vertices in block i. Intersection + sparseness of the Φ sets (proved in
// Theorem 2) guarantee a co-location in the block containing a common
// member.
//
// Implementation notes (documented deviations):
//  * per-block participation is truncated to the sparseness cap c₂·ln n;
//    overflow would break the agreed slot arithmetic (the analysis shows
//    overflow happens with probability O(1/n²));
//  * a's per-vertex sit time is two full b-passes plus slack, making the
//    "b completes a pass inside a's window" argument hold for any phase
//    alignment without the paper's looser constant bookkeeping.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/construct.hpp"
#include "core/knowledge.hpp"
#include "core/main_rendezvous.hpp"  // AgentAStats
#include "core/params.hpp"
#include "sim/scripted_agent.hpp"
#include "util/rng.hpp"

namespace fnr::core {

/// Shared schedule arithmetic — both agents must agree on every number here,
/// computed only from (n, n', δ, params).
struct NoWbSchedule {
  std::uint64_t t_start = 0;      ///< t' — first round of phase 0
  std::uint64_t beta = 1;         ///< block width
  std::uint64_t num_blocks = 1;   ///< ⌈n'/β⌉
  std::uint64_t block_cap = 1;    ///< max kept vertices per block
  std::uint64_t a_wait = 1;       ///< a's sit time per vertex
  std::uint64_t phase_len = 1;    ///< rounds per phase

  [[nodiscard]] static NoWbSchedule make(std::size_t n,
                                         graph::VertexId id_bound,
                                         double delta, const Params& params);
  [[nodiscard]] std::uint64_t phase_end(std::uint64_t block) const noexcept {
    return t_start + (block + 1) * phase_len;
  }
  [[nodiscard]] std::uint64_t total_rounds() const noexcept {
    return t_start + num_blocks * phase_len;
  }
};

/// Φ grouped into the schedule's ID blocks in one flat array: block i is
/// ids[offsets[i], offsets[i + 1]), ascending, at most block_cap long.
struct IdBlocks {
  std::vector<graph::VertexId> ids;   ///< every kept ID, in block order
  std::vector<std::size_t> offsets;   ///< num_blocks + 1 entries

  [[nodiscard]] std::span<const graph::VertexId> block(
      std::uint64_t i) const {
    return {ids.data() + offsets[i], ids.data() + offsets[i + 1]};
  }
};

/// Groups `ids` into the schedule's ID blocks: ascending within a block,
/// truncated to block_cap (sparseness).
[[nodiscard]] IdBlocks build_blocks(std::vector<graph::VertexId> ids,
                                    const NoWbSchedule& schedule);

/// Ablation hook (benches/tests): start the phase schedule immediately from
/// a pre-supplied two-hop map instead of running Construct first. Isolates
/// the phase mechanism whose (n/√δ)·log²n cost Theorem 2 bounds — in full
/// end-to-end runs the agents usually stumble into each other during
/// Construct long before the schedule begins.
struct NoWbOracle {
  /// For each x ∈ N(home): x's row, the IDs of N(x) in port order (row[p]
  /// is the neighbor behind x's port p). It defines T^a, and the routes
  /// take their ports from it, so a row out of port order sends the agent
  /// to the wrong vertex.
  std::vector<std::pair<graph::VertexId, std::vector<graph::VertexId>>>
      two_ball;
  bool enabled = false;

  /// The enabled oracle for an agent a starting on `home`: every home
  /// neighbor's row, read from `g` in port order.
  [[nodiscard]] static NoWbOracle from_graph(const graph::Graph& g,
                                             graph::VertexIndex home);
};

class NoWhiteboardAgentA final : public sim::ScriptedAgent {
 public:
  NoWhiteboardAgentA(const Params& params, double delta, Rng rng,
                     NoWbOracle oracle = {});

  /// The run's counters so far; like WhiteboardAgentA::stats(), a
  /// Construct still in flight reports its live counters. δ is reported
  /// from the start, the oracle ablation included.
  [[nodiscard]] AgentAStats stats() const;
  [[nodiscard]] const NoWbSchedule& schedule() const noexcept {
    return schedule_;
  }
  [[nodiscard]] std::size_t memory_words() const override;

 protected:
  void on_idle(const sim::View& view) override;

 private:
  enum class Phase { Init, Construct, Tour, Exhausted };

  void drive_construct(const sim::View& view);
  void start_tour(const sim::View& view);

  Params params_;
  double delta_;
  Rng rng_;
  NoWbOracle oracle_;

  Phase phase_ = Phase::Init;
  Knowledge knowledge_;
  std::unique_ptr<ConstructRun> construct_;
  NoWbSchedule schedule_;
  IdBlocks blocks_;
  std::uint64_t current_block_ = 0;
  std::size_t current_pos_ = 0;
  AgentAStats stats_;
};

class NoWhiteboardAgentB final : public sim::ScriptedAgent {
 public:
  /// `synchronized_start` true keeps the paper's t' wait; false (the oracle
  /// ablation) starts the phase schedule at round 0.
  NoWhiteboardAgentB(const Params& params, double delta, Rng rng,
                     bool synchronized_start = true);

  [[nodiscard]] std::size_t memory_words() const override;

 protected:
  void on_idle(const sim::View& view) override;

 private:
  Params params_;
  double delta_;
  Rng rng_;
  bool synchronized_start_;

  bool init_ = false;
  graph::VertexId home_ = 0;
  /// By ID: the port from home to that neighbor. Shorthand for re-reading
  /// home's row when leaving it, so not charged to memory_words.
  std::vector<std::uint32_t> home_port_;
  NoWbSchedule schedule_;
  IdBlocks blocks_;
  std::uint64_t current_block_ = 0;
  std::size_t current_pos_ = 0;
};

}  // namespace fnr::core
