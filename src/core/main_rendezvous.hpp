// Algorithm 1 — Main-Rendezvous (with whiteboards).
//
// Agent a builds the (a, δ/8, 2)-dense set Tᵃ via Construct, then repeatedly
// visits a uniform member of Tᵃ and reads its whiteboard. Agent b repeatedly
// visits a uniform member of N+(v₀ᵇ) and writes v₀ᵇ's ID on its whiteboard.
// Once a reads a mark it walks to v₀ᵇ and camps there; b's next return home
// completes the rendezvous. §4.1's doubling estimation of δ is included:
// with known_delta <= 0, agent a starts from deg(v₀ᵃ)/2 and restarts
// Construct with δ'/2 whenever it sees a vertex of degree < δ'.
#pragma once

#include <memory>
#include <vector>

#include "core/construct.hpp"
#include "core/knowledge.hpp"
#include "core/params.hpp"
#include "sim/scripted_agent.hpp"
#include "util/rng.hpp"

namespace fnr::core {

/// Observability into agent a's run (whiteboard and whiteboard-free
/// variants share this shape).
struct AgentAStats {
  ConstructStats construct;
  std::size_t t_set_size = 0;
  /// The vertices of Tᵃ (kept so tests/benches can verify the
  /// (a, δ/8, 2)-dense condition against the ground-truth graph).
  std::vector<graph::VertexId> t_set_ids;
  double delta_hat_final = 0.0;
  std::uint64_t doubling_restarts = 0;
  std::uint64_t main_probes = 0;   ///< Tᵃ samples during Main-Rendezvous
  bool found_mark = false;         ///< a read one of b's marks
  /// Marks read that do not name a neighbor of home. Impossible in the
  /// paper's two-agent distance-1 instance; in k-agent scenarios a foreign
  /// b's mark is unusable (no known route) and is skipped.
  std::uint64_t foreign_marks = 0;
  std::uint64_t phases_used = 0;   ///< Algorithm 4 only
};

class WhiteboardAgentA final : public sim::ScriptedAgent {
 public:
  /// known_delta > 0: agents know δ (or a constant-factor approximation).
  /// known_delta <= 0: doubling estimation (§4.1).
  WhiteboardAgentA(const Params& params, double known_delta, Rng rng);

  /// The run's counters so far. While Construct is in flight (a trial that
  /// meets inside Construct), `construct` holds the live run's counters
  /// with rounds_used 0 and `delta_hat_final` the current δ estimate; the
  /// rest of the Construct fields fill in when it finishes.
  [[nodiscard]] AgentAStats stats() const;
  [[nodiscard]] std::size_t memory_words() const override;

 protected:
  void on_idle(const sim::View& view) override;

 private:
  enum class Phase { Init, Construct, Main, Sit };

  /// Reads the whiteboard here; on a mark, plans the walk to v₀ᵇ and enters
  /// Sit. Returns true when a mark was found.
  bool check_mark(const sim::View& view);
  void drive_construct(const sim::View& view);

  Params params_;
  double known_delta_;
  Rng rng_;

  Phase phase_ = Phase::Init;
  Knowledge knowledge_;
  std::unique_ptr<ConstructRun> construct_;
  std::vector<graph::VertexId> t_set_;
  double delta_hat_ = 1.0;
  bool restart_pending_ = false;
  AgentAStats stats_;
};

/// Agent b of Algorithm 1: mark random closed neighbors forever.
class WhiteboardAgentB final : public sim::Agent {
 public:
  explicit WhiteboardAgentB(Rng rng) : rng_(rng) {}

  sim::Action step(const sim::View& view) override;

  [[nodiscard]] std::uint64_t marks() const noexcept { return marks_; }
  [[nodiscard]] std::size_t memory_words() const override { return 4; }

 private:
  Rng rng_;
  bool init_ = false;
  graph::VertexId home_ = 0;
  std::size_t home_degree_ = 0;
  std::uint64_t marks_ = 0;
};

}  // namespace fnr::core
