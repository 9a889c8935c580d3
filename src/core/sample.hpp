// Algorithm 2 — Sample(Γ, α).
//
// Probabilistically classifies every u ∈ N+(v₀ᵃ) as α-heavy or (4α-)light
// for a target set Γ by visiting ceil(f·|Γ|·ln n/α) vertices of Γ chosen
// uniformly with replacement and counting, for each u, how many visited
// vertices contain u in their closed neighborhood. Vertices whose counter
// reaches the threshold l are output as heavy (Lemma 2 / Corollary 1).
//
// SampleRun is a passive state object: the owning agent asks next_target()
// where to go (and reaches it along a Knowledge route, hop by port) and
// reports the view upon arrival via record_visit(). A target's first visit
// in a trial scans its row once, without branching on membership; later
// visits only count (see record_visit).
#pragma once

#include <optional>
#include <vector>

#include "core/knowledge.hpp"
#include "core/params.hpp"
#include "sim/view.hpp"
#include "util/rng.hpp"

namespace fnr::core {

/// Memoized N+(target) ∩ N+(home) slices, keyed by target ID. The home
/// neighborhood is fixed for an agent's whole lifetime and the graph is
/// immutable, so a target's intersection slice — content and scan order —
/// is identical every time it is scanned, across all SampleRuns of one
/// Construct. The owner (ConstructRun) keeps one memo per trial and lends
/// it to each run, so a strict re-sample of N+(Sᵃ) replays recorded
/// slices (a handful of entries on dense graphs) instead of re-scanning
/// degree-wide neighborhoods. Implementation shorthand for re-reading the
/// neighborhood from the world, like the flat counter table: not charged
/// to memory_words.
struct OverlapMemo {
  static constexpr std::uint32_t kUnscanned = ~std::uint32_t{0};
  std::vector<std::uint32_t> start;  ///< by target ID; kUnscanned = no slice
  std::vector<std::uint32_t> len;    ///< slice length, valid when scanned
  /// Concatenated slices in scan order: pool[0, used) is live, the rest
  /// is room for the next scan (it writes every ID of a row there).
  std::vector<graph::VertexId> pool;
  std::size_t used = 0;
};

class SampleRun {
 public:
  /// `gamma` is sampled by index; the caller guarantees every member is
  /// reachable (gamma ⊆ NS). alpha > 0. `memo` (optional) carries overlap
  /// slices across the runs of one trial; when null the run keeps its own.
  SampleRun(std::vector<graph::VertexId> gamma, double alpha, std::size_t n,
            const Params& params, OverlapMemo* memo = nullptr);

  /// Next vertex to visit, or nullopt once the visit budget is spent.
  [[nodiscard]] std::optional<graph::VertexId> next_target(Rng& rng);

  /// Report arrival at the last requested target: increments C[u] for every
  /// u ∈ N+(target) ∩ N+(home). The per-u bumps are deferred: the first
  /// visit to a target scans its neighborhood once into the memo (every ID
  /// is written, the pool's end advancing by its home-mask byte; a second
  /// pass over the hits marks the newly counted ones in scan order) or
  /// replays the slice a previous run already recorded; repeat visits
  /// (targets are drawn with replacement) just count, and heavy_output()
  /// settles the counters. Observable state (counters, touched order,
  /// memory charge over time) is bit-identical to bumping eagerly on every
  /// visit.
  void record_visit(const sim::View& view, const Knowledge& knowledge);

  /// H' — members of N+(home) whose counter reached the threshold.
  /// Meaningful once next_target() has returned nullopt (the first call
  /// settles the deferred visit counts into the per-u counters).
  [[nodiscard]] std::vector<graph::VertexId> heavy_output(
      const Knowledge& knowledge);

  [[nodiscard]] std::uint64_t visits_planned() const noexcept {
    return visits_total_;
  }
  [[nodiscard]] std::uint64_t visits_done() const noexcept {
    return visits_done_;
  }
  [[nodiscard]] bool exhausted() const noexcept {
    return gamma_.empty() || visits_done_ == visits_total_;
  }

  [[nodiscard]] std::size_t memory_words() const noexcept {
    return gamma_.size() + 2 * touched_.size();
  }

  /// The counted members of N+(home), in the order they were first counted.
  [[nodiscard]] const std::vector<graph::VertexId>& touched() const noexcept {
    return touched_;
  }
  /// C[u] for a counted u; exact once heavy_output() has settled the run.
  [[nodiscard]] std::uint64_t count(graph::VertexId u) const {
    return u < counts_.size() ? counts_[u] : 0;
  }

  /// Takes over a counter buffer released by a finished run (all zeros).
  /// Purely a reuse optimization: behaviour is identical either way.
  void adopt_scratch(std::vector<std::uint64_t>&& scratch) noexcept {
    counts_ = std::move(scratch);
  }

  /// Returns the counter buffer, zeroed, for the next run to adopt.
  [[nodiscard]] std::vector<std::uint64_t> release_scratch() noexcept {
    for (const auto u : touched_) counts_[u] = 0;
    touched_.clear();
    return std::move(counts_);
  }

 private:
  std::vector<graph::VertexId> gamma_;
  std::uint64_t visits_total_ = 0;
  std::uint64_t visits_done_ = 0;
  std::uint64_t threshold_ = 0;
  // Counter table, flat-indexed by vertex ID: record_visit is the hottest
  // loop of the whole simulation (one bump per neighbor per visit), so the
  // per-u counter must be a direct array access, not a hash probe. Only IDs
  // in N+(home) ever get a nonzero counter; touched_ lists them (first-bump
  // order) so heavy_output and the memory charge stay proportional to the
  // counted set, exactly as with the former hash map.
  //
  // During the run a counted ID holds a provisional 1 (the "seen" marker
  // that keeps touched_ growing in eager-bump order); the deferred visit
  // totals are added — and the marker removed — when heavy_output settles.
  std::vector<std::uint64_t> counts_;
  std::vector<graph::VertexId> touched_;
  // Deferred-visit bookkeeping: visit_counts_ (indexed like gamma_) says
  // how often each target was visited; the memo holds each visited
  // target's N+(target) ∩ N+(home) slice. Like the memo, uncharged
  // implementation shorthand for re-reading the neighborhood every visit.
  std::vector<std::uint32_t> visit_counts_;
  OverlapMemo owned_memo_;     // backs memo_ when none was lent
  OverlapMemo* memo_ = nullptr;
  std::size_t last_idx_ = 0;  // gamma index behind the pending visit
  bool settled_ = false;
};

}  // namespace fnr::core
