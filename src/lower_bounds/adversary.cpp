#include "lower_bounds/adversary.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "util/check.hpp"

namespace fnr::lower_bounds {

namespace {

/// The adversary's mutable world: adjacency over vertex IDs, kept sorted so
/// deterministic agents see a canonical neighbor order.
class LazyWorld {
 public:
  explicit LazyWorld(const std::vector<graph::VertexId>& ids) {
    for (const auto id : ids) adjacency_[id];  // materialize all vertices
  }

  void add_edge(graph::VertexId u, graph::VertexId v) {
    if (u == v) return;
    adjacency_[u].insert(v);
    adjacency_[v].insert(u);
  }

  [[nodiscard]] bool has_edge(graph::VertexId u, graph::VertexId v) const {
    const auto it = adjacency_.find(u);
    return it != adjacency_.end() && it->second.contains(v);
  }

  [[nodiscard]] std::vector<graph::VertexId> neighbors(
      graph::VertexId v) const {
    const auto it = adjacency_.find(v);
    FNR_CHECK(it != adjacency_.end());
    return {it->second.begin(), it->second.end()};
  }

  [[nodiscard]] std::vector<std::pair<graph::VertexId, graph::VertexId>>
  edge_list() const {
    std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;
    for (const auto& [u, nbrs] : adjacency_)
      for (const auto v : nbrs)
        if (u < v) edges.emplace_back(u, v);
    return edges;
  }

 private:
  std::map<graph::VertexId, std::set<graph::VertexId>> adjacency_;
};

}  // namespace

AdversaryTranscript run_lemma9(DetAgentFactory factory,
                               std::vector<graph::VertexId> ids,
                               std::uint64_t rounds) {
  FNR_CHECK_MSG(ids.size() >= 9, "Lemma 9 needs a non-trivial ID space");
  const graph::VertexId v0 = ids[0];

  // |V| = n/2 + 1 for a final instance of n vertices; the pool P gets
  // 7n/16 = 7(|V|-1)/8 vertices, the reserve P̄ the rest (plus v0).
  const std::size_t pool_size = 7 * (ids.size() - 1) / 8;
  const std::vector<graph::VertexId> pool(ids.begin() + 1,
                                          ids.begin() + 1 + pool_size);
  const std::unordered_set<graph::VertexId> pool_set(pool.begin(), pool.end());
  // The reserve P̄ = V \ P (v0 belongs to it; it is a clique).
  const std::vector<graph::VertexId> reserve(ids.begin() + 1 + pool_size,
                                             ids.end());

  LazyWorld world(ids);
  // E0: star around v0, clique on the reserve (v0 included in the reserve).
  for (std::size_t i = 1; i < ids.size(); ++i) world.add_edge(v0, ids[i]);
  for (std::size_t i = 1 + pool_size; i < ids.size(); ++i) {
    world.add_edge(v0, ids[i]);
    for (std::size_t j = i + 1; j < ids.size(); ++j)
      world.add_edge(ids[i], ids[j]);
  }

  auto agent = factory();
  AdversaryTranscript transcript;
  transcript.ids = ids;
  transcript.start = v0;

  std::unordered_set<graph::VertexId> visited{v0};
  transcript.visited.push_back(v0);
  graph::VertexId here = v0;

  for (std::uint64_t round = 0; round < rounds; ++round) {
    const auto neighbors = world.neighbors(here);
    const DetView view{here, neighbors, round};
    const graph::VertexId next = agent->choose_move(view);
    if (next == here) continue;  // staying is allowed
    FNR_CHECK_MSG(world.has_edge(here, next),
                  "deterministic agent tried the non-edge (" << here << ", "
                                                             << next << ")");
    if (pool_set.contains(next) && !visited.contains(next)) {
      // First entry into a pool vertex: pin its neighborhood to every
      // still-unvisited reserve vertex. (Connecting to the reserve — not the
      // pool — is what keeps the stranded set W adjacent only to v0 while
      // still giving visited pool vertices Θ(n) degree; the paper's degree
      // accounting |P̄\Q_r| >= n/16 - n/32 confirms this reading.)
      for (const auto w : reserve)
        if (w != next && !visited.contains(w)) world.add_edge(next, w);
    }
    here = next;
    if (visited.insert(here).second) transcript.visited.push_back(here);
  }

  for (const auto w : pool)
    if (!visited.contains(w)) transcript.untouched.push_back(w);
  transcript.edges = world.edge_list();
  return transcript;
}

Theorem6Instance build_theorem6_instance(DetAgentFactory factory_a,
                                         DetAgentFactory factory_b,
                                         std::size_t n) {
  FNR_CHECK_MSG(n % 32 == 0 && n >= 64, "Theorem 6 needs n ≡ 0 (mod 32)");
  const std::uint64_t budget = n / 32;
  const std::size_t half = n / 2;

  auto make_ids = [](graph::VertexId start, graph::VertexId lo,
                     graph::VertexId hi) {
    std::vector<graph::VertexId> ids{start};
    for (graph::VertexId id = lo; id < hi; ++id) ids.push_back(id);
    return ids;
  };

  // Find (j, k) with k ∈ W_{a,j} and j ∈ W_{b,k}. The counting argument in
  // the paper guarantees such a pair exists; for concrete deterministic
  // agents the very first candidates almost always work.
  for (graph::VertexId j = half; j < n; ++j) {
    const auto transcript_a =
        run_lemma9(factory_a, make_ids(j, 0, half), budget);
    for (const auto k : transcript_a.untouched) {
      const auto transcript_b =
          run_lemma9(factory_b, make_ids(k, half, n), budget);
      const auto& w_b = transcript_b.untouched;
      if (std::find(w_b.begin(), w_b.end(), j) == w_b.end()) continue;

      // Glue the two transcripts.
      graph::GraphBuilder builder(n);
      auto add = [&](graph::VertexId u, graph::VertexId v) {
        builder.add_edge(static_cast<graph::VertexIndex>(u),
                         static_cast<graph::VertexIndex>(v));
      };
      for (const auto& [u, v] : transcript_a.edges) add(u, v);
      for (const auto& [u, v] : transcript_b.edges) add(u, v);
      add(j, k);
      std::size_t wa = 0;
      for (const auto u : transcript_a.untouched) {
        if (u == k) continue;
        ++wa;
        for (const auto v : w_b)
          if (v != j) add(u, v);
      }
      Theorem6Instance instance;
      instance.graph = std::move(builder).build_identity_ids();
      instance.placement =
          sim::Placement{static_cast<graph::VertexIndex>(j),
                         static_cast<graph::VertexIndex>(k)};
      instance.w_a = wa;
      instance.w_b = w_b.size() - 1;
      return instance;
    }
  }
  FNR_CHECK_MSG(false, "no (j, k) pair found — should be impossible");
  return {};
}

sim::Action DetAgentAdapter::step(const sim::View& view) {
  const DetView det_view{view.here(), view.neighbor_ids(), view.round()};
  const graph::VertexId next = inner_->choose_move(det_view);
  if (next == view.here()) return sim::Action::stay();
  return sim::Action::move(view.port_of(next));
}

// --- concrete deterministic strategies -------------------------------------

namespace {

class LexDfs final : public DeterministicAgent {
 public:
  graph::VertexId choose_move(const DetView& view) override {
    if (path_.empty()) {
      path_.push_back(view.here);
      visited_.insert(view.here);
    }
    graph::VertexId best = 0;
    bool found = false;
    for (const auto id : view.neighbors) {
      if (visited_.contains(id)) continue;
      if (!found || id < best) {
        best = id;
        found = true;
      }
    }
    if (found) {
      visited_.insert(best);
      path_.push_back(best);
      return best;
    }
    path_.pop_back();
    if (path_.empty()) return view.here;  // exploration finished
    return path_.back();
  }
  [[nodiscard]] std::string name() const override { return "lex-dfs"; }

 private:
  std::unordered_set<graph::VertexId> visited_;
  std::vector<graph::VertexId> path_;
};

class LexSweep final : public DeterministicAgent {
 public:
  graph::VertexId choose_move(const DetView& view) override {
    if (!init_) {
      home_ = view.here;
      targets_.assign(view.neighbors.begin(),
                      view.neighbors.end());  // already ascending
      init_ = true;
    }
    if (view.here != home_) return home_;  // bounce back
    if (next_ >= targets_.size()) return view.here;  // swept everything
    return targets_[next_++];
  }
  [[nodiscard]] std::string name() const override { return "lex-sweep"; }

 private:
  bool init_ = false;
  graph::VertexId home_ = 0;
  std::vector<graph::VertexId> targets_;
  std::size_t next_ = 0;
};

class RotorWalk final : public DeterministicAgent {
 public:
  graph::VertexId choose_move(const DetView& view) override {
    if (view.neighbors.empty()) return view.here;
    std::size_t exit_index = 0;
    const auto it = std::lower_bound(view.neighbors.begin(),
                                     view.neighbors.end(), previous_);
    if (has_previous_ && it != view.neighbors.end() && *it == previous_) {
      exit_index = static_cast<std::size_t>(it - view.neighbors.begin() + 1) %
                   view.neighbors.size();
    }
    previous_ = view.here;
    has_previous_ = true;
    return view.neighbors[exit_index];
  }
  [[nodiscard]] std::string name() const override { return "rotor-walk"; }

 private:
  bool has_previous_ = false;
  graph::VertexId previous_ = 0;
};

}  // namespace

std::unique_ptr<DeterministicAgent> make_lex_dfs() {
  return std::make_unique<LexDfs>();
}
std::unique_ptr<DeterministicAgent> make_lex_sweep() {
  return std::make_unique<LexSweep>();
}
std::unique_ptr<DeterministicAgent> make_rotor_walk() {
  return std::make_unique<RotorWalk>();
}

}  // namespace fnr::lower_bounds
