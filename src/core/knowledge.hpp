// Agent a's accumulated map of its two-hop neighborhood.
//
// Everything agent a ever learns lives here: its home vertex, the closed
// neighborhood N+(v₀ᵃ), the growing covered set NS = N+(Sᵃ), and for every
// discovered vertex at distance two a "via" midpoint enabling length-2
// routes. The paper notes the shortest paths to T^a cost asymptotically no
// more memory than the vertex list itself; the via map is exactly that.
//
// Hot-path layout: in_home_closed / in_ns are the innermost operations of
// Sample's counting loop (one query per neighbor per visit), so membership
// is answered from flat byte masks indexed by vertex ID. The home_closed_
// set is kept alongside its mask because reset_coverage() iterates it to
// rebuild ns_list_, and that iteration order feeds RNG-indexed sampling —
// replacing the container would silently reorder every later draw. The
// masks are pure mirrors: logical contents (and memory_words accounting)
// are identical to the set-only representation.
#pragma once

#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace fnr::core {

class Knowledge {
 public:
  void init_home(graph::VertexId home,
                 std::span<const graph::VertexId> neighbor_ids) {
    home_ = home;
    for (const auto id : home_closed_) clear_bit(home_mask_, id);
    home_closed_.clear();
    home_closed_.insert(home);
    set_bit(home_mask_, home);
    home_neighbors_.assign(neighbor_ids.begin(), neighbor_ids.end());
    for (const auto id : neighbor_ids) {
      home_closed_.insert(id);
      set_bit(home_mask_, id);
    }
    reset_coverage();
  }

  /// Clears NS/via back to the freshly-initialized state (doubling restart).
  void reset_coverage() {
    for (const auto id : ns_list_) clear_bit(ns_mask_, id);
    ns_list_.clear();
    via_.clear();
    for (const auto id : home_closed_) {
      set_bit(ns_mask_, id);
      ns_list_.push_back(id);
    }
  }

  [[nodiscard]] graph::VertexId home() const noexcept { return home_; }
  [[nodiscard]] const std::vector<graph::VertexId>& home_neighbors()
      const noexcept {
    return home_neighbors_;
  }
  [[nodiscard]] bool in_home_closed(graph::VertexId v) const {
    return test_bit(home_mask_, v);
  }

  [[nodiscard]] bool in_ns(graph::VertexId v) const {
    return test_bit(ns_mask_, v);
  }
  [[nodiscard]] std::size_t ns_size() const noexcept {
    return ns_list_.size();
  }
  /// NS as a list (insertion order, duplicates impossible).
  [[nodiscard]] const std::vector<graph::VertexId>& ns_list() const noexcept {
    return ns_list_;
  }

  /// Exclusive upper bound on IDs the home-closed mask can answer for
  /// (Sample sizes its flat counter array to this).
  [[nodiscard]] std::size_t home_id_cap() const noexcept {
    return home_mask_.size();
  }

  /// Absorbs N+(x) for a newly adopted x ∈ N+(home); returns the vertices
  /// that are new to NS (the Γ of the next optimistic Sample run).
  std::vector<graph::VertexId> absorb_neighborhood(
      graph::VertexId x, std::span<const graph::VertexId> x_neighbors) {
    std::vector<graph::VertexId> fresh;
    auto add = [&](graph::VertexId w) {
      if (!test_bit(ns_mask_, w)) {
        set_bit(ns_mask_, w);
        ns_list_.push_back(w);
        fresh.push_back(w);
        if (!in_home_closed(w)) via_.emplace(w, x);
      }
    };
    add(x);  // x ∈ N+(home), so normally present already
    for (const auto w : x_neighbors) add(w);
    return fresh;
  }

  /// Route from home to any w ∈ NS (0, 1, or 2 hops).
  [[nodiscard]] std::vector<graph::VertexId> route_from_home(
      graph::VertexId w) const {
    if (w == home_) return {};
    if (in_home_closed(w)) return {w};
    const auto it = via_.find(w);
    FNR_CHECK_MSG(it != via_.end(), "no known route to vertex " << w);
    return {it->second, w};
  }

  /// Route from w ∈ NS back home (reverse of route_from_home).
  [[nodiscard]] std::vector<graph::VertexId> route_to_home(
      graph::VertexId w) const {
    if (w == home_) return {};
    if (in_home_closed(w)) return {home_};
    const auto it = via_.find(w);
    FNR_CHECK_MSG(it != via_.end(), "no known route back from vertex " << w);
    return {it->second, home_};
  }

  [[nodiscard]] std::size_t memory_words() const noexcept {
    return home_neighbors_.size() + home_closed_.size() + 2 * via_.size() +
           2 * ns_list_.size();
  }

 private:
  static void set_bit(std::vector<char>& mask, graph::VertexId v) {
    if (v >= mask.size()) mask.resize(v + 1, 0);
    mask[v] = 1;
  }
  static void clear_bit(std::vector<char>& mask, graph::VertexId v) {
    if (v < mask.size()) mask[v] = 0;
  }
  [[nodiscard]] static bool test_bit(const std::vector<char>& mask,
                                     graph::VertexId v) {
    return v < mask.size() && mask[v] != 0;
  }

  graph::VertexId home_ = 0;
  std::vector<graph::VertexId> home_neighbors_;
  std::unordered_set<graph::VertexId> home_closed_;
  std::vector<graph::VertexId> ns_list_;
  std::unordered_map<graph::VertexId, graph::VertexId> via_;
  // Membership mirrors of home_closed_ / the NS set, byte per ID, grown to
  // the highest ID ever inserted (queries beyond the mask are misses).
  std::vector<char> home_mask_;
  std::vector<char> ns_mask_;
};

}  // namespace fnr::core
