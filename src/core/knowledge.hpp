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
//
// Routes are values with a port on every hop (sim::Route), so a trip
// allocates nothing and a step searches no adjacency row. The ports come
// from rows the agent observed, each in port order: home's row gives the
// port from home to every neighbor (home_port_, by ID), and the row of an
// absorbed x gives, for every w it adds, the port at x leading to w, plus
// x's own port back home. The last hop towards home from a visited vertex
// leaves through the port the agent arrived by. The via map is flat and
// ID-indexed, because its order is never read. Like the masks, these
// arrays are shorthand for what the agent observed and stores as IDs:
// memory_words charges the via map two words per entry.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "graph/graph.hpp"
#include "sim/scripted_agent.hpp"
#include "util/check.hpp"

namespace fnr::core {

class Knowledge {
 public:
  /// `neighbor_ids` is home's row in port order.
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
    home_port_.resize(home_mask_.size());
    for (std::size_t p = 0; p < neighbor_ids.size(); ++p)
      home_port_[neighbor_ids[p]] = static_cast<std::uint32_t>(p);
    back_port_.assign(neighbor_ids.size(), kNoPort);
    reset_coverage();
  }

  /// Clears NS/via back to the freshly-initialized state (doubling restart).
  void reset_coverage() {
    for (const auto id : ns_list_) clear_bit(ns_mask_, id);
    ns_list_.clear();
    via_count_ = 0;
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
  /// The home-closed mask: byte v is nonzero iff v ∈ N+(home); IDs at or
  /// past its size are not members. Never empty once init_home has run.
  [[nodiscard]] std::span<const char> home_mask() const noexcept {
    return home_mask_;
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

  /// Absorbs N+(x) for a newly adopted x ∈ N(home), given x's row in port
  /// order; returns the vertices that are new to NS (the Γ of the next
  /// optimistic Sample run).
  std::vector<graph::VertexId> absorb_neighborhood(
      graph::VertexId x, std::span<const graph::VertexId> x_neighbors) {
    FNR_CHECK_MSG(x != home_ && in_home_closed(x),
                  "absorbed vertex " << x << " is not a neighbor of home");
    const std::uint32_t x_port = home_port_[x];
    std::vector<graph::VertexId> fresh;
    for (std::size_t p = 0; p < x_neighbors.size(); ++p) {
      const graph::VertexId w = x_neighbors[p];
      if (w == home_) back_port_[x_port] = static_cast<std::uint32_t>(p);
      if (test_bit(ns_mask_, w)) continue;
      set_bit(ns_mask_, w);
      ns_list_.push_back(w);
      fresh.push_back(w);
      if (!in_home_closed(w)) {
        if (w >= via_.size()) via_.resize(w + 1);
        via_[w] = Via{x_port, static_cast<std::uint32_t>(p)};
        ++via_count_;
      }
    }
    return fresh;
  }

  /// Route from home to any w ∈ NS (0, 1, or 2 hops).
  [[nodiscard]] sim::Route route_from_home(graph::VertexId w) const {
    if (w == home_) return {};
    if (in_home_closed(w)) return sim::Route(sim::Hop{w, home_port_[w]});
    FNR_CHECK_MSG(in_ns(w), "no known route to vertex " << w);
    const Via via = via_[w];
    return sim::Route(
        sim::Hop{home_neighbors_[via.home_port], via.home_port},
        sim::Hop{w, via.port});
  }

  /// Route from w ∈ NS back home (reverse of route_from_home), for an agent
  /// standing on w that arrived through `arrival_port` along
  /// route_from_home(w). Needs no port when w is home.
  [[nodiscard]] sim::Route route_to_home(
      graph::VertexId w, std::optional<std::size_t> arrival_port) const {
    if (w == home_) return {};
    FNR_CHECK_MSG(in_ns(w), "no known route back from vertex " << w);
    FNR_CHECK_MSG(arrival_port.has_value(),
                  "no arrival port to leave vertex " << w << " by");
    const auto back = static_cast<std::uint32_t>(*arrival_port);
    if (in_home_closed(w)) return sim::Route(sim::Hop{home_, back});
    const Via via = via_[w];
    const std::uint32_t home_port = back_port_[via.home_port];
    FNR_CHECK_MSG(home_port != kNoPort,
                  "the row absorbed for vertex "
                      << home_neighbors_[via.home_port] << " names no home");
    return sim::Route(sim::Hop{home_neighbors_[via.home_port], back},
                      sim::Hop{home_, home_port});
  }

  [[nodiscard]] std::size_t memory_words() const noexcept {
    return home_neighbors_.size() + home_closed_.size() + 2 * via_count_ +
           2 * ns_list_.size();
  }

 private:
  static constexpr std::uint32_t kNoPort = ~std::uint32_t{0};

  /// How home reaches a vertex w at distance two: through the neighbor x
  /// behind home port `home_port`, then x's port `port`.
  struct Via {
    std::uint32_t home_port;
    std::uint32_t port;
  };

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
  // Membership mirrors of home_closed_ / the NS set, byte per ID, grown to
  // the highest ID ever inserted (queries beyond the mask are misses).
  std::vector<char> home_mask_;
  std::vector<char> ns_mask_;
  /// By ID: the port from home to that neighbor (read for home neighbors
  /// only; sized like home_mask_).
  std::vector<std::uint32_t> home_port_;
  /// By home port of a neighbor x: x's port back home (kNoPort until x's
  /// row is absorbed).
  std::vector<std::uint32_t> back_port_;
  /// By ID: the via hop of each w ∈ NS \ N+(home) (other entries are
  /// stale or unset; in_ns and in_home_closed say which are live).
  std::vector<Via> via_;
  std::size_t via_count_ = 0;  ///< live via entries
};

}  // namespace fnr::core
