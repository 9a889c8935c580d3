// A zero-copy, vertex-indexed view of a graph's observation tables.
//
// The tables themselves — neighbor IDs and arrival ports per adjacency
// slot, the dense ID→index array — are built once per graph in
// GraphBuilder::build and live in graph::Graph, where every Scheduler and
// View reads them directly.
// NeighborTable only re-exposes them in row form (ids[v][port],
// rev[v][port]) for code that inspects the tables as a whole; constructing
// one copies nothing and allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/graph.hpp"

namespace fnr::sim {

struct NeighborTable {
  /// rows[v] == (g.*Row)(v): one span per vertex, iterable in vertex order.
  template <auto Row>
  class Rows {
   public:
    explicit Rows(const graph::Graph& g) : g_(&g) {}

    [[nodiscard]] std::size_t size() const noexcept {
      return g_->num_vertices();
    }
    [[nodiscard]] auto operator[](graph::VertexIndex v) const {
      return (g_->*Row)(v);
    }

    class iterator {
     public:
      iterator(const Rows* rows, graph::VertexIndex v) : rows_(rows), v_(v) {}
      auto operator*() const { return (*rows_)[v_]; }
      iterator& operator++() {
        ++v_;
        return *this;
      }
      bool operator==(const iterator&) const = default;

     private:
      const Rows* rows_;
      graph::VertexIndex v_;
    };
    [[nodiscard]] iterator begin() const { return {this, 0}; }
    [[nodiscard]] iterator end() const {
      return {this, static_cast<graph::VertexIndex>(size())};
    }

   private:
    const graph::Graph* g_;
  };

  explicit NeighborTable(const graph::Graph& g)
      : ids(g),
        rev(g),
        index_by_id(g.index_by_id()) {}

  /// ids[v][port] — ID of v's neighbor through `port` (Graph::neighbor_ids).
  Rows<&graph::Graph::neighbor_ids> ids;
  /// rev[v][port] — the arrival port after crossing `port` from v
  /// (Graph::reverse_ports).
  Rows<&graph::Graph::reverse_ports> rev;
  /// Graph::index_by_id — empty under sparse naming.
  std::span<const graph::VertexIndex> index_by_id;
  /// Always empty: graphs keep no n² port table (Graph::port_to searches
  /// the sorted row). Kept only because the benchmark's table-bytes probe
  /// still reads it; it goes away together with NeighborTable.
  std::span<const std::uint16_t> port_by_pair;
};

}  // namespace fnr::sim
