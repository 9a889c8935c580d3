// Per-vertex whiteboard storage (paper §2.1).
//
// Our algorithms only ever store one O(log n)-bit word (the ID of b's start
// vertex), matching the paper's remark that O(log n) bits per whiteboard
// suffice. The store counts accesses for the resource experiments.
//
// Layout: a flat value array plus a presence bitmask (one bit per vertex)
// instead of vector<optional<...>> — half the bytes per cell and no
// per-cell flag padding on the hot read path. A dirty list of written
// vertices makes clear_all() O(#writes) instead of O(n), so a reused
// Scheduler pays per-trial reset costs proportional to the previous trial's
// activity, not to the graph size.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace fnr::sim {

class Whiteboards {
 public:
  /// All boards start empty (⊥ in the pseudocode).
  explicit Whiteboards(std::size_t num_vertices);

  /// Content of v's board (nullopt = ⊥); counted as one read access.
  [[nodiscard]] std::optional<std::uint64_t> read(graph::VertexIndex v);
  /// Overwrites v's board; counted as one write access.
  void write(graph::VertexIndex v, std::uint64_t value);
  /// Erases every board (O(#boards written since the last clear)).
  void clear_all();

  /// Number of boards (one per vertex).
  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return values_.size();
  }
  /// Read accesses since construction (never reset; callers take deltas).
  [[nodiscard]] std::uint64_t reads() const noexcept { return reads_; }
  /// Write accesses since construction (never reset; callers take deltas).
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }
  /// Number of boards currently holding a value (= the dirty list, whose
  /// entries are exactly the boards with a presence bit set).
  [[nodiscard]] std::size_t used_boards() const noexcept {
    return dirty_.size();
  }

 private:
  [[nodiscard]] bool present(graph::VertexIndex v) const noexcept {
    return (present_[v >> 6] >> (v & 63)) & 1u;
  }

  std::vector<std::uint64_t> values_;   // one word per vertex
  std::vector<std::uint64_t> present_;  // presence bitmask, 64 boards/word
  // Vertices whose presence bit is set, in first-write order; capacity is
  // reserved up front so post-warm-up writes never allocate.
  std::vector<graph::VertexIndex> dirty_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace fnr::sim
