#include "baselines/gather.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace fnr::baselines {

std::size_t GatherAtMinAgent::probe(graph::VertexId id) const noexcept {
  // Fibonacci hashing: the top log2(size) bits of id * 2^64/phi spread
  // dense (0..n-1) and sparse ID spaces alike.
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >>
                                           (64 - std::bit_width(mask)));
  while (slots_[s].local != kNone && slots_[s].id != id) s = (s + 1) & mask;
  return s;
}

GatherAtMinAgent::Local GatherAtMinAgent::find(
    graph::VertexId id) const noexcept {
  return slots_.empty() ? kNone : slots_[probe(id)].local;
}

bool GatherAtMinAgent::discover(graph::VertexId id, Local parent) {
  if (2 * (vertices_.size() + 1) > slots_.size()) grow_slots();
  Slot& slot = slots_[probe(id)];
  if (slot.local != kNone) return false;
  const auto local = static_cast<Local>(vertices_.size());
  FNR_CHECK(local != kNone);
  slot = Slot{id, local};
  vertices_.push_back(Vertex{id, parent, 0, kNone, kNone});
  return true;
}

void GatherAtMinAgent::grow_slots() {
  slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()),
                Slot{0, kNone});
  for (Local local = 0; local < vertices_.size(); ++local)
    slots_[probe(vertices_[local].id)] = Slot{vertices_[local].id, local};
}

void GatherAtMinAgent::on_idle(const sim::View& view) {
  const graph::VertexId here = view.here();
  if (vertices_.empty()) {
    min_seen_ = here;
    discover(here, 0);  // the root: local index 0, its own parent
  }
  if (arrived_) return;  // camped on the rally vertex

  if (!rallying_) {
    // Every vertex the DFS stands on was discovered before it moved there.
    const Local h = find(here);
    FNR_CHECK_MSG(h != kNone, "DFS stands on undiscovered vertex " << here);
    if (vertices_[h].adj_begin == kNone) {
      const auto ids = view.neighbor_ids();
      FNR_CHECK(neighbors_.size() + ids.size() < kNone);
      vertices_[h].adj_begin = static_cast<Local>(neighbors_.size());
      vertices_[h].cursor = vertices_[h].adj_begin;
      neighbors_.insert(neighbors_.end(), ids.begin(), ids.end());
      vertices_[h].adj_end = static_cast<Local>(neighbors_.size());
      ++visited_;
      min_seen_ = std::min(min_seen_, here);
    }
    // Resume this vertex's child scan where it left off (keeps the whole
    // DFS O(m) bookkeeping instead of O(sum deg^2)).
    while (vertices_[h].cursor < vertices_[h].adj_end) {
      const graph::VertexId u = neighbors_[vertices_[h].cursor++];
      if (!discover(u, h)) continue;
      plan_move(u);
      return;
    }
    if (h != 0) {
      plan_move(vertices_[vertices_[h].parent].id);
      return;
    }
    // DFS spent and we are back at the root: the map is complete for the
    // whole component. Rally at the smallest ID seen.
    rallying_ = true;
    if (here == min_seen_) {
      arrived_ = true;
      return;
    }
    plan_route(route(h, find(min_seen_)));
    return;
  }
  // Route consumed: we stand on the rally vertex.
  FNR_ASSERT(here == min_seen_);
  arrived_ = true;
}

std::vector<graph::VertexId> GatherAtMinAgent::route(Local from,
                                                     Local to) const {
  // Only discovered vertices can lie on a route: an ID seen in a neighbor
  // list but never discovered has no neighbors on record, so skipping it
  // leaves every other vertex's BFS predecessor unchanged. (A vertex never
  // visited has the empty slice [kNone, kNone).)
  std::vector<Local> prev(vertices_.size(), kNone);
  std::vector<Local> frontier;
  frontier.reserve(vertices_.size());
  frontier.push_back(from);
  prev[from] = from;
  for (std::size_t next = 0; next < frontier.size() && prev[to] == kNone;) {
    const Local v = frontier[next++];
    for (Local i = vertices_[v].adj_begin; i < vertices_[v].adj_end; ++i) {
      const Local u = find(neighbors_[i]);
      if (u == kNone || prev[u] != kNone) continue;
      prev[u] = v;
      frontier.push_back(u);
    }
  }
  FNR_CHECK_MSG(prev[to] != kNone, "rally vertex " << vertices_[to].id
                                                   << " unreachable in the "
                                                      "learned map");
  std::vector<graph::VertexId> hops;
  for (Local v = to; v != from; v = prev[v]) hops.push_back(vertices_[v].id);
  std::reverse(hops.begin(), hops.end());
  return hops;
}

std::size_t GatherAtMinAgent::memory_words() const {
  // The words of the learned map as it would be held keyed by ID: an
  // adjacency list (1 + degree) and a child cursor (2) per visited vertex,
  // a parent link (2) per discovered one.
  return sim::ScriptedAgent::memory_words() + 4 + visited_ +
         neighbors_.size() + 2 * vertices_.size() + 2 * visited_;
}

}  // namespace fnr::baselines
