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
  vertices_.push_back(Vertex{id, parent, 0, 0, kNone, kNone});
  return true;
}

void GatherAtMinAgent::grow_slots() {
  slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()),
                Slot{0, kNone});
  for (Local local = 0; local < vertices_.size(); ++local)
    slots_[probe(vertices_[local].id)] = Slot{vertices_[local].id, local};
}

sim::Action GatherAtMinAgent::step(const sim::View& view) {
  const graph::VertexId here = view.here();
  if (in_flight_) {
    // A reliable substrate lands every hop on its target; standing
    // anywhere else means edge churn blocked the traversal, and the agent
    // holds position, trying the same port again until it goes through.
    if (here != last_hop_.target) {
      FNR_CHECK_MSG(here == last_from_, "hop from " << last_from_ << " to "
                                                     << last_hop_.target
                                                     << " left the agent on "
                                                     << here);
      return sim::Action::move(last_hop_.port);
    }
    in_flight_ = false;
  }
  if (route_head_ < route_.size()) return depart(route_[route_head_++], here);
  return decide(view);
}

sim::Action GatherAtMinAgent::depart(const Hop& hop, graph::VertexId here) {
  in_flight_ = true;
  last_hop_ = hop;
  last_from_ = here;
  return sim::Action::move(hop.port);
}

sim::Action GatherAtMinAgent::decide(const sim::View& view) {
  const graph::VertexId here = view.here();
  if (vertices_.empty()) {
    min_seen_ = here;
    discover(here, 0);  // the root: local index 0, its own parent
  }
  if (arrived_) return sim::Action::stay();  // camped on the rally vertex

  if (!rallying_) {
    // Every vertex the DFS stands on was discovered before it moved there.
    const Local h = find(here);
    FNR_CHECK_MSG(h != kNone, "DFS stands on undiscovered vertex " << here);
    if (vertices_[h].adj_begin == kNone) {
      const auto ids = view.neighbor_ids();
      FNR_CHECK(neighbors_.size() + ids.size() < kNone);
      if (h != 0) {
        // First visit: the DFS came from the parent, so the port it
        // arrived through leads back there.
        const auto arrival = view.arrival_port();
        FNR_CHECK_MSG(arrival.has_value(),
                      "DFS entered vertex " << here << " without moving");
        vertices_[h].parent_port = static_cast<Local>(*arrival);
      }
      vertices_[h].adj_begin = static_cast<Local>(neighbors_.size());
      vertices_[h].cursor = vertices_[h].adj_begin;
      neighbors_.insert(neighbors_.end(), ids.begin(), ids.end());
      vertices_[h].adj_end = static_cast<Local>(neighbors_.size());
      ++visited_;
      min_seen_ = std::min(min_seen_, here);
    }
    // Resume this vertex's child scan where it left off (keeps the whole
    // DFS O(m) bookkeeping instead of O(sum deg^2)). The slice is in port
    // order, so a neighbor's offset in it is its port.
    while (vertices_[h].cursor < vertices_[h].adj_end) {
      const Local i = vertices_[h].cursor++;
      const graph::VertexId u = neighbors_[i];
      if (!discover(u, h)) continue;
      return depart(Hop{i - vertices_[h].adj_begin, u}, here);
    }
    if (h != 0) {
      const Vertex& v = vertices_[h];
      return depart(Hop{v.parent_port, vertices_[v.parent].id}, here);
    }
    // DFS spent and we are back at the root: the map is complete for the
    // whole component. Rally at the smallest ID seen.
    rallying_ = true;
    if (here == min_seen_) {
      arrived_ = true;
      return sim::Action::stay();
    }
    plan_route(h, find(min_seen_));
    return depart(route_[route_head_++], here);
  }
  // Route consumed: we stand on the rally vertex.
  FNR_ASSERT(here == min_seen_);
  arrived_ = true;
  return sim::Action::stay();
}

void GatherAtMinAgent::plan_route(Local from, Local to) {
  // Only discovered vertices can lie on a route: an ID seen in a neighbor
  // list but never discovered has no neighbors on record, so skipping it
  // leaves every other vertex's BFS predecessor unchanged. (A vertex never
  // visited has the empty slice [kNone, kNone).)
  struct Pred {
    Local vertex;  ///< BFS predecessor, kNone until reached
    Local port;    ///< the predecessor's port to this vertex
  };
  std::vector<Pred> pred(vertices_.size(), Pred{kNone, 0});
  std::vector<Local> frontier;
  frontier.reserve(vertices_.size());
  frontier.push_back(from);
  pred[from].vertex = from;
  for (std::size_t next = 0;
       next < frontier.size() && pred[to].vertex == kNone;) {
    const Local v = frontier[next++];
    for (Local i = vertices_[v].adj_begin; i < vertices_[v].adj_end; ++i) {
      const Local u = find(neighbors_[i]);
      if (u == kNone || pred[u].vertex != kNone) continue;
      pred[u] = Pred{v, i - vertices_[v].adj_begin};
      frontier.push_back(u);
    }
  }
  FNR_CHECK_MSG(pred[to].vertex != kNone,
                "rally vertex " << vertices_[to].id
                                << " unreachable in the learned map");
  std::size_t hops = 0;
  for (Local v = to; v != from; v = pred[v].vertex) ++hops;
  route_.resize(hops);
  for (Local v = to; v != from; v = pred[v].vertex)
    route_[--hops] = Hop{pred[v].port, vertices_[v].id};
  route_head_ = 0;
}

std::size_t GatherAtMinAgent::memory_words() const {
  // The words of the learned map as it would be held keyed by ID: an
  // adjacency list (1 + degree) and a child cursor (2) per visited vertex,
  // a parent link (2) per discovered one; plus two words per rally hop not
  // yet taken.
  return 2 * (route_.size() - route_head_) + 4 + visited_ +
         neighbors_.size() + 2 * vertices_.size() + 2 * visited_;
}

}  // namespace fnr::baselines
