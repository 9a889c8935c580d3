#include "sim/view.hpp"

#include "fault/fault.hpp"

namespace fnr::sim {

std::span<const graph::VertexId> View::neighbor_ids() const {
  FNR_CHECK_MSG(model_.neighborhood_ids,
                "model does not grant access to neighborhood IDs");
  FNR_CHECK(graph_ != nullptr);
  return graph_->neighbor_ids(here_index_);
}

std::size_t View::port_of(graph::VertexId id) const {
  FNR_CHECK_MSG(model_.neighborhood_ids,
                "model does not grant access to neighborhood IDs");
  FNR_CHECK(graph_ != nullptr);
  const graph::VertexIndex target = graph_->try_index_of(id);
  FNR_CHECK_MSG(target != graph::kNoVertex,
                "ID " << id << " names no vertex");
  return graph_->port_to(here_index_, target);
}

std::optional<std::uint64_t> View::whiteboard() const {
  FNR_CHECK_MSG(model_.whiteboards, "model has no whiteboards");
  FNR_CHECK(boards_ != nullptr);
  auto value = boards_->read(here_index_);
  // wb-stale: the read happened (the access counter moved) but the agent
  // observes ⊥ instead of the stored value — the signature of a replica
  // that has not caught up yet. Only a stored value can be missed.
  if (faults_ != nullptr && value.has_value() &&
      faults_->reach(fault::Site::WhiteboardStale)) {
    ++faults_->stats.stale_reads;
    return std::nullopt;
  }
  return value;
}

}  // namespace fnr::sim
