#include "core/main_rendezvous.hpp"

#include <algorithm>
#include <cmath>

#include "util/log.hpp"

namespace fnr::core {

WhiteboardAgentA::WhiteboardAgentA(const Params& params, double known_delta,
                                   Rng rng)
    : params_(params), known_delta_(known_delta), rng_(rng) {}

void WhiteboardAgentA::on_idle(const sim::View& view) {
  if (phase_ == Phase::Sit) return;  // camped on v₀ᵇ, waiting for b

  if (phase_ == Phase::Init) {
    knowledge_.init_home(view.here(), view.neighbor_ids());
    delta_hat_ = known_delta_ > 0
                     ? known_delta_
                     : std::max(1.0, std::floor(
                                         static_cast<double>(view.degree()) /
                                         2.0));
    construct_ = std::make_unique<ConstructRun>(knowledge_, params_,
                                                delta_hat_, view.num_vertices());
    phase_ = Phase::Construct;
  }

  // §4.1 doubling: seeing any vertex of degree < δ' halves the estimate and
  // restarts the construction (agent b is oblivious and needs no restart).
  if (known_delta_ <= 0 && phase_ == Phase::Construct &&
      static_cast<double>(view.degree()) < delta_hat_) {
    while (delta_hat_ > 1.0 &&
           static_cast<double>(view.degree()) < delta_hat_)
      delta_hat_ /= 2.0;
    restart_pending_ = true;
    ++stats_.doubling_restarts;
  }

  if (view.here() != knowledge_.home()) {
    // Arrival at a planned target.
    if (phase_ == Phase::Construct) {
      if (!restart_pending_) construct_->on_arrival(view);
      plan_route(knowledge_.route_to_home(view.here(), view.arrival_port()));
    } else if (phase_ == Phase::Main) {
      if (!check_mark(view)) {
        plan_route(knowledge_.route_to_home(view.here(), view.arrival_port()));
      }
    }
    return;
  }

  // At home.
  if (restart_pending_) {
    knowledge_.reset_coverage();
    construct_ = std::make_unique<ConstructRun>(knowledge_, params_,
                                                delta_hat_, view.num_vertices());
    restart_pending_ = false;
  }

  if (phase_ == Phase::Construct) drive_construct(view);

  if (phase_ == Phase::Main) {
    if (check_mark(view)) return;
    const graph::VertexId v = t_set_[rng_.below(t_set_.size())];
    ++stats_.main_probes;
    if (v == knowledge_.home()) {
      plan_wait(1);  // board here was just checked; burn the sampling round
      return;
    }
    plan_route(knowledge_.route_from_home(v));
  }
}

void WhiteboardAgentA::drive_construct(const sim::View& view) {
  while (auto target = construct_->next_target(rng_)) {
    if (*target == view.here()) {
      // Self-visits are free: the agent is already standing here.
      construct_->on_arrival(view);
      continue;
    }
    plan_route(knowledge_.route_from_home(*target));
    return;
  }
  // Construct finished: T^a = N+(Sᵃ).
  stats_.construct = construct_->stats();
  stats_.construct.rounds_used = view.round();
  stats_.delta_hat_final = delta_hat_;
  t_set_ = construct_->t_set();
  stats_.t_set_size = t_set_.size();
  stats_.t_set_ids = t_set_;
  construct_.reset();
  phase_ = Phase::Main;
  FNR_DEBUG("agent a: T^a ready, |T^a|=" << t_set_.size() << " at round "
                                         << view.round());
}

bool WhiteboardAgentA::check_mark(const sim::View& view) {
  const auto mark = view.whiteboard();
  if (!mark.has_value()) return false;
  const graph::VertexId b_home = *mark;
  // In the paper's instance class b only ever writes v₀ᵇ, which is adjacent
  // to home (initial distance 1). k-agent and delayed-start scenarios can
  // surface a mark from an agent whose home is NOT in our neighborhood;
  // there is no known route to it, so skip the mark and keep probing.
  if (!knowledge_.in_home_closed(b_home) || b_home == knowledge_.home()) {
    ++stats_.foreign_marks;
    return false;
  }
  stats_.found_mark = true;
  plan_route(knowledge_.route_to_home(view.here(), view.arrival_port()));
  plan_route(knowledge_.route_from_home(b_home));
  phase_ = Phase::Sit;
  FNR_DEBUG("agent a: found mark for " << b_home << " at round "
                                       << view.round());
  return true;
}

AgentAStats WhiteboardAgentA::stats() const {
  AgentAStats out = stats_;
  if (construct_ != nullptr) {
    out.construct = construct_->stats();
    out.delta_hat_final = delta_hat_;
  }
  return out;
}

std::size_t WhiteboardAgentA::memory_words() const {
  return sim::ScriptedAgent::memory_words() + knowledge_.memory_words() +
         t_set_.size() + (construct_ ? construct_->memory_words() : 0) + 8;
}

sim::Action WhiteboardAgentB::step(const sim::View& view) {
  if (!init_) {
    home_ = view.here();
    home_degree_ = view.degree();
    init_ = true;
  }
  if (view.here() == home_) {
    // Uniform u ∈ N+(home): index home_degree_ encodes u = home itself.
    const std::uint64_t pick = rng_.below(home_degree_ + 1);
    if (pick == home_degree_) {
      sim::Action action = sim::Action::stay();
      action.whiteboard_write = home_;
      ++marks_;
      return action;
    }
    return sim::Action::move(pick);
  }
  // At the chosen neighbor: leave the mark and head straight home, back
  // through the port it arrived by. Only after churn blocked that hop (the
  // agent stayed, so no arrival port) is home's port looked up.
  sim::Action action;
  action.whiteboard_write = home_;
  const auto back = view.arrival_port();
  action.move_port = back.has_value() ? *back : view.port_of(home_);
  ++marks_;
  return action;
}

}  // namespace fnr::core
