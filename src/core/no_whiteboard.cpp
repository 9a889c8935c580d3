#include "core/no_whiteboard.hpp"

#include <algorithm>
#include <numeric>

#include "util/log.hpp"

namespace fnr::core {

NoWbSchedule NoWbSchedule::make(std::size_t n, graph::VertexId id_bound,
                                double delta, const Params& params) {
  NoWbSchedule s;
  s.t_start = params.construct_round_budget(n, delta);
  s.beta = params.block_width(delta);
  s.num_blocks = (id_bound + s.beta - 1) / s.beta;
  s.block_cap = params.block_cap(n);
  s.a_wait = params.a_wait_rounds(n);
  s.phase_len = params.phase_rounds(n);
  return s;
}

IdBlocks build_blocks(std::vector<graph::VertexId> ids,
                      const NoWbSchedule& schedule) {
  // The block index id / β only grows with the ID, so one sort puts every
  // block's IDs side by side and in order; the first block_cap of each stay.
  std::sort(ids.begin(), ids.end());
  IdBlocks blocks;
  blocks.offsets.assign(schedule.num_blocks + 1, 0);
  std::size_t kept = 0;
  for (const auto id : ids) {
    const std::uint64_t block = id / schedule.beta;
    FNR_CHECK_MSG(block < schedule.num_blocks,
                  "ID " << id << " outside the agreed ID space");
    if (blocks.offsets[block + 1] == schedule.block_cap) continue;
    ++blocks.offsets[block + 1];
    ids[kept++] = id;
  }
  ids.resize(kept);
  std::partial_sum(blocks.offsets.begin(), blocks.offsets.end(),
                   blocks.offsets.begin());
  blocks.ids = std::move(ids);
  return blocks;
}

NoWbOracle NoWbOracle::from_graph(const graph::Graph& g,
                                  graph::VertexIndex home) {
  NoWbOracle oracle;
  oracle.enabled = true;
  for (const auto x : g.neighbor_ids(home)) {
    const auto row = g.neighbor_ids(g.index_of(x));
    oracle.two_ball.emplace_back(
        x, std::vector<graph::VertexId>(row.begin(), row.end()));
  }
  return oracle;
}

// --- agent a ---------------------------------------------------------------

NoWhiteboardAgentA::NoWhiteboardAgentA(const Params& params, double delta,
                                       Rng rng, NoWbOracle oracle)
    : params_(params), delta_(delta), rng_(rng), oracle_(std::move(oracle)) {
  FNR_CHECK_MSG(delta_ >= 1.0, "Algorithm 4 needs the minimum degree");
}

void NoWhiteboardAgentA::on_idle(const sim::View& view) {
  if (phase_ == Phase::Exhausted) return;

  if (phase_ == Phase::Init) {
    knowledge_.init_home(view.here(), view.neighbor_ids());
    schedule_ = NoWbSchedule::make(view.num_vertices(), view.id_bound(),
                                   delta_, params_);
    if (oracle_.enabled) {
      // Ablation path: adopt the supplied two-hop map as T^a and start the
      // phase schedule immediately.
      for (const auto& [x, nbrs] : oracle_.two_ball)
        (void)knowledge_.absorb_neighborhood(x, nbrs);
      schedule_.t_start = 0;
      stats_.t_set_size = knowledge_.ns_list().size();
      const double p = params_.mark_probability(delta_, view.num_vertices());
      std::vector<graph::VertexId> phi;
      for (const auto v : knowledge_.ns_list())
        if (rng_.bernoulli(p)) phi.push_back(v);
      blocks_ = build_blocks(std::move(phi), schedule_);
      phase_ = Phase::Tour;
      return;
    }
    construct_ = std::make_unique<ConstructRun>(knowledge_, params_, delta_,
                                                view.num_vertices());
    phase_ = Phase::Construct;
  }

  if (view.here() != knowledge_.home()) {
    if (phase_ == Phase::Construct) {
      construct_->on_arrival(view);
      plan_route(knowledge_.route_to_home(view.here(), view.arrival_port()));
    } else {
      // Tour arrival at a Φᵃ vertex: sit out the agreed window, then return.
      plan_wait(schedule_.a_wait);
      plan_route(knowledge_.route_to_home(view.here(), view.arrival_port()));
    }
    return;
  }

  if (phase_ == Phase::Construct) {
    drive_construct(view);
    if (phase_ != Phase::Tour) return;  // still travelling for Construct
    plan_wait_until(schedule_.t_start);
    return;
  }

  // Tour, standing at home.
  if (current_block_ >= schedule_.num_blocks) {
    phase_ = Phase::Exhausted;  // schedule spent without a meeting
    return;
  }
  const auto block = blocks_.block(current_block_);
  if (current_pos_ < block.size()) {
    const graph::VertexId u = block[current_pos_++];
    if (u == knowledge_.home()) {
      plan_wait(schedule_.a_wait);
      return;
    }
    plan_route(knowledge_.route_from_home(u));
    return;  // the sit is planned on arrival
  }
  // Block finished: hold position until the next phase boundary.
  ++current_block_;
  ++stats_.phases_used;
  current_pos_ = 0;
  plan_wait_until(schedule_.t_start + current_block_ * schedule_.phase_len);
}

void NoWhiteboardAgentA::drive_construct(const sim::View& view) {
  while (auto target = construct_->next_target(rng_)) {
    if (*target == view.here()) {
      construct_->on_arrival(view);
      continue;
    }
    plan_route(knowledge_.route_from_home(*target));
    return;
  }
  stats_.construct = construct_->stats();
  stats_.construct.rounds_used = view.round();
  stats_.t_set_size = construct_->t_set().size();
  stats_.t_set_ids = construct_->t_set();
  start_tour(view);
}

AgentAStats NoWhiteboardAgentA::stats() const {
  AgentAStats out = stats_;
  out.delta_hat_final = delta_;  // given, never estimated
  if (phase_ == Phase::Construct) out.construct = construct_->stats();
  return out;
}

void NoWhiteboardAgentA::start_tour(const sim::View& view) {
  FNR_CHECK_MSG(view.round() <= schedule_.t_start,
                "Construct overran its budget t' = " << schedule_.t_start
                                                     << " (round "
                                                     << view.round() << ")");
  const double p = params_.mark_probability(delta_, view.num_vertices());
  std::vector<graph::VertexId> phi;
  for (const auto v : construct_->t_set())
    if (rng_.bernoulli(p)) phi.push_back(v);
  blocks_ = build_blocks(std::move(phi), schedule_);
  construct_.reset();
  phase_ = Phase::Tour;
  FNR_DEBUG("agent a: |Phi_a|=" << blocks_.ids.size()
                                  << ", t'=" << schedule_.t_start);
}

std::size_t NoWhiteboardAgentA::memory_words() const {
  // Φ is charged its kept IDs; the block offsets only index them.
  return sim::ScriptedAgent::memory_words() + knowledge_.memory_words() +
         blocks_.ids.size() + (construct_ ? construct_->memory_words() : 0) +
         16;
}

// --- agent b ---------------------------------------------------------------

NoWhiteboardAgentB::NoWhiteboardAgentB(const Params& params, double delta,
                                       Rng rng, bool synchronized_start)
    : params_(params),
      delta_(delta),
      rng_(rng),
      synchronized_start_(synchronized_start) {
  FNR_CHECK_MSG(delta_ >= 1.0, "Algorithm 4 needs the minimum degree");
}

void NoWhiteboardAgentB::on_idle(const sim::View& view) {
  if (!init_) {
    home_ = view.here();
    schedule_ = NoWbSchedule::make(view.num_vertices(), view.id_bound(),
                                   delta_, params_);
    const double p = params_.mark_probability(delta_, view.num_vertices());
    std::vector<graph::VertexId> phi;
    if (rng_.bernoulli(p)) phi.push_back(home_);
    const auto row = view.neighbor_ids();
    for (const auto u : row)
      if (rng_.bernoulli(p)) phi.push_back(u);
    if (!row.empty())
      home_port_.resize(*std::max_element(row.begin(), row.end()) + 1);
    for (std::size_t port = 0; port < row.size(); ++port)
      home_port_[row[port]] = static_cast<std::uint32_t>(port);
    if (!synchronized_start_) schedule_.t_start = 0;
    blocks_ = build_blocks(std::move(phi), schedule_);
    init_ = true;
    plan_wait_until(schedule_.t_start);
    FNR_DEBUG("agent b: |Phi_b|=" << blocks_.ids.size() << ", t'="
                                  << schedule_.t_start);
    return;
  }

  if (current_block_ >= schedule_.num_blocks) return;  // schedule spent

  const std::uint64_t phase_end = schedule_.phase_end(current_block_);
  const auto block = blocks_.block(current_block_);
  // A visit costs 2 rounds (out + back); don't start one that can't finish.
  if (block.empty() || view.round() + 2 > phase_end) {
    ++current_block_;
    current_pos_ = 0;
    plan_wait_until(phase_end);
    return;
  }
  const graph::VertexId u = block[current_pos_ % block.size()];
  ++current_pos_;
  if (u == home_) {
    plan_wait(1);  // "visiting" home is just standing on it
    return;
  }
  plan_move(sim::Hop{u, home_port_[u]});
  plan_move(sim::Hop{home_, sim::Hop::kBack});
}

std::size_t NoWhiteboardAgentB::memory_words() const {
  return sim::ScriptedAgent::memory_words() + blocks_.ids.size() + 16;
}

}  // namespace fnr::core
