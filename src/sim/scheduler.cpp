#include "sim/scheduler.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace fnr::sim {

namespace {

/// The pairwise oracle: does some vertex hold >= `threshold` of the k
/// positions? On success fills the canonical meeting pair — pair_a is the
/// lowest-indexed agent standing on any vertex at the threshold; pair_b is
/// the next agent sharing that vertex, except at threshold == k (all-meet,
/// also Quorum(k)/Fraction(1.0)) where it is the last such agent, i.e.
/// k - 1 — exactly the pre-swarm AnyPair/All conventions, which the golden
/// traces pin. O(k^2); the occupancy path must recover identical values.
bool gathered_threshold(const graph::VertexIndex* pos, std::size_t k,
                        std::uint64_t threshold, std::size_t& pair_a,
                        std::size_t& pair_b) {
  if (threshold > k) return false;  // an unreachable quorum never gathers
  for (std::size_t i = 0; i < k; ++i) {
    // Counting only j >= i is sound: if i is not the lowest index on its
    // vertex, that vertex was already counted fully at its lowest index.
    std::uint64_t count = 1;
    std::size_t second = i, last = i;
    for (std::size_t j = i + 1; j < k; ++j) {
      if (pos[j] != pos[i]) continue;
      ++count;
      if (second == i) second = j;
      last = j;
    }
    if (count >= threshold) {
      pair_a = i;
      pair_b = threshold == k ? last : second;
      return true;
    }
  }
  return false;
}

/// Agents standing on `vertex` (for ScenarioRunResult::gathered_count —
/// both detection paths report the same scan-derived value).
std::uint64_t count_at(const std::vector<graph::VertexIndex>& pos,
                       graph::VertexIndex vertex) {
  std::uint64_t count = 0;
  for (const auto p : pos)
    if (p == vertex) ++count;
  return count;
}

}  // namespace

Placement random_adjacent_placement(const graph::Graph& g, Rng& rng) {
  FNR_CHECK_MSG(g.num_edges() > 0, "graph has no edges to place agents on");
  // A uniform adjacency slot is a uniform directed edge, i.e. a uniform
  // undirected edge with a uniform orientation.
  const auto [u, v] = g.edge_at_slot(rng.below(2 * g.num_edges()));
  return Placement{u, v};
}

Scheduler::Scheduler(const graph::Graph& g, Model model)
    : graph_(g), model_(model), boards_(g.num_vertices()) {}

void Scheduler::ensure_arena(std::size_t k) {
  // The graph at graph_'s address may have been replaced since the last run
  // (SchedulerScratch keys arenas by address); the boards are the only
  // per-graph state the arena holds, so re-size them on a vertex-count
  // change and otherwise just clear them.
  if (boards_.num_vertices() != graph_.num_vertices())
    boards_ = Whiteboards(graph_.num_vertices());
  boards_.clear_all();
  if (views_.size() < k) {
    pos_.reserve(k);
    arrival_port_.resize(k);
    actions_.resize(k);
    run_agents_.resize(k);
    wake_at_.resize(k);
    local_base_.resize(k);
    needs_revive_.resize(k);
    views_.resize(k);
    for (auto& view : views_) {
      // Graph/model bindings never change for this arena; set them once.
      view.model_ = model_;
      view.graph_ = &graph_;
      view.boards_ = model_.whiteboards ? &boards_ : nullptr;
    }
  }
  // pos_ is consumed whole by the gathering predicate, so it must hold
  // exactly k entries; resizing within the reserved capacity never
  // allocates.
  pos_.resize(k);
  std::fill_n(arrival_port_.begin(), k, kNoArrival);
}

void Scheduler::aim_view(std::size_t agent, AgentName name,
                         std::uint64_t local_round, graph::VertexIndex here,
                         std::uint32_t arrival) {
  View& view = views_[agent];
  view.agent_ = name;
  view.round_ = local_round;
  view.here_index_ = here;
  view.here_id_ = graph_.id_of(here);
  view.degree_ = graph_.degree(here);
  if (arrival == kNoArrival)
    view.arrival_port_.reset();
  else
    view.arrival_port_ = arrival;
}

bool Scheduler::occupancy_gathered(std::size_t k, std::uint64_t threshold,
                                   std::size_t& pair_a,
                                   std::size_t& pair_b) const {
  if (at_threshold_ == 0) return false;
  // Recover the canonical pair the pairwise oracle would report: the
  // minimal index satisfying either predicate form is the same agent (the
  // lowest index on a gathered vertex sees its full count).
  pair_a = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (occ_[pos_[i]] >= threshold) {
      pair_a = i;
      break;
    }
  }
  pair_b = pair_a;
  if (threshold == k) {
    pair_b = k - 1;  // all-meet: everyone shares the vertex
  } else {
    for (std::size_t j = pair_a + 1; j < k; ++j) {
      if (pos_[j] == pos_[pair_a]) {
        pair_b = j;
        break;
      }
    }
  }
  return true;
}

void Scheduler::verify_occupancy(std::size_t k, std::uint64_t threshold,
                                 bool met, std::size_t pair_a,
                                 std::size_t pair_b) const {
  std::uint64_t total = 0, at_threshold = 0;
  for (const auto count : occ_) {
    total += count;
    if (count >= threshold) ++at_threshold;
  }
  FNR_CHECK_MSG(total == k, "occupancy self-check: counts sum to "
                                << total << " for " << k << " agents");
  FNR_CHECK_MSG(at_threshold == at_threshold_,
                "occupancy self-check: " << at_threshold
                                         << " vertices at threshold, counter "
                                         << "says " << at_threshold_);
  for (std::size_t i = 0; i < k; ++i)
    FNR_CHECK_MSG(occ_[pos_[i]] >= 1,
                  "occupancy self-check: agent " << i
                                                 << "'s vertex has count 0");
  std::size_t oracle_a = 0, oracle_b = 0;
  const bool oracle_met =
      gathered_threshold(pos_.data(), k, threshold, oracle_a, oracle_b);
  FNR_CHECK_MSG(oracle_met == met, "occupancy self-check: counts say met="
                                       << met << ", the pairwise oracle "
                                       << oracle_met);
  FNR_CHECK_MSG(!met || (oracle_a == pair_a && oracle_b == pair_b),
                "occupancy self-check: counts give pair ("
                    << pair_a << ", " << pair_b << "), the oracle ("
                    << oracle_a << ", " << oracle_b << ")");
}

RunResult Scheduler::run(Agent& agent_a, Agent& agent_b, Placement placement,
                         std::uint64_t max_rounds) {
  // The paper's reliable two-agent model: no wake delays, no fault session.
  Agent* const agents[2] = {&agent_a, &agent_b};
  const graph::VertexIndex starts[2] = {placement.a_start, placement.b_start};
  return run_rounds(agents, starts, {}, Gathering::AnyPair, max_rounds,
                    nullptr, /*until_halted=*/false)
      .to_run_result();
}

RunResult Scheduler::run_single(Agent& agent, graph::VertexIndex start,
                                std::uint64_t max_rounds) {
  // Reliable like run; no partner, so the run ends on halted() or the cap.
  Agent* const agents[1] = {&agent};
  RunResult result = run_rounds(agents, {&start, 1}, {}, Gathering::AnyPair,
                                max_rounds, nullptr, /*until_halted=*/true)
                         .to_run_result();
  result.meeting_vertex = pos_[0];  // final position (no partner to meet)
  return result;
}

ScenarioRunResult Scheduler::run_scenario(const std::vector<Agent*>& agents,
                                          const ScenarioPlacement& placement,
                                          Gathering gathering,
                                          std::uint64_t max_rounds,
                                          fault::FaultSession* faults) {
  const std::size_t k = agents.size();
  FNR_CHECK_MSG(k >= 2, "a scenario needs at least two agents, got " << k);
  FNR_CHECK_MSG(placement.starts.size() == k,
                "placement has " << placement.starts.size() << " starts for "
                                 << k << " agents");
  FNR_CHECK_MSG(
      placement.wake_delays.empty() || placement.wake_delays.size() == k,
      "wake_delays must be empty or one per agent");
  const ScenarioRunResult& result =
      run_rounds(agents, placement.starts, placement.wake_delays, gathering,
                 max_rounds, faults, /*until_halted=*/false);
  FNR_TRACE("scenario finished: " << result.describe());
  return result;
}

const ScenarioRunResult& Scheduler::run_rounds(
    std::span<Agent* const> agents,
    std::span<const graph::VertexIndex> starts,
    std::span<const std::uint64_t> wake_delays, Gathering gathering,
    std::uint64_t max_rounds, fault::FaultSession* faults,
    bool until_halted) {
  const std::size_t k = agents.size();
  for (std::size_t i = 0; i < k; ++i) {
    FNR_CHECK(agents[i] != nullptr);
    FNR_CHECK(starts[i] < graph_.num_vertices());
  }
  // Distinctness via sort-and-compare: the naive pairwise check is O(k^2)
  // and at massive k it dwarfs the run itself (at k = 10^6 it would cost
  // minutes before the first round executes).
  sorted_starts_.assign(starts.begin(), starts.end());
  std::sort(sorted_starts_.begin(), sorted_starts_.end());
  for (std::size_t i = 1; i < k; ++i)
    FNR_CHECK_MSG(sorted_starts_[i] != sorted_starts_[i - 1],
                  "agents must start at distinct vertices");
  ensure_arena(k);

  // Reset every field of the reused result, keeping only the capacity of
  // its agent vector (so a warm run allocates nothing here).
  std::vector<AgentRunStats> agent_stats = std::move(result_.agents);
  result_ = ScenarioRunResult{};
  agent_stats.assign(k, AgentRunStats{});
  result_.agents = std::move(agent_stats);
  ScenarioRunResult& result = result_;

  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t delay = wake_delays.empty() ? 0 : wake_delays[i];
    result.agents[i].wake_delay = delay;
    // The fault-free round loop below is the original loop with wake_at_
    // and local_base_ pre-filled to the wake delay: without a session the
    // per-round residue is exactly one null-check per agent (the
    // allocation-guard and golden contracts are measured in that state).
    run_agents_[i] = agents[i];
    wake_at_[i] = delay;
    local_base_[i] = delay;
    needs_revive_[i] = 0;
    views_[i].faults_ = faults;
  }

  std::copy(starts.begin(), starts.end(), pos_.begin());

  const std::uint64_t threshold = gathering.threshold(k);
  const bool occupancy = use_occupancy(k);
  if (occupancy) {
    if (occ_.size() != graph_.num_vertices()) {
      occ_.assign(graph_.num_vertices(), 0);  // warm-up only
    } else if (occ_dirty_) {
      std::fill(occ_.begin(), occ_.end(), 0);  // a prior run threw mid-flight
    }
    // A clean exit unseeds its own k increments (cheaper than an O(n)
    // clear), so the array is all-zero here and seeding is pure increments.
    occ_dirty_ = true;
    at_threshold_ = 0;
    for (std::size_t i = 0; i < k; ++i)
      if (++occ_[pos_[i]] == threshold) ++at_threshold_;
  }

  const std::uint64_t wb_reads0 = boards_.reads();
  const std::uint64_t wb_writes0 = boards_.writes();

  for (std::uint64_t round = 0; round <= max_rounds; ++round) {
    std::size_t pair_a = 0, pair_b = 0;
    const bool met_now =
        occupancy
            ? occupancy_gathered(k, threshold, pair_a, pair_b)
            : gathered_threshold(pos_.data(), k, threshold, pair_a, pair_b);
    if (self_check_) verify_occupancy(k, threshold, met_now, pair_a, pair_b);
    if (met_now) {
      result.met = true;
      result.meeting_round = round;
      result.meeting_agent_a = pair_a;
      result.meeting_agent_b = pair_b;
      result.meeting_vertex = pos_[pair_a];
      result.gathered_count = count_at(pos_, result.meeting_vertex);
      break;
    }
    if (round == max_rounds) break;  // budget exhausted without gathering
    if (until_halted && run_agents_[0]->halted()) break;  // run_single's end
    result.rounds = round + 1;

    // wb-wipe: one opportunity per round, before anyone observes or acts.
    if (faults != nullptr && faults->reach(fault::Site::WhiteboardWipe)) {
      boards_.clear_all();
      ++faults->stats.wipes;
    }

    for (std::size_t i = 0; i < k; ++i) {
      if (round < wake_at_[i]) {
        actions_[i] = Action::stay();  // asleep or down: present but inert
        continue;
      }
      if (faults != nullptr) {
        if (needs_revive_[i]) {
          // Restart after the downtime: a factory-fresh instance on the
          // crash vertex, local clock back at 0, arrival port forgotten.
          FNR_CHECK_MSG(faults->revive != nullptr,
                        "agent crash fired but the fault session has no "
                        "reviver installed");
          Agent* fresh = faults->revive(i);
          FNR_CHECK_MSG(fresh != nullptr,
                        "fault reviver built no agent for slot " << i);
          run_agents_[i] = fresh;
          needs_revive_[i] = 0;
          local_base_[i] = round;
          arrival_port_[i] = kNoArrival;
          ++faults->stats.restarts;
        }
        if (faults->reach(fault::Site::AgentCrash)) {
          // Crash now: state is lost, the agent is inert for the downtime
          // window and revived on its first round back.
          ++faults->stats.crashes;
          needs_revive_[i] = 1;
          wake_at_[i] = round + faults->crash_downtime();
          actions_[i] = Action::stay();
          continue;
        }
      }
      aim_view(i, i == 0 ? AgentName::A : AgentName::B,
               round - local_base_[i] /* the agent's local clock */, pos_[i],
               arrival_port_[i]);
      actions_[i] = run_agents_[i]->step(views_[i]);
      result.agents[i].peak_memory_words =
          std::max(result.agents[i].peak_memory_words,
                   run_agents_[i]->memory_words());
    }

    // Whiteboard writes happen at the agents' current vertices before the
    // simultaneous movement. Under Gathering::All two co-located agents may
    // both write one board in the same round; writes apply in agent-index
    // order, so the highest-indexed writer wins (deterministic). Under
    // AnyPair co-location ends the run above, so the order is moot.
    for (std::size_t i = 0; i < k; ++i) {
      if (actions_[i].whiteboard_write.has_value()) {
        FNR_CHECK_MSG(model_.whiteboards,
                      "agent wrote a whiteboard in a whiteboard-free model");
        if (faults != nullptr &&
            faults->reach(fault::Site::WhiteboardDrop)) {
          ++faults->stats.writes_dropped;  // the write never lands
        } else {
          boards_.write(pos_[i], *actions_[i].whiteboard_write);
        }
      }
    }

    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t port = actions_[i].move_port;
      if (port == Action::kStay) {
        arrival_port_[i] = kNoArrival;
        continue;
      }
      const graph::VertexIndex from = pos_[i];
      const graph::VertexIndex to = graph_.neighbor_at_port(from, port);
      if (faults != nullptr && faults->churn_armed() &&
          faults->edge_down(round, from, to)) {
        // churn: the traversal fails and the agent holds position, exactly
        // like a stay (it knows it did not move — the arrival port clears).
        ++faults->stats.moves_blocked;
        arrival_port_[i] = kNoArrival;
        continue;
      }
      pos_[i] = to;
      arrival_port_[i] = graph_.reverse_ports(from)[port];
      ++result.agents[i].moves;
      if (occupancy) {
        // Each move is two O(1) count updates; the threshold counter moves
        // only on the exact crossing in either direction.
        if (occ_[from]-- == threshold) --at_threshold_;
        if (++occ_[to] == threshold) ++at_threshold_;
      }
    }
  }

  if (occupancy) {
    // Clean unseed: k decrements restore all-zero counts without touching
    // the other n - k entries, keeping round-loop cost independent of n.
    for (std::size_t i = 0; i < k; ++i) --occ_[pos_[i]];
    at_threshold_ = 0;
    occ_dirty_ = false;
  }

  result.whiteboard_reads = boards_.reads() - wb_reads0;
  result.whiteboard_writes = boards_.writes() - wb_writes0;
  result.whiteboards_used = boards_.used_boards();
  if (faults != nullptr) result.faults = faults->stats;
  return result;
}

Scheduler& SchedulerScratch::scheduler_for(const graph::Graph& g,
                                           Model model) {
  if (!scheduler_ || &scheduler_->graph() != &g ||
      !(scheduler_->model() == model))
    scheduler_.emplace(g, model);
  return *scheduler_;
}

}  // namespace fnr::sim
