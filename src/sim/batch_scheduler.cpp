#include "sim/batch_scheduler.hpp"

#include <algorithm>

namespace fnr::sim {

namespace {

/// Gathering predicate over one trial's position slice — the batched twin
/// of the scalar scheduler's gathered_threshold() (same threshold semantics
/// and canonical-pair selection, so the scalar path stays a bit-exactness
/// oracle for the kernel across every predicate).
bool gathered_slice(const graph::VertexIndex* pos, std::size_t k,
                    std::uint64_t threshold, std::size_t& pair_a,
                    std::size_t& pair_b) {
  if (threshold > k) return false;  // an unreachable quorum never gathers
  for (std::size_t i = 0; i < k; ++i) {
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

/// Agents standing on `vertex` within one trial's slice (gathered_count).
std::uint64_t count_at_slice(const graph::VertexIndex* pos, std::size_t k,
                             graph::VertexIndex vertex) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < k; ++i)
    if (pos[i] == vertex) ++count;
  return count;
}

}  // namespace

BatchScheduler::BatchScheduler(const graph::Graph& g, Model model)
    : graph_(g), model_(model) {}

void BatchScheduler::begin_batch(Gathering gathering) {
  gathering_ = gathering;
  trials_ = 0;
  k_ = 0;
  // Buffers keep their capacity; staged contents are logically dropped.
  agents_.clear();
  pos_.clear();
  arrival_.clear();
  wake_at_.clear();
  caps_.clear();
}

void BatchScheduler::add_trial(const std::vector<Agent*>& agents,
                               const ScenarioPlacement& placement,
                               std::uint64_t max_rounds) {
  const std::size_t k = agents.size();
  FNR_CHECK_MSG(k >= 2, "a scenario needs at least two agents, got " << k);
  FNR_CHECK_MSG(placement.starts.size() == k,
                "placement has " << placement.starts.size() << " starts for "
                                 << k << " agents");
  FNR_CHECK_MSG(
      placement.wake_delays.empty() || placement.wake_delays.size() == k,
      "wake_delays must be empty or one per agent");
  if (trials_ == 0)
    k_ = k;
  else
    FNR_CHECK_MSG(k == k_, "batched trials must share one agent count (got "
                               << k << " after " << k_ << ")");
  for (std::size_t i = 0; i < k; ++i) {
    FNR_CHECK(agents[i] != nullptr);
    FNR_CHECK(placement.starts[i] < graph_.num_vertices());
    for (std::size_t j = i + 1; j < k; ++j)
      FNR_CHECK_MSG(placement.starts[i] != placement.starts[j],
                    "agents must start at distinct vertices");
  }

  const std::size_t t = trials_++;
  for (std::size_t i = 0; i < k; ++i) {
    agents_.push_back(agents[i]);
    pos_.push_back(placement.starts[i]);
    arrival_.push_back(kNoPort);
    wake_at_.push_back(placement.delay_of(i));
  }
  caps_.push_back(max_rounds);
  // A private whiteboard store per trial: lock-stepped trials must not be
  // able to observe each other. Stores are pooled across batches; counters
  // are monotonic (like the scalar arena), so metrics are deltas.
  if (boards_.size() <= t)
    boards_.emplace_back(graph_.num_vertices());
  else if (boards_[t].num_vertices() != graph_.num_vertices())
    boards_[t] = Whiteboards(graph_.num_vertices());  // new graph, same address
  boards_[t].clear_all();
}

std::vector<ScenarioRunResult> BatchScheduler::run() {
  // --- staging prologue: everything that allocates happens here ---
  std::vector<ScenarioRunResult> results(trials_);
  if (trials_ == 0) return results;

  if (views_.size() < k_) {
    views_.resize(k_);
    actions_.resize(k_);
  }
  for (std::size_t i = 0; i < k_; ++i) {
    View& view = views_[i];
    view.model_ = model_;
    view.graph_ = &graph_;
    view.faults_ = nullptr;  // the batch kernel is fault-free by contract
  }

  wb_reads0_.resize(trials_);
  wb_writes0_.resize(trials_);
  live_.resize(trials_);
  for (std::size_t t = 0; t < trials_; ++t) {
    wb_reads0_[t] = boards_[t].reads();
    wb_writes0_[t] = boards_[t].writes();
    live_[t] = static_cast<std::uint32_t>(t);
    results[t].agents.resize(k_);
    for (std::size_t i = 0; i < k_; ++i)
      results[t].agents[i].wake_delay = wake_at_[t * k_ + i];
  }

  const std::uint64_t threshold = gathering_.threshold(k_);

  // --- lock-step round loop: allocation-free from here on ---
  // All trials start at their own round 0, so the global round counter *is*
  // every live trial's local round counter; a trial that ends simply drops
  // out of live_ while the others continue. Within one trial and round the
  // statement order below is exactly Scheduler::run_scenario's fault-free
  // sequence, which is what makes the scalar path a bit-exactness oracle.
  for (std::uint64_t round = 0; !live_.empty(); ++round) {
    std::size_t keep = 0;
    for (std::size_t li = 0; li < live_.size(); ++li) {
      const std::uint32_t t = live_[li];
      ScenarioRunResult& res = results[t];
      const std::size_t base = static_cast<std::size_t>(t) * k_;

      if (gathered_slice(pos_.data() + base, k_, threshold,
                         res.meeting_agent_a, res.meeting_agent_b)) {
        res.met = true;
        res.meeting_round = round;
        res.meeting_vertex = pos_[base + res.meeting_agent_a];
        res.gathered_count =
            count_at_slice(pos_.data() + base, k_, res.meeting_vertex);
        continue;  // finished: not kept in live_
      }
      if (round == caps_[t]) continue;  // budget exhausted without gathering
      res.rounds = round + 1;

      Whiteboards& boards = boards_[t];
      for (std::size_t i = 0; i < k_; ++i) {
        if (round < wake_at_[base + i]) {
          actions_[i] = Action::stay();  // asleep: present but inert
          continue;
        }
        View& view = views_[i];
        const graph::VertexIndex here = pos_[base + i];
        view.agent_ = i == 0 ? AgentName::A : AgentName::B;
        view.round_ = round - wake_at_[base + i];  // the agent's local clock
        view.here_index_ = here;
        view.here_id_ = graph_.id_of(here);
        view.degree_ = graph_.degree(here);
        view.boards_ = model_.whiteboards ? &boards : nullptr;
        if (arrival_[base + i] == kNoPort)
          view.arrival_port_.reset();
        else
          view.arrival_port_ = arrival_[base + i];
        actions_[i] = agents_[base + i]->step(view);
        res.agents[i].peak_memory_words =
            std::max(res.agents[i].peak_memory_words,
                     agents_[base + i]->memory_words());
      }

      // Writes land in agent-index order at current vertices, before the
      // simultaneous movement (same tie-break as the scalar scheduler).
      for (std::size_t i = 0; i < k_; ++i) {
        if (actions_[i].whiteboard_write.has_value()) {
          FNR_CHECK_MSG(model_.whiteboards,
                        "agent wrote a whiteboard in a whiteboard-free model");
          boards.write(pos_[base + i], *actions_[i].whiteboard_write);
        }
      }

      for (std::size_t i = 0; i < k_; ++i) {
        const std::size_t port = actions_[i].move_port;
        if (port == Action::kStay) {
          arrival_[base + i] = kNoPort;
          continue;
        }
        const graph::VertexIndex from = pos_[base + i];
        const graph::VertexIndex to = graph_.neighbor_at_port(from, port);
        pos_[base + i] = to;
        // Precomputed port_to(to, from): one load instead of a binary
        // search over to's neighbor list.
        arrival_[base + i] = graph_.reverse_ports(from)[port];
        ++res.agents[i].moves;
      }
      live_[keep++] = t;  // still running next round
    }
    live_.resize(keep);
  }

  for (std::size_t t = 0; t < trials_; ++t) {
    results[t].whiteboard_reads = boards_[t].reads() - wb_reads0_[t];
    results[t].whiteboard_writes = boards_[t].writes() - wb_writes0_[t];
    results[t].whiteboards_used = boards_[t].used_boards();
  }
  return results;
}

BatchScheduler& BatchSchedulerScratch::kernel_for(const graph::Graph& g,
                                                  Model model) {
  if (!kernel_ || &kernel_->graph() != &g || !(kernel_->model() == model))
    kernel_.emplace(g, model);
  return *kernel_;
}

}  // namespace fnr::sim
