// Run-level measurements reported by the Scheduler.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "graph/graph.hpp"
#include "sim/model.hpp"

namespace fnr::sim {

/// Resource counters of one two-agent run (the paper's cost measures).
struct Metrics {
  std::uint64_t rounds = 0;                ///< rounds executed before meeting
  std::array<std::uint64_t, 2> moves{};    ///< edge traversals per agent
  std::uint64_t whiteboard_reads = 0;      ///< board reads during the run
  std::uint64_t whiteboard_writes = 0;     ///< board writes during the run
  std::size_t whiteboards_used = 0;        ///< boards that ever held a value
  std::array<std::size_t, 2> peak_memory_words{};  ///< max Agent::memory_words

  /// This agent's edge-traversal count.
  [[nodiscard]] std::uint64_t moves_of(AgentName name) const noexcept {
    return moves[static_cast<std::size_t>(name)];
  }
};

/// Outcome of one simulated run.
struct RunResult {
  bool met = false;
  /// Round at which rendezvous completed (both agents at one vertex at the
  /// beginning of that round); only meaningful when met.
  std::uint64_t meeting_round = 0;
  graph::VertexIndex meeting_vertex = graph::kNoVertex;
  Metrics metrics;

  /// One-line human-readable outcome summary (for traces and examples).
  [[nodiscard]] std::string describe() const;
};

/// Per-agent measurements of a k-agent scenario run.
struct AgentRunStats {
  std::uint64_t wake_delay = 0;  ///< rounds the agent slept before starting
  std::uint64_t moves = 0;       ///< edge traversals
  std::size_t peak_memory_words = 0;
};

/// Outcome of one k-agent scenario run (Scheduler::run_scenario). The
/// two-agent RunResult is the k=2 projection (see to_run_result).
struct ScenarioRunResult {
  bool met = false;
  /// Round at which the gathering predicate first held (beginning-of-round
  /// convention, as in the two-agent case); only meaningful when met.
  std::uint64_t meeting_round = 0;
  graph::VertexIndex meeting_vertex = graph::kNoVertex;
  /// Lexicographically first co-located pair of agent indices when met
  /// (0 and k-1 under Gathering::All, where everyone is co-located).
  std::size_t meeting_agent_a = 0;
  std::size_t meeting_agent_b = 0;
  /// Agents standing on meeting_vertex at the meeting round (>= the
  /// predicate's threshold when met; 0 otherwise). Under AnyPair this is
  /// the co-location size — 2 unless more agents collided at once — and
  /// under All it is k.
  std::uint64_t gathered_count = 0;
  std::uint64_t rounds = 0;  ///< rounds executed before gathering/cap
  std::uint64_t whiteboard_reads = 0;
  std::uint64_t whiteboard_writes = 0;
  std::size_t whiteboards_used = 0;
  /// Faults that fired during the run (all-zero without a fault session).
  fault::FaultStats faults;
  std::vector<AgentRunStats> agents;  ///< size k, indexed by agent

  /// Projects a k=2 scenario result onto the classic two-agent RunResult
  /// (a k=1 result too, with agent b's counters at 0). Requires
  /// agents.size() to be 1 or 2.
  [[nodiscard]] RunResult to_run_result() const;

  /// One-line human-readable outcome summary (for traces and examples).
  [[nodiscard]] std::string describe() const;
};

}  // namespace fnr::sim
