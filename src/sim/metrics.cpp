#include "sim/metrics.hpp"

#include <sstream>

namespace fnr::sim {

std::string RunResult::describe() const {
  std::ostringstream os;
  if (met) {
    os << "met at round " << meeting_round << " on vertex " << meeting_vertex;
  } else {
    os << "did not meet within " << metrics.rounds << " rounds";
  }
  os << " (moves a=" << metrics.moves[0] << ", b=" << metrics.moves[1]
     << ", wb writes=" << metrics.whiteboard_writes << ")";
  return os.str();
}

RunResult ScenarioRunResult::to_run_result() const {
  FNR_CHECK_MSG(agents.size() == 1 || agents.size() == 2,
                "to_run_result() projects one or two agents, got "
                    << agents.size());
  const AgentRunStats b = agents.size() == 2 ? agents[1] : AgentRunStats{};
  RunResult out;
  out.met = met;
  out.meeting_round = meeting_round;
  out.meeting_vertex = meeting_vertex;
  out.metrics.rounds = rounds;
  out.metrics.moves = {agents[0].moves, b.moves};
  out.metrics.peak_memory_words = {agents[0].peak_memory_words,
                                   b.peak_memory_words};
  out.metrics.whiteboard_reads = whiteboard_reads;
  out.metrics.whiteboard_writes = whiteboard_writes;
  out.metrics.whiteboards_used = whiteboards_used;
  return out;
}

std::string ScenarioRunResult::describe() const {
  std::ostringstream os;
  if (met) {
    os << "gathered at round " << meeting_round << " on vertex "
       << meeting_vertex << " (first pair " << meeting_agent_a << ", "
       << meeting_agent_b << "; " << gathered_count << " co-located)";
  } else {
    os << "did not gather within " << rounds << " rounds";
  }
  std::uint64_t total_moves = 0;
  for (const auto& agent : agents) total_moves += agent.moves;
  os << "; " << agents.size() << " agents, " << total_moves
     << " total moves, wb writes=" << whiteboard_writes;
  return os.str();
}

}  // namespace fnr::sim
