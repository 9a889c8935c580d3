// Smoke test: every Strategy succeeds within its automatic round cap on a
// small dense graph, both one-at-a-time and through the trial entry point.
#include <gtest/gtest.h>

#include "test_support.hpp"

namespace fnr::core {
namespace {

constexpr std::uint64_t kTrials = 5;

class StrategySmoke : public ::testing::TestWithParam<Strategy> {};

TEST_P(StrategySmoke, FiveTrialsSucceedWithinAutoCap) {
  // δ ≈ n^0.75 near-regular: comfortably inside the (z, α, β)-dense regime
  // both upper-bound theorems assume.
  const auto g = test::dense_graph(160, 91);
  const auto cap = auto_round_cap(g, GetParam(), Params::practical());
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const auto report = test::quick_run(g, GetParam(), 6000 + trial);
    EXPECT_TRUE(report.run.met)
        << to_string(GetParam()) << " trial " << trial << " failed";
    EXPECT_LE(report.run.meeting_round, cap);
    EXPECT_EQ(report.round_cap, cap);
  }
}

TEST_P(StrategySmoke, RunTrialsAllSucceed) {
  const auto g = test::dense_graph(160, 91);
  RendezvousOptions options;
  options.seed = 77;
  const auto agg =
      run_trials(GetParam(), g, options, kTrials, /*threads=*/2).aggregate();
  EXPECT_EQ(agg.trials, kTrials);
  EXPECT_EQ(agg.successes, kTrials) << to_string(GetParam());
  EXPECT_EQ(agg.failures, 0u);
  EXPECT_EQ(agg.success_rate, 1.0);
  EXPECT_GT(agg.rounds.max, 0.0);
  if (GetParam() == Strategy::NoWhiteboard) {
    EXPECT_EQ(agg.total_marks, 0u);  // no whiteboards, no marks
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategySmoke,
                         ::testing::Values(Strategy::Whiteboard,
                                           Strategy::WhiteboardDoubling,
                                           Strategy::NoWhiteboard),
                         [](const auto& info) {
                           switch (info.param) {
                             case Strategy::Whiteboard: return "Whiteboard";
                             case Strategy::WhiteboardDoubling:
                               return "WhiteboardDoubling";
                             case Strategy::NoWhiteboard:
                               return "NoWhiteboard";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace fnr::core
