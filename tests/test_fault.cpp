// The fault & churn engine: plan parsing and canonical keys, per-site
// skip/count reach semantics, each fault family's observable effect on a
// run, and the determinism contracts — a rate-0 (or absent) plan is
// bit-identical to the fault-free path, faulty aggregates are identical
// across thread counts, and a fault-axis sweep campaign survives
// interrupt/resume and shard merges byte-for-byte.
#include "fault/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "graph/generators.hpp"
#include "scenario/run.hpp"
#include "sim/scheduler.hpp"
#include "sim/view.hpp"
#include "sweep/spec.hpp"
#include "test_support.hpp"
#include "util/check.hpp"

namespace fnr {
namespace {

using test::bits_equal;

// --- plan parsing ------------------------------------------------------------

TEST(FaultPlan, ParsesCanonicalKeysAndRoundTrips) {
  EXPECT_FALSE(fault::FaultPlan::parse("none").active());
  EXPECT_EQ(fault::FaultPlan::parse("none").key(), "");
  EXPECT_FALSE(fault::FaultPlan().active());

  const auto crash = fault::FaultPlan::parse("crash?rate=0.05&downtime=4");
  EXPECT_TRUE(crash.active());
  EXPECT_EQ(crash.key(), "crash?downtime=4&rate=0.05");  // name-sorted
  EXPECT_TRUE(crash.spec(fault::Site::AgentCrash).armed);
  EXPECT_DOUBLE_EQ(crash.spec(fault::Site::AgentCrash).rate, 0.05);
  EXPECT_EQ(crash.spec(fault::Site::AgentCrash).downtime, 4u);
  EXPECT_FALSE(crash.whiteboard_only());

  // A bare family arms with defaults; combined clauses keep Site order.
  const auto combo = fault::FaultPlan::parse("churn?rate=0.5+wb-drop");
  EXPECT_EQ(combo.key(), "wb-drop+churn?rate=0.5");
  EXPECT_TRUE(combo.spec(fault::Site::WhiteboardDrop).armed);
  EXPECT_TRUE(combo.spec(fault::Site::EdgeChurn).armed);
  EXPECT_FALSE(combo.spec(fault::Site::WhiteboardWipe).armed);

  // key() is a valid spec: parsing it back yields the same key.
  for (const char* spec :
       {"crash?rate=0.01", "wb-drop?rate=0.2&skip=3&count=2",
        "wb-stale?rate=1+wb-wipe?rate=0.25", "churn?count=8&rate=0.1&skip=16"})
    EXPECT_EQ(fault::FaultPlan::parse(fault::FaultPlan::parse(spec).key()).key(),
              fault::FaultPlan::parse(spec).key())
        << spec;

  EXPECT_TRUE(fault::FaultPlan::parse("wb-drop+wb-wipe+wb-stale")
                  .whiteboard_only());
  EXPECT_FALSE(fault::FaultPlan::parse("wb-drop+crash").whiteboard_only());
  EXPECT_FALSE(fault::FaultPlan().whiteboard_only());
}

TEST(FaultPlan, RejectsMalformedSpecsNamingTheFamilies) {
  // Unknown family errors enumerate the valid set, like program labels do.
  try {
    (void)fault::FaultPlan::parse("meteor?rate=0.5");
    FAIL() << "unknown family must throw";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("meteor"), std::string::npos) << what;
    EXPECT_NE(what.find("wb-drop"), std::string::npos) << what;
    EXPECT_NE(what.find("churn"), std::string::npos) << what;
  }
  EXPECT_THROW((void)fault::FaultPlan::parse(""), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("?rate=0.5"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?rate=0.5&"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?rate"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?=0.5"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?rate=0.1&rate=0.2"),
               CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?bogus=1"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("wb-drop?downtime=4"),
               CheckError);  // downtime is crash-only
  EXPECT_THROW((void)fault::FaultPlan::parse("crash+"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("none+crash"), CheckError);
  // Values are range- and finiteness-checked.
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?rate=nan"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?rate=inf"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?rate=1.5"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?rate=-0.1"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?downtime=0"), CheckError);
  EXPECT_THROW((void)fault::FaultPlan::parse("crash?skip=1.5"), CheckError);
}

// --- session reach / churn semantics ----------------------------------------

TEST(FaultSession, SkipAndCountDelimitTheFireWindow) {
  // rate=1 fires deterministically; skip=3 passes the first three
  // opportunities through, count=2 caps the fires.
  auto plan = fault::FaultPlan::parse("wb-drop?rate=1&skip=3&count=2");
  fault::FaultSession session(plan, Rng(42, 1));
  int fires = 0;
  for (int i = 0; i < 10; ++i)
    if (session.reach(fault::Site::WhiteboardDrop)) ++fires;
  EXPECT_EQ(fires, 2);
  // An unarmed site never fires and never draws.
  EXPECT_FALSE(session.reach(fault::Site::AgentCrash));
}

TEST(FaultSession, ChurnMaskIsSymmetricStatelessAndWindowed) {
  const auto plan = fault::FaultPlan::parse("churn?rate=0.5&skip=4&count=8");
  const fault::FaultSession session(plan, Rng(7, 2));
  int down = 0;
  for (std::uint64_t round = 4; round < 12; ++round)
    for (graph::VertexIndex u = 0; u < 12; ++u)
      for (graph::VertexIndex v = u + 1; v < 12; ++v) {
        const bool d = session.edge_down(round, u, v);
        EXPECT_EQ(d, session.edge_down(round, v, u));    // symmetric
        EXPECT_EQ(d, session.edge_down(round, u, v));    // stateless
        if (d) ++down;
      }
  EXPECT_GT(down, 0);
  // Outside the [skip, skip+count) round window every edge is up.
  for (graph::VertexIndex v = 1; v < 12; ++v) {
    EXPECT_FALSE(session.edge_down(3, 0, v));
    EXPECT_FALSE(session.edge_down(12, 0, v));
  }
  // Two sessions with different seeds disagree somewhere (seed reaches the
  // hash); the same seed replays the same mask.
  const fault::FaultSession twin(plan, Rng(7, 2));
  const fault::FaultSession other(plan, Rng(8, 2));
  int twin_agree = 0, other_agree = 0, total = 0;
  for (graph::VertexIndex v = 1; v < 40; ++v) {
    ++total;
    if (session.edge_down(6, 0, v) == twin.edge_down(6, 0, v)) ++twin_agree;
    if (session.edge_down(6, 0, v) == other.edge_down(6, 0, v)) ++other_agree;
  }
  EXPECT_EQ(twin_agree, total);
  EXPECT_LT(other_agree, total);
}

// --- fault families through the scenario layer -------------------------------

scenario::ScenarioOptions options_with(const std::string& fault_spec,
                                       std::uint64_t seed = 5) {
  scenario::ScenarioOptions options;
  options.seed = seed;
  options.fault = fault::FaultPlan::parse(fault_spec);
  return options;
}

runner::TrialAggregate run_whiteboard_trials(
    const scenario::ScenarioOptions& options, const graph::Graph& g,
    std::uint64_t trials = 16, unsigned threads = 1) {
  const auto program = scenario::find_program("whiteboard");
  const auto& scen = scenario::find_scenario("sync-pair");
  const runner::TrialRunner trial_runner(runner::RunnerOptions{threads});
  return scenario::run_scenario_trials(scen, program, g, options, trials,
                                       trial_runner)
      .aggregate();
}

TEST(FaultScenario, RateZeroPlanIsBitExactToTheFaultFreePath) {
  // An armed-but-rate-0 plan takes the faulty code path (session built,
  // null checks taken) yet must not perturb a single byte of the result:
  // reach() never draws at rate 0, and the session RNG splits off *after*
  // the agent streams.
  const auto g = test::dense_graph(64, 9, 8);
  const auto fault_free = run_whiteboard_trials(options_with("none"), g);
  const auto zero_rate =
      run_whiteboard_trials(options_with("crash?rate=0"), g);
  EXPECT_TRUE(bits_equal(fault_free, zero_rate));
  EXPECT_FALSE(fault_free.fault_totals.any());
  EXPECT_EQ(fault_free.to_json(), zero_rate.to_json());
  EXPECT_EQ(fault_free.to_json().find("\"faults\""), std::string::npos);
}

TEST(FaultScenario, CrashLosesStateAndRestartsAfterDowntime) {
  const auto g = test::dense_graph(64, 9, 8);
  // rate=1&count=1 crashes agent 0 at its very first opportunity (round 0,
  // before anything can meet), so every trial records exactly one crash.
  const auto agg = run_whiteboard_trials(
      options_with("crash?rate=1&count=1&downtime=2"), g);
  EXPECT_EQ(agg.fault_totals.crashes, 16u);  // one per trial (count=1)
  EXPECT_GT(agg.fault_totals.restarts, 0u);
  EXPECT_LE(agg.fault_totals.restarts, agg.fault_totals.crashes);
  // The aggregate records the injections in its JSON for the sweep report.
  EXPECT_NE(agg.to_json().find("\"faults\""), std::string::npos);
}

/// Live and peak instance counts of CountedSitter (single-threaded use).
std::size_t g_live_sitters = 0;
std::size_t g_peak_sitters = 0;

class CountedSitter final : public sim::Agent {
 public:
  CountedSitter() {
    g_peak_sitters = std::max(g_peak_sitters, ++g_live_sitters);
  }
  ~CountedSitter() override { --g_live_sitters; }
  sim::Action step(const sim::View&) override { return sim::Action::stay(); }
};

TEST(FaultScenario, CrashRevivalsKeepAtMostTwoInstancesPerSlot) {
  // Each revival replaces the slot's previous revived instance, so a long
  // crash-heavy run holds the k originals plus at most k revivals — not
  // one instance per crash.
  if (!scenario::has_program("test-counted-sitter")) {
    scenario::ProgramDef def;
    def.label = "test-counted-sitter";
    def.description = "registered by the test suite: counts live agents";
    def.paper_ref = "test";
    def.caps.supports_multi_agent = true;
    def.symmetric =
        [](scenario::AgentBuild&) -> std::unique_ptr<sim::Agent> {
      return std::make_unique<CountedSitter>();
    };
    def.round_cap = [](const graph::Graph&, const core::Params&) {
      return std::uint64_t{64};
    };
    scenario::register_program(def);
  }
  scenario::Scenario crowd;
  crowd.name = "counted-crowd";
  crowd.num_agents = 4;
  crowd.placement = scenario::PlacementModel::RandomDistinct;
  const auto g = graph::make_ring(16);
  sim::ScenarioPlacement placement;
  placement.starts = {0, 4, 8, 12};  // sitters never gather
  auto options = options_with("crash?rate=0.5&downtime=1", 3);
  options.max_rounds = 2000;
  g_live_sitters = g_peak_sitters = 0;
  const auto program = scenario::find_program("test-counted-sitter");
  const auto report =
      scenario::run_scenario(crowd, program, g, placement, options);
  EXPECT_FALSE(report.run.met);
  EXPECT_GT(report.run.faults.restarts, 100u);
  EXPECT_LE(g_peak_sitters, 2 * crowd.num_agents);
  EXPECT_EQ(g_live_sitters, 0u);  // every instance freed with the run
}

TEST(FaultScenario, CrashWithoutReviverIsACheckError) {
  // The Scheduler only swaps pointers; arming crash without installing a
  // reviver (possible when driving the Scheduler directly) must fail loudly
  // rather than re-running a dead agent.
  const auto g = test::dense_graph(16, 3, 4);
  sim::Scheduler scheduler(g, sim::Model::full());
  auto plan = fault::FaultPlan::parse("crash?rate=1&downtime=1");
  fault::FaultSession session(plan, Rng(1, 2));
  class Pacer final : public sim::Agent {
   public:
    sim::Action step(const sim::View&) override {
      return sim::Action::move(0);
    }
  };
  Pacer a, b;
  sim::ScenarioPlacement placement;
  placement.starts = {0, 1};
  EXPECT_THROW((void)scheduler.run_scenario({&a, &b}, placement,
                                            sim::Gathering::AnyPair, 50,
                                            &session),
               CheckError);
}

TEST(FaultScenario, WhiteboardDropsWipesAndStaleReadsBite) {
  const auto g = test::dense_graph(64, 9, 8);

  // rate=1 drop: no write ever lands — the store's write counter stays 0.
  const auto dropped = run_whiteboard_trials(options_with("wb-drop?rate=1"), g);
  EXPECT_GT(dropped.fault_totals.writes_dropped, 0u);
  EXPECT_EQ(dropped.total_marks, 0u);

  // Wipes erase the store every round (one opportunity per round).
  const auto wiped = run_whiteboard_trials(options_with("wb-wipe?rate=1"), g);
  EXPECT_GT(wiped.fault_totals.wipes, 0u);

  // A fault-free control on the same cells sees none of the counters move.
  const auto control = run_whiteboard_trials(options_with("none"), g);
  EXPECT_FALSE(control.fault_totals.any());
  EXPECT_GT(control.total_marks, 0u);
}

TEST(FaultScenario, StaleReadsObserveBottomOverAStoredValue) {
  // Driven at the scheduler layer with a write-then-read agent, because the
  // registry's whiteboard program can meet positionally before it ever
  // reads a marked board. The fault only fires where a value is stored:
  // reads of genuinely empty boards are not counted as stale.
  class WriteThenRead final : public sim::Agent {
   public:
    std::uint64_t saw_value = 0;
    std::uint64_t saw_bottom = 0;
    sim::Action step(const sim::View& view) override {
      if (view.round() == 0) {
        sim::Action a = sim::Action::stay();
        a.whiteboard_write = 7;
        return a;
      }
      if (view.whiteboard().has_value())
        ++saw_value;
      else
        ++saw_bottom;
      return sim::Action::stay();
    }
  };
  const auto g = test::dense_graph(16, 3, 4);
  sim::ScenarioPlacement placement;
  placement.starts = {0, 5};  // both camp on their own vertex: never meet

  sim::Scheduler scheduler(g, sim::Model::full());
  auto plan = fault::FaultPlan::parse("wb-stale?rate=1");
  fault::FaultSession session(plan, Rng(3, 4));
  WriteThenRead a, b;
  const auto faulty = scheduler.run_scenario(
      {&a, &b}, placement, sim::Gathering::AnyPair, 5, &session);
  EXPECT_EQ(a.saw_value + b.saw_value, 0u);
  EXPECT_GT(faulty.faults.stale_reads, 0u);
  EXPECT_EQ(faulty.faults.stale_reads, a.saw_bottom + b.saw_bottom);

  // The same run without the session reads the value back every time.
  WriteThenRead c, d;
  const auto clean = scheduler.run_scenario(
      {&c, &d}, placement, sim::Gathering::AnyPair, 5);
  EXPECT_EQ(c.saw_bottom + d.saw_bottom, 0u);
  EXPECT_GT(c.saw_value + d.saw_value, 0u);
  EXPECT_FALSE(clean.faults.any());
}

TEST(FaultScenario, FullChurnFreezesEveryMove) {
  // rate=1 churn: every edge is down every round, so no agent ever moves
  // and the pair cannot meet (they start on distinct vertices).
  const auto g = test::dense_graph(32, 4, 6);
  scenario::ScenarioOptions options = options_with("churn?rate=1");
  options.max_rounds = 40;
  const auto agg = run_whiteboard_trials(options, g, 8);
  EXPECT_EQ(agg.successes, 0u);
  EXPECT_GT(agg.fault_totals.moves_blocked, 0u);
  EXPECT_DOUBLE_EQ(agg.mean_moves_a + agg.mean_moves_b, 0.0);
}

TEST(FaultScenario, FaultyAggregatesAreThreadCountInvariant) {
  const auto g = test::dense_graph(64, 9, 8);
  const auto options =
      options_with("crash?rate=0.2&downtime=2+wb-drop?rate=0.3", 11);
  const auto one = run_whiteboard_trials(options, g, 24, 1);
  const auto four = run_whiteboard_trials(options, g, 24, 4);
  EXPECT_TRUE(bits_equal(one, four));
  EXPECT_EQ(one.to_json(), four.to_json());
  EXPECT_TRUE(one.fault_totals.any());
}

// --- sweep integration -------------------------------------------------------

constexpr const char* kFaultSweepSpec = R"(
name       = fault-tiny
trials     = 2
programs   = whiteboard
scenarios  = sync-pair
topologies = near-regular:deg=4
sizes      = 16, 32
seeds      = 1
faults     = none, crash?rate=0.2&downtime=2, wb-drop?rate=0.5
)";

/// RAII temp file path (removed on destruction).
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_(testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

TEST(FaultSweep, FaultAxisExpandsInnermostWithSuffixedKeys) {
  const auto spec = sweep::parse_spec(kFaultSweepSpec);
  ASSERT_EQ(spec.faults.size(), 3u);
  const auto grid = sweep::expand(spec);
  ASSERT_EQ(grid.size(), 6u);  // 2 sizes x 3 plans
  // Fault-free cells keep their pre-fault-axis keys; faulty cells append
  // the canonical plan key.
  EXPECT_EQ(grid[0].key().find("|fault="), std::string::npos);
  EXPECT_NE(grid[1].key().find("|fault=crash?downtime=2&rate=0.2"),
            std::string::npos);
  EXPECT_NE(grid[2].key().find("|fault=wb-drop?rate=0.5"), std::string::npos);
  std::set<std::string> keys;
  for (const auto& cell : grid) keys.insert(cell.key());
  EXPECT_EQ(keys.size(), grid.size());

  // A spec without the axis expands to the identical fault-free grid.
  const auto plain = sweep::parse_spec(
      "name = fault-tiny\ntrials = 2\nprograms = whiteboard\n"
      "scenarios = sync-pair\ntopologies = near-regular:deg=4\n"
      "sizes = 16, 32\nseeds = 1\n");
  const auto plain_grid = sweep::expand(plain);
  ASSERT_EQ(plain_grid.size(), 2u);
  EXPECT_EQ(plain_grid[0].key(), grid[0].key());
  EXPECT_EQ(plain_grid[1].key(), grid[3].key());
}

TEST(FaultSweep, WhiteboardOnlyPlansArePrunedOffWhiteboardFreeModels) {
  const auto spec = sweep::parse_spec(
      "name = prune\ntrials = 1\nprograms = no-whiteboard\n"
      "scenarios = sync-pair\ntopologies = near-regular:deg=4\n"
      "sizes = 64\nseeds = 1\n"
      "faults = none, wb-drop?rate=0.5, churn?rate=0.1\n");
  const auto grid = sweep::expand(spec);
  ASSERT_EQ(grid.size(), 2u);  // wb-drop pruned; none + churn remain
  EXPECT_FALSE(grid[0].fault.active());
  EXPECT_TRUE(grid[1].fault.spec(fault::Site::EdgeChurn).armed);
}

TEST(FaultSweep, BadFaultTokenNamesTheSpecLine) {
  try {
    (void)sweep::parse_spec("name = bad\ntrials = 1\nprograms = whiteboard\n"
                            "scenarios = sync-pair\ntopologies = ring\n"
                            "sizes = 16\nseeds = 1\n"
                            "faults = crash?rate=nan\n");
    FAIL() << "non-finite fault rate must throw";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 8"), std::string::npos) << what;
    EXPECT_NE(what.find("finite"), std::string::npos) << what;
  }
}

TEST(FaultSweep, MissingTwinEmitsNoVsFaultFreeBlock) {
  // A shard (or a truncated merge) can hold a faulty cell whose fault-free
  // twin lives elsewhere; its report entry must then simply carry no
  // vs_fault_free block — not deltas computed against a fabricated control.
  const auto spec = sweep::parse_spec(kFaultSweepSpec);
  const auto full = campaign::Campaign(spec, campaign::CampaignOptions{}).run();
  ASSERT_TRUE(full.complete);
  EXPECT_NE(campaign::to_json(spec, full.cells).find("\"vs_fault_free\""),
            std::string::npos);

  // Split the campaign the worst way: every faulty cell in one "shard",
  // every control twin in the other.
  std::vector<campaign::CellResult> faulty_only;
  std::vector<campaign::CellResult> controls_only;
  for (const auto& cell : full.cells)
    (cell.cell.fault.active() ? faulty_only : controls_only).push_back(cell);
  ASSERT_FALSE(faulty_only.empty());
  ASSERT_FALSE(controls_only.empty());

  const std::string orphaned = campaign::to_json(spec, faulty_only);
  EXPECT_EQ(orphaned.find("\"vs_fault_free\""), std::string::npos);
  // The cells themselves are intact — only the comparison block is gone.
  EXPECT_NE(orphaned.find("\"fault\":\"crash?downtime=2&rate=0.2\""),
            std::string::npos);
  EXPECT_NE(orphaned.find("\"agg\""), std::string::npos);
  EXPECT_EQ(campaign::to_json(spec, controls_only).find("\"vs_fault_free\""),
            std::string::npos);
}

TEST(FaultSweep, InterruptedResumedAndShardedCampaignsMatchByteForByte) {
  const auto spec = sweep::parse_spec(kFaultSweepSpec);

  campaign::CampaignOptions uninterrupted;
  uninterrupted.threads = 2;
  const auto full = campaign::Campaign(spec, uninterrupted).run();
  ASSERT_TRUE(full.complete);
  const std::string full_json = campaign::to_json(spec, full.cells);
  // Faulty cells carry the plan key and robustness deltas vs their twin.
  EXPECT_NE(full_json.find("\"fault\":\"crash?downtime=2&rate=0.2\""),
            std::string::npos);
  EXPECT_NE(full_json.find("\"vs_fault_free\""), std::string::npos);
  EXPECT_NE(full_json.find("\"rounds_overhead\""), std::string::npos);
  EXPECT_NE(full_json.find("\"success_drop\""), std::string::npos);

  // Kill after 2 cells, then resume with a different thread count.
  const TempPath checkpoint("fault_sweep_resume.jsonl");
  campaign::CampaignOptions interrupted;
  interrupted.threads = 2;
  interrupted.checkpoint_path = checkpoint.str();
  interrupted.max_cells = 2;
  ASSERT_FALSE(campaign::Campaign(spec, interrupted).run().complete);
  campaign::CampaignOptions resumed = interrupted;
  resumed.threads = 1;
  resumed.max_cells = 0;
  resumed.resume = true;
  const auto finished = campaign::Campaign(spec, resumed).run();
  ASSERT_TRUE(finished.complete);
  EXPECT_EQ(campaign::to_json(spec, finished.cells), full_json);

  // Two shards merged cover the same campaign byte-for-byte.
  const TempPath ckpt0("fault_sweep_shard0.jsonl");
  const TempPath ckpt1("fault_sweep_shard1.jsonl");
  std::vector<std::map<std::string, campaign::CheckpointEntry>> checkpoints;
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    campaign::CampaignOptions options;
    options.threads = 1;
    options.shard_index = shard;
    options.shard_count = 2;
    options.checkpoint_path = shard == 0 ? ckpt0.str() : ckpt1.str();
    ASSERT_TRUE(campaign::Campaign(spec, options).run().complete);
    checkpoints.push_back(campaign::load_checkpoint(options.checkpoint_path));
  }
  const auto merged = campaign::results_from_checkpoints(spec, checkpoints);
  EXPECT_EQ(campaign::to_json(spec, merged), full_json);
}

}  // namespace
}  // namespace fnr
