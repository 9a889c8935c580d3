// Sweep contract tests: spec parsing, grid expansion, sharding, graph
// caching, checkpoint round-trips, and the headline determinism guarantee —
// an interrupted-then-resumed campaign produces byte-identical merged JSON
// to an uninterrupted one, at any thread count (the CI smoke asserts the
// same thing through the bench/sweep CLI).
#include "sweep/spec.hpp"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "util/check.hpp"

namespace fnr::sweep {
namespace {

using namespace campaign;

constexpr const char* kTinySpec = R"(
# two programs x one scenario x two topologies x two sizes
name       = tiny
trials     = 2
programs   = whiteboard, random-walk
scenarios  = sync-pair
topologies = ring, near-regular:deg=4
sizes      = 16, 32
seeds      = 1
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

TEST(SweepSpec, ParsesAllAxes) {
  const SweepSpec spec = parse_spec(kTinySpec);
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.trials, 2u);
  EXPECT_EQ(spec.programs.size(), 2u);
  EXPECT_EQ(spec.scenarios, std::vector<std::string>{"sync-pair"});
  ASSERT_EQ(spec.topologies.size(), 2u);
  EXPECT_EQ(spec.topologies[0].key(), "ring");
  EXPECT_EQ(spec.topologies[1].key(), "near-regular:deg=4");
  EXPECT_EQ(spec.sizes, (std::vector<std::uint64_t>{16, 32}));
  EXPECT_EQ(spec.seeds, std::vector<std::uint64_t>{1});
}

TEST(SweepSpec, GatherAxisParsesPrunesAndKeysCells) {
  // The `gathers` axis crosses predicate overrides into the grid.
  // swarm-gather has k = 5, so the unreachable quorum?q=9 column must
  // prune (q > k expands to no cells), and every overridden cell's key
  // must carry its gather token so checkpoints distinguish the columns.
  const SweepSpec spec = parse_spec(
      "name       = gather-axis\n"
      "trials     = 1\n"
      "programs   = explore-rally\n"
      "scenarios  = swarm-gather\n"
      "topologies = ring\n"
      "sizes      = 16\n"
      "seeds      = 1\n"
      "gathers    = any-pair, quorum?q=3, quorum?q=9, fraction?f=0.5\n");
  ASSERT_EQ(spec.gathers.size(), 4u);
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), 3u);  // q=9 > k=5 pruned
  std::set<std::string> keys;
  for (const auto& cell : cells) {
    ASSERT_TRUE(cell.gather.has_value());
    EXPECT_NE(cell.key().find("|gather=" + sim::to_string(*cell.gather)),
              std::string::npos)
        << cell.key();
    keys.insert(cell.key());
  }
  EXPECT_EQ(keys.size(), cells.size());  // overrides keep keys distinct

  // Malformed gather tokens fail at parse time, naming the line.
  const std::string head =
      "name = g\ntrials = 1\nprograms = explore-rally\n"
      "scenarios = swarm-gather\ntopologies = ring\nsizes = 16\nseeds = 1\n";
  EXPECT_THROW((void)parse_spec(head + "gathers = quorum?q=1\n"), CheckError);
  EXPECT_THROW((void)parse_spec(head + "gathers = rendezvous\n"), CheckError);
  EXPECT_THROW((void)parse_spec(head + "gathers = fraction?f=1.5\n"),
               CheckError);
}

TEST(SweepSpec, AgentsAxisParsesPrunesAndKeysCells) {
  // The `agents` axis crosses agent-count overrides into the grid, keyed
  // like gather overrides so checkpoints distinguish the columns. k = 20
  // exceeds ring's achieved n of 16, so that column prunes.
  const SweepSpec spec = parse_spec(
      "name       = k-axis\n"
      "trials     = 1\n"
      "programs   = explore-rally\n"
      "scenarios  = swarm-gather\n"
      "topologies = ring\n"
      "sizes      = 16\n"
      "seeds      = 1\n"
      "agents     = 2, 6, 20\n");
  ASSERT_EQ(spec.agents, (std::vector<std::uint64_t>{2, 6, 20}));
  const auto cells = expand(spec);
  ASSERT_EQ(cells.size(), 2u);
  std::set<std::string> keys;
  for (const auto& cell : cells) {
    ASSERT_TRUE(cell.k.has_value());
    EXPECT_NE(cell.key().find("|k=" + std::to_string(*cell.k)),
              std::string::npos)
        << cell.key();
    keys.insert(cell.key());
  }
  EXPECT_EQ(keys.size(), cells.size());  // overrides keep keys distinct

  // Out-of-range agent counts fail at validation, not expansion.
  EXPECT_THROW((void)parse_spec(
                   "name = k\ntrials = 1\nprograms = explore-rally\n"
                   "scenarios = swarm-gather\ntopologies = ring\n"
                   "sizes = 16\nseeds = 1\nagents = 1\n"),
               CheckError);
}

TEST(SweepSpec, AgentsAxisPrunesByScenarioCapability) {
  // sync-pair places an AdjacentPair: only k = 2 is meaningful, so the
  // k = 5 column expands to no cells rather than to broken ones.
  const auto pair_cells = expand(parse_spec(
      "name       = k-pair\n"
      "trials     = 1\n"
      "programs   = whiteboard\n"
      "scenarios  = sync-pair\n"
      "topologies = ring\n"
      "sizes      = 16\n"
      "seeds      = 1\n"
      "agents     = 2, 5\n"));
  ASSERT_EQ(pair_cells.size(), 1u);
  EXPECT_EQ(pair_cells[0].k, std::uint64_t{2});

  // swarm-quorum registers quorum_of(4): shrinking k below the registered
  // quorum would make the cell deterministically unsatisfiable, so k = 3
  // prunes while k = 4 survives.
  const auto quorum_cells = expand(parse_spec(
      "name       = k-quorum\n"
      "trials     = 1\n"
      "programs   = explore-rally\n"
      "scenarios  = swarm-quorum\n"
      "topologies = ring\n"
      "sizes      = 16\n"
      "seeds      = 1\n"
      "agents     = 3, 4\n"));
  ASSERT_EQ(quorum_cells.size(), 1u);
  EXPECT_EQ(quorum_cells[0].k, std::uint64_t{4});
}

TEST(SweepSpec, SpecsWithoutAgentsAxisKeepTheirHistoricalKeys) {
  // Adding the axis must not perturb existing grids: without an `agents`
  // line no cell carries a k override or a "|k=" key token, so old
  // checkpoints keep resolving.
  for (const auto& cell : expand(parse_spec(kTinySpec))) {
    EXPECT_FALSE(cell.k.has_value());
    EXPECT_EQ(cell.key().find("|k="), std::string::npos) << cell.key();
  }
}

TEST(SweepSpec, RejectsUnknownKeysProgramsAndFamilies) {
  EXPECT_THROW((void)parse_spec("bogus = 1"), CheckError);
  EXPECT_THROW((void)parse_spec("programs = quantum-walk\n"
                                "scenarios = sync-pair\n"
                                "topologies = ring\n"
                                "sizes = 16\nseeds = 1\n"),
               CheckError);
  EXPECT_THROW((void)parse_topology("klein-bottle"), CheckError);
  EXPECT_THROW((void)parse_topology("near-regular:degree=4"), CheckError);
  EXPECT_THROW((void)parse_spec("programs = whiteboard\n"
                                "scenarios = no-such-scenario\n"
                                "topologies = ring\n"
                                "sizes = 16\nseeds = 1\n"),
               CheckError);
}

TEST(SweepSpec, UnknownLabelErrorsNameTheLineAndEnumerateTheRegistry) {
  // An unknown program label: the error names the offending spec line and
  // lists the valid label set (not just "parsing failed").
  try {
    (void)parse_spec("name = e\ntrials = 1\n"
                     "programs = whiteboard, quantum-walk\n"
                     "scenarios = sync-pair\ntopologies = ring\n"
                     "sizes = 16\nseeds = 1\n");
    FAIL() << "unknown program must throw";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("quantum-walk"), std::string::npos) << what;
    EXPECT_NE(what.find("random-walk"), std::string::npos) << what;
    EXPECT_NE(what.find("wait-and-sweep"), std::string::npos) << what;
  }
  // Same contract for an unknown scenario name.
  try {
    (void)parse_spec("name = e\ntrials = 1\nprograms = whiteboard\n"
                     "\n"
                     "scenarios = sync-pair, no-such-scenario\n"
                     "topologies = ring\nsizes = 16\nseeds = 1\n");
    FAIL() << "unknown scenario must throw";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
    EXPECT_NE(what.find("no-such-scenario"), std::string::npos) << what;
    EXPECT_NE(what.find("sync-pair"), std::string::npos) << what;
    EXPECT_NE(what.find("swarm-gather"), std::string::npos) << what;
  }
}

TEST(SweepSpec, EveryKeyErrorNamesItsLineInPlainWords) {
  const std::string base =
      "name = e\ntrials = 1\nprograms = whiteboard\nscenarios = sync-pair\n"
      "topologies = ring\nsizes = 16\nseeds = 1\n";
  // Each bad line lands on line 8, after the seven good ones.
  for (const char* bad :
       {"programs = random-walk?laziness=", "faults = crash?ratee=0.1",
        "topologies = torus:side=3", "topologies = torus:",
        "sizes = 16, 3", "sizes = 2000000", "gathers = quorum?q=1",
        "gathers = quorum?q=2.5", "agents = 1", "trials = 0",
        "trials = x", "seeds = -1", "scenarios = nowhere", "name =",
        "colour = blue", "no equals sign"}) {
    try {
      (void)parse_spec(base + bad + "\n");
      ADD_FAILURE() << "'" << bad << "' must be rejected";
    } catch (const CheckError& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind("sweep spec line 8: ", 0), 0u) << what;
      EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
    }
  }
  // A size its family cannot host is a fault of the whole grid: expand
  // names the spec.
  try {
    (void)expand(parse_spec(
        "name = small\nprograms = whiteboard\nscenarios = sync-pair\n"
        "topologies = ring, torus\nsizes = 5\nseeds = 1\n"));
    ADD_FAILURE() << "a 5-vertex torus must be rejected";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.rfind("sweep spec 'small': ", 0), 0u) << what;
    EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
  }
}

TEST(SweepSpec, WildcardAxesAndParameterizedProgramsParse) {
  const SweepSpec spec = parse_spec(
      "name = wild\ntrials = 1\n"
      "programs = *\n"
      "scenarios = *\n"
      "topologies = ring\nsizes = 16\nseeds = 1\n");
  EXPECT_GE(spec.programs.size(), 8u);
  EXPECT_GE(spec.scenarios.size(), 7u);
  EXPECT_EQ(spec.programs.front().label(), "whiteboard");
  EXPECT_EQ(spec.scenarios.front(), "sync-pair");

  // A `?key=value` suffix is part of the program's cell identity.
  const SweepSpec lazy = parse_spec(
      "name = lazy\ntrials = 1\n"
      "programs = random-walk?laziness=0.25\n"
      "scenarios = sync-pair\ntopologies = ring\nsizes = 16\nseeds = 1\n");
  ASSERT_EQ(lazy.programs.size(), 1u);
  EXPECT_EQ(lazy.programs[0].label(), "random-walk?laziness=0.25");
  const auto grid = expand(lazy);
  ASSERT_EQ(grid.size(), 1u);
  EXPECT_NE(grid[0].key().find("random-walk?laziness=0.25"),
            std::string::npos);
  EXPECT_THROW((void)parse_spec(
                   "name = bad\ntrials = 1\n"
                   "programs = random-walk?bogus=1\n"
                   "scenarios = sync-pair\ntopologies = ring\n"
                   "sizes = 16\nseeds = 1\n"),
               CheckError);
}

TEST(SweepSpec, RejectsOversizeAndEmptyAxes) {
  EXPECT_THROW((void)parse_spec("programs = whiteboard\n"
                                "scenarios = sync-pair\n"
                                "topologies = ring\n"
                                "sizes = 2097152\nseeds = 1\n"),
               CheckError);  // > 2^20
  EXPECT_THROW((void)parse_spec("programs = whiteboard\n"
                                "scenarios = sync-pair\n"
                                "sizes = 16\nseeds = 1\n"),
               CheckError);  // no topologies
}

TEST(SweepSpec, PredefinedSpecsAllParse) {
  for (const auto& [name, text] : predefined_specs()) {
    const SweepSpec spec = parse_spec(text);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(expand(spec).empty());
  }
}

TEST(SweepSpec, TopologyResolvesAchievedSizes) {
  EXPECT_EQ(parse_topology("torus").achieved_n(1000), 31u * 31u);
  EXPECT_EQ(parse_topology("grid").achieved_n(1024), 1024u);
  EXPECT_EQ(parse_topology("hypercube").achieved_n(1000), 512u);
  EXPECT_EQ(parse_topology("hypercube").achieved_n(1024), 1024u);
  EXPECT_EQ(parse_topology("ring").achieved_n(1000), 1000u);
  // Families honor their achieved size when building.
  const auto g = parse_topology("torus").build(1000, 1);
  EXPECT_EQ(g.num_vertices(), 31u * 31u);
}

TEST(SweepSpec, TopologyBuildIsDeterministicPerSeed) {
  const TopologySpec topo = parse_topology("near-regular:deg=4");
  const auto a = topo.build(64, 5);
  const auto b = topo.build(64, 5);
  const auto c = topo.build(64, 6);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (graph::VertexIndex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
  EXPECT_NE(c.num_edges(), 0u);  // different seed still builds something
}

TEST(SweepGrid, ExpansionIsDeterministicWithDenseUniqueKeys) {
  const SweepSpec spec = parse_spec(kTinySpec);
  const auto grid_a = expand(spec);
  const auto grid_b = expand(spec);
  ASSERT_EQ(grid_a.size(), 8u);  // 2 programs x 1 scenario x 2 topo x 2 sizes
  std::set<std::string> keys;
  for (std::size_t i = 0; i < grid_a.size(); ++i) {
    EXPECT_EQ(grid_a[i].index, i);
    EXPECT_EQ(grid_a[i].key(), grid_b[i].key());
    keys.insert(grid_a[i].key());
  }
  EXPECT_EQ(keys.size(), grid_a.size());
}

TEST(SweepGrid, ShardsPartitionTheGrid) {
  const SweepSpec spec = parse_spec(kTinySpec);
  const auto grid = expand(spec);
  std::set<std::uint64_t> covered;
  for (std::uint32_t shard = 0; shard < 3; ++shard)
    for (const auto& cell : grid)
      if (cell.index % 3 == shard) {
        EXPECT_TRUE(covered.insert(cell.index).second);
      }
  EXPECT_EQ(covered.size(), grid.size());
}

TEST(GraphCache, ReusesGeneratedTopologiesAndEvictsLru) {
  const SweepSpec spec = parse_spec(kTinySpec);
  const auto grid = expand(spec);
  GraphCache cache(1);
  // Same graph key twice: one miss, one hit returning the same object.
  const auto first = cache.get_shared(grid[0], grid[0].graph_key());
  const auto again = cache.get_shared(grid[0], grid[0].graph_key());
  EXPECT_EQ(first, again);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // A different key evicts the only slot; re-requesting the first misses.
  (void)cache.get_shared(grid[1], grid[1].graph_key());
  (void)cache.get_shared(grid[0], grid[0].graph_key());
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(SweepCheckpoint, RoundTripsOkAndFailedCells) {
  const SweepSpec spec = parse_spec(kTinySpec);
  const auto grid = expand(spec);
  CellResult ok_cell;
  ok_cell.cell = grid[0];
  ok_cell.agg_json = "{\"trials\":2,\"successes\":2}";
  ok_cell.seconds = 0.25;
  CellResult failed_cell;
  failed_cell.cell = grid[1];
  failed_cell.ok = false;
  failed_cell.error = "check failed: \"quoted\", back\\slash and\nnewlined";
  const TempPath path("sweep_ckpt_roundtrip.jsonl");
  {
    std::ofstream out(path.str());
    out << checkpoint_line(ok_cell) << "\n"
        << checkpoint_line(failed_cell) << "\n";
  }
  const auto loaded = load_checkpoint(path.str());
  ASSERT_EQ(loaded.size(), 2u);
  const auto& ok_entry = loaded.at(grid[0].key());
  EXPECT_TRUE(ok_entry.ok);
  EXPECT_EQ(ok_entry.agg_json, ok_cell.agg_json);  // verbatim bytes
  EXPECT_DOUBLE_EQ(ok_entry.seconds, 0.25);
  const auto& failed_entry = loaded.at(grid[1].key());
  EXPECT_FALSE(failed_entry.ok);
  EXPECT_EQ(failed_entry.error, failed_cell.error);  // exact bytes
}

TEST(SweepCheckpoint, ToleratesTornFinalLine) {
  const SweepSpec spec = parse_spec(kTinySpec);
  const auto grid = expand(spec);
  CellResult result;
  result.cell = grid[0];
  result.agg_json = "{\"trials\":2}";
  const TempPath path("sweep_ckpt_torn.jsonl");
  {
    std::ofstream out(path.str());
    out << checkpoint_line(result) << "\n";
    out << "{\"key\":\"half-writ";  // killed mid-write
  }
  const auto loaded = load_checkpoint(path.str());
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(loaded.contains(grid[0].key()));
}

TEST(SweepCheckpoint, ResumingOverATornLineCompactsTheFile) {
  // A kill -9 mid-write leaves a torn, newline-less final line. Resuming
  // must not append after those bytes — that would corrupt the next
  // record and silently drop every later cell on the *following* resume.
  const SweepSpec spec = parse_spec(kTinySpec);
  const TempPath checkpoint("sweep_torn_resume.jsonl");
  CampaignOptions interrupted;
  interrupted.threads = 1;
  interrupted.checkpoint_path = checkpoint.str();
  interrupted.max_cells = 2;
  ASSERT_FALSE(Campaign(spec, interrupted).run().complete);
  {
    std::ofstream out(checkpoint.str(), std::ios::app);
    out << "{\"key\":\"torn-mid-wri";  // no newline, killed mid-write
  }
  CampaignOptions resumed = interrupted;
  resumed.max_cells = 0;
  resumed.resume = true;
  const auto finished = Campaign(spec, resumed).run();
  ASSERT_TRUE(finished.complete);
  EXPECT_EQ(finished.restored, 2u);
  // Every cell of the grid is now a loadable checkpoint line.
  EXPECT_EQ(load_checkpoint(checkpoint.str()).size(), expand(spec).size());
}

TEST(SweepCheckpoint, CorruptMiddleLineFailsLoudlyWithItsLineNumber) {
  // A torn *final* line is the signature of an interrupt and is dropped;
  // garbage anywhere before that is real corruption. Stopping there
  // silently (the old behavior) would discard every later completed cell
  // and re-run them as if the campaign had barely started.
  const SweepSpec spec = parse_spec(kTinySpec);
  const auto grid = expand(spec);
  CellResult first, third;
  first.cell = grid[0];
  first.agg_json = "{\"trials\":2}";
  third.cell = grid[2];
  third.agg_json = "{\"trials\":2}";
  const TempPath path("sweep_ckpt_corrupt_middle.jsonl");
  {
    std::ofstream out(path.str());
    out << checkpoint_line(first) << "\n"
        << "{\"key\":\"not a complete reco\n"  // corrupt, NOT final
        << checkpoint_line(third) << "\n";
  }
  try {
    (void)load_checkpoint(path.str());
    FAIL() << "corrupt middle line must throw";
  } catch (const CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find(path.str()), std::string::npos) << what;
  }
}

TEST(SweepCheckpoint, MissingFileIsEmpty) {
  EXPECT_TRUE(load_checkpoint(testing::TempDir() +
                              "sweep_no_such_checkpoint.jsonl")
                  .empty());
}

TEST(SweepEngine, RunsACompleteCampaign) {
  const SweepSpec spec = parse_spec(kTinySpec);
  CampaignOptions options;
  options.threads = 2;
  const auto result = Campaign(spec, options).run();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.cells.size(), 8u);
  EXPECT_EQ(result.executed, 8u);
  EXPECT_EQ(result.restored, 0u);
  // 4 distinct graph keys (2 topologies x 2 sizes), each reused by 2 cells.
  EXPECT_EQ(result.graph_cache_misses, 4u);
  EXPECT_EQ(result.graph_cache_hits, 4u);
  for (const auto& cell : result.cells) {
    EXPECT_TRUE(cell.ok) << cell.cell.key() << ": " << cell.error;
    EXPECT_FALSE(cell.agg_json.empty());
  }
}

TEST(SweepEngine, InterruptedThenResumedMatchesUninterruptedByteForByte) {
  const SweepSpec spec = parse_spec(kTinySpec);

  CampaignOptions uninterrupted;
  uninterrupted.threads = 2;
  const auto full = Campaign(spec, uninterrupted).run();
  ASSERT_TRUE(full.complete);
  const std::string full_json = to_json(spec, full.cells);

  const TempPath checkpoint("sweep_resume.jsonl");
  CampaignOptions interrupted;
  interrupted.threads = 2;
  interrupted.checkpoint_path = checkpoint.str();
  interrupted.max_cells = 3;
  const auto partial = Campaign(spec, interrupted).run();
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.executed, 3u);

  CampaignOptions resumed = interrupted;
  resumed.threads = 1;  // thread count must not leak into the artifact
  resumed.max_cells = 0;
  resumed.resume = true;
  const auto finished = Campaign(spec, resumed).run();
  ASSERT_TRUE(finished.complete);
  EXPECT_EQ(finished.restored, 3u);
  EXPECT_EQ(finished.executed, 5u);
  EXPECT_EQ(to_json(spec, finished.cells), full_json);
}

TEST(SweepEngine, MergedJsonIsByteIdenticalAcrossThreadCounts) {
  // registry-smoke runs every registered program on every compatible
  // scenario, so it covers each agent family's trial path.
  for (const SweepSpec& spec :
       {parse_spec(kTinySpec), find_spec("registry-smoke")}) {
    CampaignOptions serial;
    serial.threads = 1;
    const auto one = Campaign(spec, serial).run();
    CampaignOptions pooled;
    pooled.threads = 2;
    const auto two = Campaign(spec, pooled).run();
    ASSERT_TRUE(one.complete && two.complete) << spec.name;
    EXPECT_EQ(to_json(spec, one.cells), to_json(spec, two.cells))
        << spec.name;
  }
}

TEST(SweepEngine, ShardMergeMatchesSingleShardRun) {
  const SweepSpec spec = parse_spec(kTinySpec);
  CampaignOptions single;
  single.threads = 2;
  const auto full = Campaign(spec, single).run();
  const std::string full_json = to_json(spec, full.cells);

  const TempPath ckpt0("sweep_shard0.jsonl");
  const TempPath ckpt1("sweep_shard1.jsonl");
  std::vector<std::map<std::string, CheckpointEntry>> checkpoints;
  for (std::uint32_t shard = 0; shard < 2; ++shard) {
    CampaignOptions options;
    options.threads = 1;
    options.shard_index = shard;
    options.shard_count = 2;
    options.checkpoint_path = shard == 0 ? ckpt0.str() : ckpt1.str();
    const auto result = Campaign(spec, options).run();
    ASSERT_TRUE(result.complete);
    ASSERT_EQ(result.cells.size(), 4u);
    checkpoints.push_back(load_checkpoint(options.checkpoint_path));
  }
  const auto merged = results_from_checkpoints(spec, checkpoints);
  EXPECT_EQ(to_json(spec, merged), full_json);

  // Merge refuses a grid the checkpoints do not cover.
  checkpoints.pop_back();
  EXPECT_THROW((void)results_from_checkpoints(spec, checkpoints), CheckError);
}

TEST(SweepEngine, FailedCellsAreRecordedNotFatal) {
  // near-regular with deg >= n cannot build: the cell fails
  // deterministically (no randomness reaches the check) while the ring
  // cell still runs — a bad cell must be recorded, not kill the campaign.
  const SweepSpec spec = parse_spec("name = failing\n"
                                    "trials = 2\n"
                                    "programs = whiteboard\n"
                                    "scenarios = sync-pair\n"
                                    "topologies = near-regular:deg=100, ring\n"
                                    "sizes = 16\n"
                                    "seeds = 1\n");
  const TempPath checkpoint("sweep_failing.jsonl");
  CampaignOptions options;
  options.threads = 1;
  options.checkpoint_path = checkpoint.str();
  const auto result = Campaign(spec, options).run();
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.cells.size(), 2u);
  const CellResult& failed = result.cells[0];  // canonical order
  ASSERT_FALSE(failed.ok);
  EXPECT_NE(failed.error.find("deg must be in [1, n)"), std::string::npos);
  EXPECT_TRUE(failed.agg_json.empty());
  EXPECT_TRUE(result.cells[1].ok);
  const std::string json = to_json(spec, result.cells);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);

  // The failure round-trips through the checkpoint: a resumed campaign
  // restores it (rather than retrying forever) and emits identical JSON.
  CampaignOptions resumed = options;
  resumed.resume = true;
  const auto again = Campaign(spec, resumed).run();
  ASSERT_TRUE(again.complete);
  EXPECT_EQ(again.restored, 2u);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(to_json(spec, again.cells), json);
}

TEST(SweepReport, CsvListsOkCellsWithAggregateColumns) {
  const SweepSpec spec = parse_spec(kTinySpec);
  CampaignOptions options;
  options.threads = 1;
  const auto result = Campaign(spec, options).run();
  const std::string csv = to_csv(result.cells);
  std::istringstream lines(csv);
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header.substr(0, 6), "label,");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(lines, line))
    if (!line.empty()) ++rows;
  EXPECT_EQ(rows, 8u);
}

}  // namespace
}  // namespace fnr::sweep
