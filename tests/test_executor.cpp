// Cell-executor contract tests: the work-stealing worker pool behind
// Campaign. The headline contract under test is byte-identity — merged
// JSON, checkpoint lines (modulo the informational "seconds" field), and
// callback order must not depend on the executor pool size — plus the
// graph-aware pick, trial-shard splitting, the restored-before-live replay
// ordering on resume, max_cells prefix semantics, and the graph lifecycle:
// each key generated once and released after its last unit.
#include "campaign/executor.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "sweep/spec.hpp"
#include "util/check.hpp"

namespace fnr::campaign {
namespace {

// Mirrors the CI smoke grid: 16 heterogeneous cells across two programs,
// two scenarios, two families, two sizes — enough graph keys for the
// graph-ordered queue to schedule out of canonical order at threads > 1.
constexpr const char* kGridSpec = R"(
name       = executor-grid
trials     = 3
programs   = whiteboard, random-walk
scenarios  = sync-pair, delayed-pair
topologies = ring, near-regular:deg=4
sizes      = 32, 64
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

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Checkpoint bytes with the wall-clock field removed — the only field
/// whose value legitimately differs between two runs of the same cells.
std::string checkpoint_sans_seconds(const std::string& path) {
  static const std::regex seconds(",\"seconds\":[^,}]*");
  return std::regex_replace(read_file(path), seconds, "");
}

std::vector<std::string> canonical_keys(const sweep::SweepSpec& spec) {
  std::vector<std::string> keys;
  for (const auto& cell : sweep::expand(spec)) keys.push_back(cell.key());
  return keys;
}

struct RunArtifacts {
  std::string merged_json;
  std::string checkpoint;  ///< seconds-stripped bytes
  std::vector<std::string> callback_keys;
  std::vector<bool> from_checkpoint;
  CampaignRun run;
};

RunArtifacts run_campaign(const sweep::SweepSpec& spec,
                          CampaignOptions options,
                          const std::string& checkpoint_name) {
  TempPath checkpoint(checkpoint_name);
  options.checkpoint_path = checkpoint.str();
  Campaign campaign(spec, options);
  RunArtifacts artifacts;
  artifacts.run = campaign.run([&](const CellResult& result) {
    artifacts.callback_keys.push_back(result.cell.key());
    artifacts.from_checkpoint.push_back(result.from_checkpoint);
  });
  artifacts.merged_json = to_json(spec, artifacts.run.cells);
  artifacts.checkpoint = checkpoint_sans_seconds(checkpoint.str());
  return artifacts;
}

QueuedUnit queued(std::size_t graph, std::uint64_t index,
                  bool blocked = false, std::uint64_t shard = 0) {
  QueuedUnit unit;
  unit.graph = graph;
  unit.index = index;
  unit.shard = shard;
  unit.blocked = blocked;
  return unit;
}

TEST(PickUnit, EmptyQueuePicksNothing) {
  EXPECT_EQ(pick_unit({}), 0u);
}

TEST(PickUnit, BlockedUnitLosesToAnyRunnableUnit) {
  // Whatever its graph key and grid index, a unit whose graph is in flight
  // on another worker goes after every runnable unit.
  const std::vector<QueuedUnit> units = {
      queued(0, 0, /*blocked=*/true),
      queued(2, 5),
      queued(1, 1, /*blocked=*/true),
  };
  EXPECT_EQ(pick_unit(units), 1u);
}

TEST(PickUnit, RunnableUnitsGoInGraphThenGridThenShardOrder) {
  // The lowest graph key id first among runnable units.
  EXPECT_EQ(pick_unit({queued(2, 0), queued(1, 9),
                       queued(0, 2, /*blocked=*/true)}),
            1u);
  // Within a graph key, grid index, then shard.
  EXPECT_EQ(pick_unit({queued(3, 0), queued(1, 7), queued(1, 4),
                       queued(2, 1)}),
            2u);
  EXPECT_EQ(pick_unit({queued(1, 4, false, 2), queued(1, 4, false, 1)}),
            1u);
}

TEST(PickUnit, AllBlockedFallsBackToTheFirstUnitInOrder) {
  // Nothing runnable: the worker takes the first unit in the same order and
  // waits for its graph.
  EXPECT_EQ(pick_unit({queued(1, 1, true), queued(0, 2, true),
                       queued(0, 0, true, 1), queued(0, 0, true, 0)}),
            3u);
}

TEST(GraphCache, ReleasedGraphStaysValidForItsHolder) {
  const auto spec = sweep::parse_spec(kGridSpec);
  const auto cells = sweep::expand(spec);
  GraphCache cache(4);
  const std::shared_ptr<const graph::Graph> pinned =
      cache.get_shared(cells.front(), cells.front().graph_key());
  const std::size_t vertices = pinned->num_vertices();
  const std::size_t edges = pinned->num_edges();
  ASSERT_GT(vertices, 0u);
  const std::weak_ptr<const graph::Graph> watch = pinned;
  cache.release(cells.front().graph_key());
  // The holder's pin keeps the released graph alive and intact.
  ASSERT_FALSE(watch.expired());
  EXPECT_EQ(pinned->num_vertices(), vertices);
  EXPECT_EQ(pinned->num_edges(), edges);
  EXPECT_EQ(pinned->degree(0), pinned->neighbors(0).size());
  const GraphCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.releases, 1u);
  EXPECT_EQ(stats.evictions, 0u);  // a release is not an eviction
  // Releasing an absent key is a no-op; a later lookup generates afresh.
  cache.release(cells.front().graph_key());
  EXPECT_EQ(cache.stats().releases, 1u);
  EXPECT_NE(cache.get_shared(cells.front(), cells.front().graph_key()),
            pinned);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// Three programs over four topologies: twelve cells sharing four graph
// keys, each key revisited once per program block.
constexpr const char* kMultiKeySpec = R"(
name       = multi-key
trials     = 3
programs   = whiteboard, whiteboard+doubling, random-walk
scenarios  = sync-pair
topologies = ring, torus, hypercube, near-regular:deg=4
sizes      = 64
seeds      = 1
)";

std::size_t distinct_graph_keys(const std::vector<sweep::SweepCell>& cells) {
  std::set<std::string> keys;
  for (const auto& cell : cells) keys.insert(cell.graph_key());
  return keys.size();
}

TEST(CellExecutor, MultiKeyGridGeneratesAndReleasesEachGraphOnce) {
  const auto spec = sweep::parse_spec(kMultiKeySpec);
  const std::size_t keys = distinct_graph_keys(sweep::expand(spec));
  ASSERT_EQ(keys, 4u);

  CampaignOptions sequential;
  sequential.threads = 1;
  const auto reference = run_campaign(spec, sequential, "multikey_seq.jsonl");
  ASSERT_TRUE(reference.run.complete);
  EXPECT_EQ(reference.run.graph_cache_misses, keys);
  EXPECT_EQ(reference.run.graph_cache_evictions, 0u);
  EXPECT_EQ(reference.run.graph_cache_releases, keys);
  // The inline path has no other worker to wait on.
  EXPECT_EQ(reference.run.graph_waits, 0u);

  CampaignOptions parallel;
  parallel.threads = 4;
  const auto candidate = run_campaign(spec, parallel, "multikey_par.jsonl");
  ASSERT_TRUE(candidate.run.complete);
  // Release never causes a second generation: a key is released only
  // after its last unit, and never looked up again.
  EXPECT_EQ(candidate.run.graph_cache_misses, keys);
  EXPECT_EQ(candidate.run.graph_cache_evictions, 0u);
  EXPECT_EQ(candidate.run.graph_cache_releases, keys);
  EXPECT_EQ(candidate.run.graph_cache_hits + candidate.run.graph_cache_misses,
            candidate.run.executed);
  EXPECT_EQ(candidate.merged_json, reference.merged_json);
  EXPECT_EQ(candidate.checkpoint, reference.checkpoint);
}

TEST(CellExecutor, KeysWithUnitsLeftAreNeverReleased) {
  // max_cells = 9 runs two whole program blocks and one cell of the third:
  // only the keys whose every cell is in that prefix may be released.
  const auto spec = sweep::parse_spec(kMultiKeySpec);
  const auto cells = sweep::expand(spec);
  constexpr std::size_t kPrefix = 9;
  ASSERT_GT(cells.size(), kPrefix);
  std::set<std::string> done;
  for (std::size_t i = 0; i < kPrefix; ++i) done.insert(cells[i].graph_key());
  for (std::size_t i = kPrefix; i < cells.size(); ++i)
    done.erase(cells[i].graph_key());
  ASSERT_LT(done.size(), distinct_graph_keys(cells));

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CampaignOptions options;
    options.threads = threads;
    options.max_cells = kPrefix;
    const auto artifacts = run_campaign(spec, options, "multikey_prefix.jsonl");
    EXPECT_EQ(artifacts.run.executed, kPrefix);
    EXPECT_EQ(artifacts.run.graph_cache_releases, done.size());
  }
}

TEST(CellExecutor, ParallelRunMatchesSequentialBytes) {
  const auto spec = sweep::parse_spec(kGridSpec);
  CampaignOptions sequential;
  sequential.threads = 1;
  const auto reference = run_campaign(spec, sequential, "exec_seq.jsonl");
  ASSERT_TRUE(reference.run.complete);

  CampaignOptions parallel;
  parallel.threads = 4;
  const auto candidate = run_campaign(spec, parallel, "exec_par.jsonl");
  ASSERT_TRUE(candidate.run.complete);
  EXPECT_EQ(candidate.run.executed, reference.run.executed);
  EXPECT_EQ(candidate.run.discarded, 0u);

  // The headline contract, all three artifacts: merged JSON, checkpoint
  // bytes (modulo seconds), and the callback key sequence.
  EXPECT_EQ(candidate.merged_json, reference.merged_json);
  EXPECT_EQ(candidate.checkpoint, reference.checkpoint);
  EXPECT_EQ(candidate.callback_keys, reference.callback_keys);
  // And that order is the canonical grid order, not merely *an* order.
  EXPECT_EQ(reference.callback_keys, canonical_keys(spec));
  // The deterministic workload telemetry agrees too.
  EXPECT_EQ(candidate.run.total_rounds, reference.run.total_rounds);
}

TEST(CellExecutor, MonsterCellSplitsIntoMergedShards) {
  // One 256-trial cell at threads=4 must split, run on several workers,
  // and merge to the sequential bytes.
  const auto spec = sweep::parse_spec(R"(
name       = monster
trials     = 256
programs   = whiteboard
scenarios  = sync-pair
topologies = near-regular:deg=4
sizes      = 64
seeds      = 1
)");
  CampaignOptions sequential;
  sequential.threads = 1;
  const auto reference = run_campaign(spec, sequential, "monster_seq.jsonl");

  CampaignOptions parallel;
  parallel.threads = 4;
  const auto candidate = run_campaign(spec, parallel, "monster_par.jsonl");
  ASSERT_TRUE(candidate.run.complete);
  EXPECT_EQ(candidate.run.split_cells, 1u);
  EXPECT_GT(candidate.run.shards, 1u);
  EXPECT_EQ(candidate.merged_json, reference.merged_json);
  EXPECT_EQ(candidate.checkpoint, reference.checkpoint);
  EXPECT_EQ(candidate.run.total_rounds, reference.run.total_rounds);
}

TEST(CellExecutor, LoneSmallCellSplitsAcrossEveryWorker) {
  // A grid with fewer cells than workers drops the shard floor to one
  // trial: one 8-trial cell at threads=4 becomes 4 two-trial units, so the
  // pool is full even without a trial pool inside the cell.
  const auto spec = sweep::parse_spec(R"(
name       = lone
trials     = 8
programs   = whiteboard
scenarios  = sync-pair
topologies = near-regular:deg=64
sizes      = 1024
seeds      = 1
)");
  CampaignOptions sequential;
  sequential.threads = 1;
  const auto reference = run_campaign(spec, sequential, "lone_seq.jsonl");
  ASSERT_TRUE(reference.run.complete);
  EXPECT_EQ(reference.run.shards, 1u);

  CampaignOptions parallel;
  parallel.threads = 4;
  const auto candidate = run_campaign(spec, parallel, "lone_par.jsonl");
  ASSERT_TRUE(candidate.run.complete);
  EXPECT_EQ(candidate.run.threads, 4u);
  EXPECT_EQ(candidate.run.split_cells, 1u);
  EXPECT_EQ(candidate.run.shards, 4u);
  EXPECT_EQ(candidate.merged_json, reference.merged_json);
  EXPECT_EQ(candidate.checkpoint, reference.checkpoint);
  EXPECT_EQ(candidate.run.total_rounds, reference.run.total_rounds);
}

TEST(CellExecutor, FullGridKeepsTheShardFloor) {
  // With at least as many cells as workers, whole cells fill the pool and
  // the 32-trial floor holds: kGridSpec's 3-trial cells never split.
  const auto spec = sweep::parse_spec(kGridSpec);
  CampaignOptions options;
  options.threads = 4;
  const auto artifacts = run_campaign(spec, options, "exec_floor.jsonl");
  ASSERT_TRUE(artifacts.run.complete);
  EXPECT_EQ(artifacts.run.split_cells, 0u);
  EXPECT_EQ(artifacts.run.shards, artifacts.run.executed);
}

TEST(CellExecutor, RestoredCellsReplayBeforeAnyLiveCell) {
  // The resume + --threads contract: every checkpointed cell replays through
  // the callback, in canonical order, before the first live cell flushes —
  // a streaming consumer sees one canonical sequence, never interleaving.
  const auto spec = sweep::parse_spec(kGridSpec);
  TempPath checkpoint("exec_replay.jsonl");

  CampaignOptions pause;
  pause.threads = 4;
  pause.max_cells = 3;
  pause.checkpoint_path = checkpoint.str();
  Campaign paused(spec, pause);
  (void)paused.run();

  CampaignOptions resume;
  resume.threads = 4;
  resume.resume = true;
  resume.checkpoint_path = checkpoint.str();
  Campaign resumed(spec, resume);
  std::vector<std::string> keys;
  std::vector<bool> restored;
  const CampaignRun run = resumed.run([&](const CellResult& result) {
    keys.push_back(result.cell.key());
    restored.push_back(result.from_checkpoint);
  });
  EXPECT_TRUE(run.complete);
  EXPECT_EQ(run.restored, 3u);
  ASSERT_EQ(restored.size(), keys.size());
  // Prefix property: restored flags are monotonically true-then-false.
  for (std::size_t i = 0; i < restored.size(); ++i)
    EXPECT_EQ(restored[i], i < 3) << "callback " << i;
  EXPECT_EQ(keys, canonical_keys(spec));
}

TEST(CellExecutor, MaxCellsRunsTheCanonicalPrefixWithoutDiscards) {
  // max_cells restricts the schedulable set, so even at threads=4 — where the
  // graph-ordered queue would otherwise start cells out of grid order — the
  // executed set is exactly the first N canonical cells and no completed
  // work is thrown away.
  const auto spec = sweep::parse_spec(kGridSpec);
  CampaignOptions options;
  options.threads = 4;
  options.max_cells = 5;
  const auto artifacts = run_campaign(spec, options, "exec_prefix.jsonl");
  EXPECT_EQ(artifacts.run.executed, 5u);
  EXPECT_EQ(artifacts.run.discarded, 0u);
  EXPECT_FALSE(artifacts.run.complete);
  const auto keys = canonical_keys(spec);
  ASSERT_GE(keys.size(), 5u);
  EXPECT_EQ(artifacts.callback_keys,
            std::vector<std::string>(keys.begin(), keys.begin() + 5));
}

TEST(CellExecutor, SharedTopologyIsGeneratedOnceUnderHammer) {
  // Every cell of this grid shares one graph key; four workers racing for
  // it must produce exactly one generation (the in-flight marker makes the
  // others wait instead of regenerating) and zero evictions.
  const auto spec = sweep::parse_spec(R"(
name       = hammer
trials     = 2
programs   = whiteboard, whiteboard+doubling, no-whiteboard, random-walk
scenarios  = sync-pair, delayed-pair
topologies = near-regular:deg=4
sizes      = 32
seeds      = 1
)");
  CampaignOptions options;
  options.threads = 4;
  const auto artifacts = run_campaign(spec, options, "exec_hammer.jsonl");
  ASSERT_TRUE(artifacts.run.complete);
  const std::uint64_t cells = artifacts.run.executed;
  ASSERT_GE(cells, 4u);
  EXPECT_EQ(artifacts.run.graph_cache_misses, 1u);
  EXPECT_EQ(artifacts.run.graph_cache_hits, cells - 1);
  EXPECT_EQ(artifacts.run.graph_cache_evictions, 0u);
}

TEST(CellExecutor, CancelMidParallelResumesToIdenticalBytes) {
  const auto spec = sweep::parse_spec(kGridSpec);
  CampaignOptions sequential;
  sequential.threads = 1;
  const auto reference = run_campaign(spec, sequential, "exec_ref.jsonl");

  // Cancel from the first callback of a threads=4 run: workers may have
  // several more cells in flight or staged out of order; everything not in
  // the flushed canonical prefix must be discarded, not torn.
  TempPath checkpoint("exec_cancel.jsonl");
  CampaignOptions options;
  options.threads = 4;
  options.checkpoint_path = checkpoint.str();
  Campaign interrupted(spec, options);
  const CampaignRun first =
      interrupted.run([&](const CellResult&) { interrupted.cancel(); });
  EXPECT_TRUE(first.cancelled);
  // Workers only observe the cancel at unit boundaries, so on a fast box
  // every cell may already be staged when the first callback fires and
  // the run legitimately completes. Either way the invariants hold: the
  // flushed cells are a canonical prefix, and resume rebuilds the
  // reference bytes from whatever the checkpoint holds.
  ASSERT_GE(first.cells.size(), 1u);
  // Whatever was flushed is a canonical prefix.
  const auto keys = canonical_keys(spec);
  for (std::size_t i = 0; i < first.cells.size(); ++i)
    EXPECT_EQ(first.cells[i].cell.key(), keys[i]);

  CampaignOptions resume_options = options;
  resume_options.resume = true;
  Campaign resumed(spec, resume_options);
  const CampaignRun second = resumed.run();
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.restored, first.cells.size());
  EXPECT_EQ(to_json(spec, second.cells), reference.merged_json);
}

TEST(CellExecutor, FailedCellsFlowThroughUnchangedAtAnyThreadCount) {
  // A cell whose run throws CheckError becomes an ok=false result (the
  // run keeps going) — and the error artifact is identical across pool
  // sizes like any other cell. expand() never emits an unrunnable cell,
  // so tamper one: an unknown scenario name fails deterministically at
  // find_scenario, the same catch boundary every runtime failure hits.
  const auto spec = sweep::parse_spec(kGridSpec);
  auto cells = sweep::expand(spec);
  ASSERT_GE(cells.size(), 3u);
  cells[2].scenario = "no-such-scenario";

  const auto run_at = [&](unsigned threads) {
    ExecutorOptions options;
    options.threads = threads;
    CellExecutor executor(options);
    std::vector<CellResult> results;
    std::atomic<bool> cancel{false};
    (void)executor.run(
        cells, [&](CellResult&& r) { results.push_back(std::move(r)); },
        cancel);
    return results;
  };
  const auto sequential = run_at(1);
  const auto parallel = run_at(4);
  ASSERT_EQ(sequential.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  EXPECT_FALSE(sequential[2].ok);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(parallel[i].cell.key(), sequential[i].cell.key());
    EXPECT_EQ(parallel[i].ok, sequential[i].ok);
    EXPECT_EQ(parallel[i].error, sequential[i].error);
    EXPECT_EQ(parallel[i].agg_json, sequential[i].agg_json);
  }
}

}  // namespace
}  // namespace fnr::campaign
