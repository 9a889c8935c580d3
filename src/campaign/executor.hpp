// The cell executor: a worker pool that runs a campaign's cells
// *concurrently* while every observable artifact stays byte-identical to a
// sequential run. It is the campaign's only parallelism layer.
//
// Why. Measured cell costs span ~2600× in wall time across the work
// gate's cells, and a campaign's wall-clock is the sum of its cells when
// they run one after another — graph generation included, which no trial
// pool can spread. The executor makes it the max of its critical path
// instead: `threads` workers pull units off a shared queue, each running
// its trials on one thread, and a big cell is split into shards that run
// on several workers at once, claim its trials in chunks from a shared
// cursor, and merge through TrialAccumulator (whose aggregate is
// canonicalized by trial index, so which shard ran which trial is
// invisible). A grid with fewer cells than workers splits down to
// single-trial shards, so even one cell fills the pool.
//
// Scheduling. The queue is seeded in longest-processing-time order by a
// cost model: an a-priori weight from the cell's shape (trials × n ×
// agent count × a family factor for neighborhood-scan-heavy topologies),
// refined online by per-(program, family) seconds-per-weight rates
// observed from completed cells — so the second near-regular cell is
// scheduled with a measured cost, not a guess. Workers "steal" by popping
// the currently-most-expensive remaining unit under the queue lock; idle
// workers naturally drain a split cell's tail shards.
//
// Graph lifecycle. The pick is graph-aware (pick_unit): a unit whose graph
// another worker is still generating is blocked, and a free worker takes
// it only when every remaining unit is blocked — so workers build
// different graphs side by side instead of queueing on one in-flight
// generation. When the last unit that needs a graph key finishes, the
// executor releases the key from the cache, so a run holds only the graphs
// it still has work for.
//
// Determinism (the headline contract). Completion order is timing-
// dependent; emission order is not. Finished results are staged in a
// reorder buffer and emit() fires on the *calling* thread, strictly in
// canonical grid order, only for the contiguous prefix of finished cells —
// so checkpoint lines, per-cell callbacks, fnrd replay frames, and merged
// JSON are byte-identical between --threads=1 and --threads=4, and a
// kill -9 mid-parallel-run resumes cleanly (the flush boundary is
// unchanged). When the run stops early (cancel / max_cells), results stuck
// behind an unfinished cell are discarded rather than flushed out of
// order; they re-run on resume.
//
// threads == 1 runs inline on the calling thread (no pool, no staging
// latency, one thread in total) and is the reference the parallel path is
// pinned against.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "campaign/campaign.hpp"
#include "sweep/spec.hpp"

namespace fnr::campaign {

struct ExecutorOptions {
  /// Worker threads, each running one unit's trials on one thread:
  /// 1 = inline on the calling thread, 0 = hardware threads.
  unsigned threads = 0;
  /// Run only the first N cells of the run (0 = no limit). Restricting
  /// the *schedulable set* — rather than counting starts in completion
  /// order — keeps the executed set identical to the sequential path at
  /// any thread count, and means a paused campaign never discards work.
  std::uint64_t max_cells = 0;
};

/// Telemetry of one CellExecutor::run (feeds CampaignRun).
struct ExecutorStats {
  unsigned threads = 0;         ///< resolved worker count (1 = inline)
  std::uint64_t executed = 0;   ///< cells completed *and* emitted
  std::uint64_t discarded = 0;  ///< completed but blocked at stop — re-run
  std::uint64_t split_cells = 0;
  std::uint64_t shards = 0;  ///< work units executed (1 per unsplit cell)
  std::uint64_t total_rounds = 0;  ///< summed over emitted cells
  GraphCache::Stats graph_cache;   ///< hits, misses, releases, waits, ...
};

/// What the pick sees of one queued unit (one shard of one cell).
struct QueuedUnit {
  std::size_t slot = 0;     ///< cell index in run()'s input (pick ignores)
  std::uint64_t shard = 0;  ///< shard index within the cell
  std::size_t graph = 0;    ///< graph key id; ids follow sorted key order
  std::uint64_t index = 0;  ///< the cell's canonical grid index
  double estimate = 0.0;    ///< CellCostModel::estimate of the cell
  bool blocked = false;     ///< another worker is generating its graph
};

/// The position of the unit a free worker runs next, or units.size() when
/// `units` is empty. Among runnable (unblocked) units it is the one with
/// the highest estimate — longest processing time first — ties broken by
/// graph key id, then grid index, then shard. A blocked unit loses to any
/// runnable one whatever its estimate; when every unit is blocked, the
/// same order picks among them all (the worker then waits for the graph).
[[nodiscard]] std::size_t pick_unit(const std::vector<QueuedUnit>& units);

/// Cost model behind the LPT seeding: estimate() ranks cells by expected
/// seconds, observe() refines per-(program label, topology family) rates
/// from completed cells. Thread-safe; estimates only need to be *relatively*
/// right — a misranked cell costs idle time, never correctness.
class CellCostModel {
 public:
  /// A-priori shape weight: trials × achieved_n × agents, scaled for
  /// neighborhood-scan-heavy families (near-regular, random-geometric).
  [[nodiscard]] static double weight(const sweep::SweepCell& cell);

  /// Expected seconds (arbitrary unit before the first observation).
  /// Unobserved (program, family) pairs rank by raw weight above every
  /// observed rate — explore unknown cost first, exactly what LPT wants.
  [[nodiscard]] double estimate(const sweep::SweepCell& cell) const;

  /// Folds a completed cell's wall-clock into its (program, family) rate.
  void observe(const sweep::SweepCell& cell, double seconds);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> rate_;  ///< EMA seconds-per-weight
};

/// Runs one list of cells. Construct per campaign run; run() is callable
/// once. The executor owns its graph cache and cost model.
class CellExecutor {
 public:
  explicit CellExecutor(ExecutorOptions options);

  /// Executes `cells` (must be in canonical grid order). emit() fires on
  /// the calling thread, in exactly the given order, for the contiguous
  /// prefix of cells that finished before the run stopped; the result is
  /// moved in. `cancel` is polled at unit boundaries. Rethrows the first
  /// non-CheckError worker exception after the pool drains (CheckErrors
  /// become ok = false results, as in a sequential run).
  ExecutorStats run(const std::vector<sweep::SweepCell>& cells,
                    const std::function<void(CellResult&&)>& emit,
                    const std::atomic<bool>& cancel);

 private:
  ExecutorOptions options_;
};

}  // namespace fnr::campaign
