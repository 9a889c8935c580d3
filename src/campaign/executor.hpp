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
// Scheduling and graph lifecycle. Workers pop units under the queue lock in
// graph-key order, then grid order (pick_unit), so one graph's cells run
// together and idle workers drain a split cell's tail shards. The pick is
// graph-aware: a unit whose graph another worker is still generating is
// blocked, and a free worker takes it only when every remaining unit is
// blocked — so workers build different graphs side by side instead of
// queueing on one in-flight generation. When the last unit that needs a
// graph key finishes, the executor releases the key from the cache, so a
// run holds only the graphs it still has work for. (A longest-processing-
// time order from a per-family cost model was measured against this order
// and showed no gain; see docs/PERFORMANCE.md.)
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
#include <vector>

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
  bool blocked = false;     ///< another worker is generating its graph
};

/// The position of the unit a free worker runs next, or units.size() when
/// `units` is empty: the first runnable (unblocked) unit in order of graph
/// key id, then grid index, then shard. When every unit is blocked, the
/// same order picks among them all (the worker then waits for the graph).
[[nodiscard]] std::size_t pick_unit(const std::vector<QueuedUnit>& units);

/// Runs one list of cells. Construct per campaign run; run() is callable
/// once. The executor owns its graph cache.
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
