// The campaign core: the spec → grid → shard → checkpoint → merge
// lifecycle as a reusable, resumable, cancelable object.
//
// Every execution surface — the bench/sweep CLI, the fnrd service daemon,
// an in-process test — drives this identical machinery: bench/sweep runs
// one Campaign per invocation, and fnrd's workers run Campaign directly
// with a streaming callback.
//
// Execution model. expand(spec) defines the canonical grid; a shard owns
// the cells with index % shard_count == shard_index, so any number of
// worker processes can split a campaign without coordination. Within a
// shard, cells run on the cell executor (src/campaign/executor.hpp), the
// campaign's one thread pool: `threads` workers pull cells off a shared
// queue in graph-key order, then grid order, skipping cells whose graph
// another worker is still generating; big cells split into mergeable
// trial shards, and a reorder buffer stages completed results so
// checkpoint lines, callbacks, and reports are emitted in canonical grid
// order — execution order is invisible in every artifact, and
// `--threads=1` vs `--threads=4` are byte-identical.
//
// Determinism contract. A cell's aggregate depends only on its key: its
// trials run through scenario::run_scenario_trial_span, whose aggregates are
// bit-identical across thread counts, and graph generation draws only from
// Rng(cell.seed, kGraphStream). Checkpoint lines carry the aggregate JSON
// verbatim, and to_json() orders cells by grid index and excludes all
// timing fields — so an interrupted-then-resumed campaign (even resumed
// with a different thread count, or through a different surface: CLI vs
// daemon) produces byte-identical merged JSON to an uninterrupted run.
// scripts/ci.sh asserts exactly that on every build, for both surfaces.
//
// Incremental results. Campaign::run invokes a per-cell callback the
// moment a cell finishes (after its checkpoint line is flushed, so a
// streamed cell is never lost to a crash) and for every cell restored from
// the checkpoint on resume — a streaming client that reconnects after a
// daemon kill -9 + RESUME replays the full result set.
//
// Cancelation. cancel() is thread- and signal-safe (one relaxed atomic
// store); workers stop pulling new work, in-flight cells complete, and
// the contiguous canonical prefix of their results is flushed — exactly
// the boundary resume needs (at threads > 1, completed cells stuck behind
// an unfinished one are discarded and re-run on resume).
//
// Checkpoints are append-only JSONL (one completed cell per line, flushed
// per cell); a campaign killed mid-write leaves at most one torn final
// line, which load_checkpoint drops (the cell re-runs on resume). An
// unparsable line anywhere *before* the final one is real corruption, not
// an interrupt signature, and raises a line-numbered CheckError — silently
// stopping there used to discard every later completed cell.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sweep/spec.hpp"

namespace fnr::campaign {

/// Schema tag emitted in merged sweep reports ("fnr-sweep/<version>").
inline constexpr int kSweepSchemaVersion = 1;
[[nodiscard]] std::string sweep_schema_tag();

/// Generated-topology cache slots (graphs are keyed by
/// SweepCell::graph_key(); eviction is least-recently-used) — also the
/// capacity the merged report's canonical "cache" block is simulated at
/// (see to_json). Each graph is released after the last cell that needs
/// it, so the capacity only matters while a key still has cells to run.
/// At threads == 1 cells run in canonical grid order, which revisits each
/// key once per program × scenario block: a capacity below the
/// distinct-key count would regenerate graphs once per block. 12 covers
/// every predefined spec's distinct keys.
inline constexpr std::size_t kDefaultGraphCacheCapacity = 12;

/// A cell with at least 2 × this many trials may be split into trial
/// shards (each worth at least this many trials) that run on different
/// workers and merge through TrialAccumulator — so one monster cell
/// cannot serialize a parallel campaign's tail. When the grid has fewer
/// cells than workers the floor drops to one trial, so a small grid
/// still fills the pool.
inline constexpr std::uint64_t kMinShardTrials = 32;

struct CampaignOptions {
  /// Threads for the whole run: the cell executor's worker-pool size, each
  /// worker running one cell or trial shard on one thread (1 = sequential
  /// on the calling thread, 0 = hardware threads). Any value produces
  /// byte-identical checkpoints, callbacks, and merged JSON — results are
  /// staged and flushed in canonical grid order regardless of completion
  /// order.
  unsigned threads = 0;
  /// This campaign owns grid cells with index % shard_count == shard_index.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Append-only JSONL checkpoint; empty disables checkpointing.
  std::string checkpoint_path;
  /// Load checkpoint_path first and skip completed cells by key. Without
  /// resume, an existing checkpoint file is truncated (fresh campaign).
  bool resume = false;
  /// Stop after this many newly-executed cells (0 = no limit). CI smokes
  /// use this as a deterministic "kill mid-campaign"; the daemon exposes it
  /// per SUBMIT for the same purpose.
  std::uint64_t max_cells = 0;
  /// Per-cell progress lines (nullptr = silent).
  std::ostream* progress = nullptr;
};

/// One cell's result. `agg_json` is TrialAggregate::to_json() — carried
/// verbatim through checkpoints, never re-formatted.
struct CellResult {
  sweep::SweepCell cell;
  bool ok = true;
  std::string error;     ///< the CheckError text when !ok
  std::string agg_json;  ///< empty when !ok
  double seconds = 0.0;  ///< wall-clock, informational (checkpoint only)
  /// Work summed over all trials of this cell: rounds executed, agent
  /// moves, whiteboard writes, and trials that met. Runtime-only (never
  /// serialized; 0 for restored cells) — the exact counters the tier-1
  /// work gate (tests/test_work_gate.cpp) pins.
  std::uint64_t total_rounds = 0;
  std::uint64_t total_moves = 0;
  std::uint64_t total_writes = 0;
  std::uint64_t trials_met = 0;
  bool from_checkpoint = false;
};

/// Bounded, thread-safe cache of generated topologies keyed by
/// SweepCell::graph_key().
///
/// Concurrency contract (the executor runs cells on several workers):
/// lookups are serialized by a mutex, but generation happens *outside* the
/// lock under an in-flight marker — concurrent requests for one key block
/// on a condition variable until the single generating worker publishes
/// the graph, so a family shared by N parallel cells is generated exactly
/// once (the hammer test pins this). Eviction is least-recently-used over
/// *published* entries; in-flight entries are never evicted, and when
/// every resident entry is in flight the cache temporarily exceeds its
/// capacity rather than blocking (capacity is a memory hint, not a
/// correctness bound). The executor release()s a key after the last unit
/// that needs it, so in a full run every graph is freed without waiting
/// for eviction.
class GraphCache {
 public:
  /// Lookup telemetry (runtime-only; never reaches a report or checkpoint).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;     ///< generations started
    std::uint64_t evictions = 0;  ///< LRU entries dropped at capacity
    std::uint64_t releases = 0;   ///< entries dropped by release()
    std::uint64_t waits = 0;  ///< get_shared calls that blocked on in-flight
  };

  explicit GraphCache(std::size_t capacity);

  /// The graph for `cell`, whose graph key is `key` (== cell.graph_key()),
  /// generated on miss. The returned shared_ptr pins the graph across
  /// eviction and release: a worker holding it keeps its topology alive
  /// even when the entry leaves the cache.
  [[nodiscard]] std::shared_ptr<const graph::Graph> get_shared(
      const sweep::SweepCell& cell, const std::string& key);

  /// Drops the published entry for `key` (a SweepCell::graph_key()), if
  /// resident: the caller needs it no more. Pinned copies stay valid. A
  /// release is not an eviction.
  void release(const std::string& key);

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::string key;
    /// Null while the generating worker builds the graph (in flight).
    std::shared_ptr<const graph::Graph> graph;
    std::uint64_t last_used = 0;
  };
  mutable std::mutex mutex_;
  std::condition_variable published_;
  std::vector<Entry> entries_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  Stats stats_;
};

// --- checkpoints -------------------------------------------------------------

/// What a checkpoint line records about a completed cell.
struct CheckpointEntry {
  bool ok = true;
  std::string agg_json;  ///< verbatim aggregate bytes
  std::string error;
  double seconds = 0.0;
};

/// Completed cells by key. A missing file yields an empty map; a torn
/// final line (interrupted mid-write) is dropped so its cell re-runs.
/// Throws a line-numbered CheckError on an unparsable line anywhere
/// before the final one — that is corruption, and silently stopping
/// there would discard every later completed cell.
[[nodiscard]] std::map<std::string, CheckpointEntry> load_checkpoint(
    const std::string& path);

/// The JSONL line Campaign appends for `result` (exposed for tests).
[[nodiscard]] std::string checkpoint_line(const CellResult& result);

/// Merges shard checkpoints into a full campaign's results (canonical
/// order). Throws CheckError naming the first missing cell when the
/// checkpoints do not cover the whole grid.
[[nodiscard]] std::vector<CellResult> results_from_checkpoints(
    const sweep::SweepSpec& spec,
    const std::vector<std::map<std::string, CheckpointEntry>>& checkpoints);

// --- reporting ---------------------------------------------------------------

/// Deterministic merged report: cells sorted by grid index, aggregate
/// bytes verbatim, no timing fields. Byte-identical for resumed vs
/// uninterrupted campaigns, for CLI vs daemon execution, and for any
/// --threads value. The "cache" block is the *canonical* graph-cache
/// workload of the full grid (an LRU simulation over canonical cell order
/// at the default capacity) — a deterministic property of the spec, not
/// the live counters of this particular run, which resume/sharding would
/// perturb (live counters are reported per run in CampaignRun). Active-fault
/// cells additionally carry a "fault" field (the plan key) and — when
/// their fault-free twin cell is present and ok — a "vs_fault_free" block
/// with the rounds overhead ratio and the success-rate drop; fault-free
/// cells keep the exact bytes they had before the fault layer existed.
[[nodiscard]] std::string to_json(const sweep::SweepSpec& spec,
                                  const std::vector<CellResult>& cells);

/// CSV rows (TrialAggregate columns, label = cell key); failed cells are
/// skipped.
[[nodiscard]] std::string to_csv(const std::vector<CellResult>& cells);

// --- the campaign object -----------------------------------------------------

/// Summary of one Campaign::run.
struct CampaignRun {
  /// This shard's cells in canonical grid order. When the campaign was
  /// stopped early (max_cells or cancel), only finished cells are present.
  std::vector<CellResult> cells;
  std::uint64_t executed = 0;  ///< cells newly run, flushed, and reported
  std::uint64_t restored = 0;  ///< cells restored from the checkpoint
  /// Cells that finished on a worker but were never flushed: a parallel
  /// run was cancelled while they sat behind an unfinished cell in the
  /// reorder buffer. Their work is discarded — flushing them would tear a
  /// hole in the canonical-prefix checkpoint — and they re-run on resume.
  /// Always 0 at threads == 1 (and under max_cells, which restricts the
  /// schedulable set instead of truncating completions).
  std::uint64_t discarded = 0;
  bool complete = false;       ///< every cell of this shard has a result
  bool cancelled = false;      ///< run stopped because cancel() was called
  /// Executor telemetry: the resolved worker count, cells split into
  /// trial shards, total work units executed, and rounds summed over
  /// newly-run cells (runtime-only).
  unsigned threads = 0;
  std::uint64_t split_cells = 0;
  std::uint64_t shards = 0;
  std::uint64_t total_rounds = 0;
  std::uint64_t graph_cache_hits = 0;
  std::uint64_t graph_cache_misses = 0;
  std::uint64_t graph_cache_evictions = 0;
  /// Graphs freed after their last cell (see GraphCache::release).
  std::uint64_t graph_cache_releases = 0;
  /// Graph lookups that blocked on another worker's in-flight generation
  /// (always 0 at threads == 1).
  std::uint64_t graph_waits = 0;
};

/// Invoked once per finished cell. Restored cells are replayed first, in
/// canonical grid order, with from_checkpoint = true — always before any
/// newly-run cell's result flushes (the resume + --threads contract); newly
/// run cells then fire in canonical grid order at any thread count. The
/// cell's checkpoint line is already flushed when the callback fires.
using CellCallback = std::function<void(const CellResult&)>;

/// One resumable, cancelable execution of a spec's shard. Construct, then
/// run() exactly once; to resume later (same process or a fresh one),
/// construct a new Campaign with options.resume = true and the same
/// checkpoint path.
class Campaign {
 public:
  /// Expands the grid and selects this shard's cells. Throws CheckError on
  /// an invalid spec or shard range.
  Campaign(sweep::SweepSpec spec, CampaignOptions options);

  [[nodiscard]] const sweep::SweepSpec& spec() const noexcept {
    return spec_;
  }
  [[nodiscard]] const CampaignOptions& options() const noexcept {
    return options_;
  }
  /// This shard's cells, canonical grid order.
  [[nodiscard]] const std::vector<sweep::SweepCell>& shard_cells()
      const noexcept {
    return cells_;
  }

  /// Executes the shard: replays checkpointed cells first (canonical
  /// order), runs the rest on the cell executor (options.threads workers,
  /// results flushed in canonical order), appends + flushes a checkpoint
  /// line per cell, and invokes `on_cell` for every finished cell. Stops
  /// early on max_cells or cancel(). Callable once.
  CampaignRun run(const CellCallback& on_cell = {});

  /// Requests a stop after the in-flight cell completes (and its
  /// checkpoint line is flushed). Safe from other threads and from signal
  /// handlers — a single relaxed atomic store.
  void cancel() noexcept { cancel_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancel_.load(std::memory_order_relaxed);
  }

 private:
  sweep::SweepSpec spec_;
  CampaignOptions options_;
  std::vector<sweep::SweepCell> cells_;
  std::atomic<bool> cancel_{false};
  bool ran_ = false;
};

}  // namespace fnr::campaign
