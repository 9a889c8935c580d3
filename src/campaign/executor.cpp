#include "campaign/executor.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <thread>
#include <vector>

#include "runner/trial_runner.hpp"
#include "scenario/run.hpp"
#include "scenario/scenario.hpp"

namespace fnr::campaign {

using sweep::SweepCell;

// --- the pick ----------------------------------------------------------------

std::size_t pick_unit(const std::vector<QueuedUnit>& units) {
  const auto before = [](const QueuedUnit& a, const QueuedUnit& b) {
    if (a.blocked != b.blocked) return !a.blocked;
    return std::tie(a.graph, a.index, a.shard) <
           std::tie(b.graph, b.index, b.shard);
  };
  return static_cast<std::size_t>(
      std::min_element(units.begin(), units.end(), before) - units.begin());
}

// --- executor ----------------------------------------------------------------

namespace {

/// The distinct graph keys of a run's cells, sorted — so comparing ids
/// compares keys — and each cell's key id.
struct GraphKeys {
  std::vector<std::string> names;
  std::vector<std::size_t> of_cell;
};

GraphKeys index_graph_keys(const std::vector<SweepCell>& cells) {
  std::vector<std::string> per_cell;
  per_cell.reserve(cells.size());
  for (const SweepCell& cell : cells) per_cell.push_back(cell.graph_key());
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return per_cell[a] < per_cell[b];
  });
  GraphKeys keys;
  keys.names.reserve(cells.size());
  keys.of_cell.resize(cells.size());
  for (const std::size_t i : order) {
    if (keys.names.empty() || keys.names.back() != per_cell[i])
      keys.names.push_back(std::move(per_cell[i]));
    keys.of_cell[i] = keys.names.size() - 1;
  }
  return keys;
}

/// How many shards a cell of `trials` trials splits into when `cells`
/// cells share `workers` workers: at most one per worker, and only when
/// each gets at least kMinShardTrials trials. A grid with fewer cells than
/// workers cannot fill the pool with whole cells, so its floor drops to
/// one trial. A pure function of its arguments, never of timing — and
/// shards are invisible in the merged bytes either way.
std::uint64_t shard_count(std::uint64_t trials, unsigned workers,
                          std::size_t cells) {
  const std::uint64_t floor = cells < workers ? 1 : kMinShardTrials;
  if (trials < 2 * floor) return 1;
  return std::min<std::uint64_t>(workers, trials / floor);
}

/// A shard's failed chunk: its first trial and the CheckError text.
struct ShardError {
  std::uint64_t first = 0;
  std::string text;  ///< empty = shard ok
};

/// Shared per-cell completion state. Shards claim chunks of the cell's
/// trials from `next` and write disjoint slots of accs/errors; the final
/// fetch_sub(acq_rel) hands the merge to the last finisher with all
/// writes visible.
struct CellState {
  std::atomic<std::uint64_t> remaining{0};
  std::atomic<std::uint64_t> next{0};  ///< first unclaimed trial
  std::atomic<bool> failed{false};
  std::vector<runner::TrialAccumulator> accs;
  std::vector<ShardError> errors;
  std::chrono::steady_clock::time_point start{};
  bool started = false;  ///< guarded by the queue mutex
  std::uint64_t shard_count = 1;
};

/// Runs one shard of `cell` into `acc`, on the graph `pin_graph()` pins
/// (a GraphCache::get_shared call). The shard claims chunks of the
/// cell's trials until none are left, by guided self-scheduling: each claim
/// takes half an even share of what remains (at least one trial), so chunks
/// start large and shrink toward the end, and a shard on a slower core
/// simply claims fewer. An unsplit cell claims all its trials at once.
/// Which shard runs which trials depends on timing; the merged bytes do
/// not.
///
/// A CheckError becomes the shard's recorded failure — the same catch
/// boundary the sequential path has always had, so a cell that cannot run
/// is a recorded result, not a dead campaign.
template <typename PinGraph>
void run_shard(const SweepCell& cell, CellState& state,
               const PinGraph& pin_graph,
               const runner::TrialRunner& trial_runner,
               runner::TrialAccumulator* acc, ShardError* error) {
  std::uint64_t first = 0;
  try {
    const std::shared_ptr<const graph::Graph> g = pin_graph();
    scenario::Scenario scen = scenario::find_scenario(cell.scenario);
    // Axis overrides run the registered scenario with fields swapped
    // (expand() already pruned overrides the scenario cannot host): the
    // `agents` axis replaces k, the `gathers` axis the predicate.
    if (cell.k.has_value()) scen.num_agents = *cell.k;
    if (cell.gather.has_value()) scen.gathering = *cell.gather;
    scenario::ScenarioOptions options;
    options.seed = cell.seed;
    options.fault = cell.fault;
    first = state.next.load(std::memory_order_relaxed);
    while (first < cell.trials &&
           !state.failed.load(std::memory_order_relaxed)) {
      const std::uint64_t left = cell.trials - first;
      const std::uint64_t count =
          state.shard_count == 1
              ? left
              : std::max<std::uint64_t>(1, left / (2 * state.shard_count));
      if (!state.next.compare_exchange_weak(first, first + count,
                                            std::memory_order_relaxed))
        continue;  // `first` now holds the current cursor
      acc->merge(scenario::run_scenario_trial_span(
          scen, cell.program, *g, options, first, count, trial_runner));
      first = state.next.load(std::memory_order_relaxed);
    }
  } catch (const CheckError& e) {
    // Claims only move forward, so every chunk below this one is already
    // claimed and records its own failure: assemble() keeps the lowest,
    // whatever the timing. A failure before the first claim (graph or
    // scenario) is the same in every shard.
    std::string text = e.what();
    if (text.empty()) text = "CheckError";
    *error = ShardError{first, std::move(text)};
    state.failed.store(true, std::memory_order_relaxed);
  }
}

/// Assembles the finished cell's result from its shard accumulators.
/// Shard boundaries are invisible: merge() is multiset-associative and
/// aggregate() canonicalizes by trial index, so the bytes equal an
/// unsharded run's.
CellResult assemble(const SweepCell& cell, CellState& state) {
  CellResult result;
  result.cell = cell;
  // The failure of the lowest failing chunk is the one a sequential run,
  // which stops at its first failing trial, would record.
  const ShardError* error = nullptr;
  for (const ShardError& e : state.errors)
    if (!e.text.empty() && (error == nullptr || e.first < error->first))
      error = &e;
  if (error != nullptr) {
    result.ok = false;
    result.error = error->text;
  } else {
    runner::TrialAccumulator merged;
    for (const auto& acc : state.accs) merged.merge(acc);
    for (const auto& out : merged.sorted_outcomes()) {
      result.total_rounds += out.rounds;
      result.total_moves += out.moves_a + out.moves_b;
      result.total_writes += out.whiteboard_marks;
      result.trials_met += out.met ? 1 : 0;
    }
    result.agg_json = merged.aggregate().to_json();
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - state.start)
                       .count();
  return result;
}

}  // namespace

CellExecutor::CellExecutor(ExecutorOptions options)
    : options_(std::move(options)) {}

ExecutorStats CellExecutor::run(const std::vector<SweepCell>& cells,
                                const std::function<void(CellResult&&)>& emit,
                                const std::atomic<bool>& cancel) {
  ExecutorStats stats;
  GraphCache cache(kDefaultGraphCacheCapacity);

  unsigned threads = options_.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  stats.threads = threads;
  // The worker pool is the run's only parallelism: every unit runs its
  // trials on one thread.
  const runner::TrialRunner trial_runner(runner::RunnerOptions{1});

  // max_cells restricts the *schedulable set* to the first N pending
  // cells — not started-cell count in completion order. The started set is
  // then a canonical prefix, so every cell that runs also flushes, the
  // executed set matches the sequential path exactly, and a paused
  // parallel campaign never burns work on cells it must discard.
  const std::size_t limit =
      options_.max_cells > 0
          ? static_cast<std::size_t>(std::min<std::uint64_t>(
                options_.max_cells, cells.size()))
          : cells.size();

  // Graph lifecycle, the same on both paths: units left per graph key; the
  // unit that takes a key's count to zero releases its graph. Every cell
  // counts one unit (a split cell adds its extra shards below), so a key
  // with units left — cells past max_cells, or a cancel — is never
  // released.
  const GraphKeys keys = index_graph_keys(cells);
  std::vector<std::uint64_t> units_left(keys.names.size(), 0);
  for (const std::size_t key : keys.of_cell) ++units_left[key];

  // --- threads == 1: inline on the calling thread — the reference path the
  // parallel one is pinned against (no pool, no staging, no split cells).
  if (threads == 1) {
    for (std::size_t slot = 0; slot < limit; ++slot) {
      if (cancel.load(std::memory_order_relaxed)) break;
      const SweepCell& cell = cells[slot];
      CellState state;
      state.start = std::chrono::steady_clock::now();
      state.accs.resize(1);
      state.errors.resize(1);
      const std::size_t key = keys.of_cell[slot];
      run_shard(
          cell, state,
          [&] { return cache.get_shared(cell, keys.names[key]); },
          trial_runner, &state.accs[0], &state.errors[0]);
      if (--units_left[key] == 0) cache.release(keys.names[key]);
      CellResult result = assemble(cell, state);
      stats.total_rounds += result.total_rounds;
      ++stats.shards;
      ++stats.executed;
      emit(std::move(result));
    }
    stats.graph_cache = cache.stats();
    return stats;
  }

  // --- parallel path ---------------------------------------------------------

  // Build the unit list: one unit per cell, or several shards for cells
  // big enough to split (see shard_count).
  std::vector<CellState> states(cells.size());
  std::vector<QueuedUnit> queue;
  for (std::size_t slot = 0; slot < limit; ++slot) {
    const SweepCell& cell = cells[slot];
    const std::uint64_t shards = shard_count(cell.trials, threads, limit);
    CellState& state = states[slot];
    state.shard_count = shards;
    state.remaining.store(shards, std::memory_order_relaxed);
    state.accs.resize(shards);
    state.errors.resize(shards);
    if (shards > 1) ++stats.split_cells;
    const std::size_t key = keys.of_cell[slot];
    units_left[key] += shards - 1;
    for (std::uint64_t s = 0; s < shards; ++s)
      queue.push_back(QueuedUnit{slot, s, key, cell.index});
  }

  // Per graph key: unclaimed until a worker pops its first unit, building
  // until that worker's lookup settles (published, or failed), then ready.
  // Units of a building key are blocked (see pick_unit).
  enum class GraphState : unsigned char { kUnclaimed, kBuilding, kReady };
  std::vector<GraphState> graph_state(keys.names.size(),
                                      GraphState::kUnclaimed);

  // Shared scheduling + staging state. The queue mutex serializes pops
  // (each pop refreshes every remaining unit's blocked flag and takes
  // pick_unit's choice) and guards graph_state and units_left; the stage
  // mutex hands finished results to the calling thread, which alone runs
  // emit() in canonical slot order.
  std::mutex queue_mutex;
  std::atomic<bool> stop{false};

  std::mutex stage_mutex;
  std::condition_variable stage_cv;
  std::vector<std::optional<CellResult>> staged(cells.size());
  unsigned active_workers = 0;
  std::exception_ptr worker_error;

  struct Popped {
    QueuedUnit unit;
    bool builds = false;  ///< this unit claimed its graph key
  };
  auto pop_unit = [&]() -> std::optional<Popped> {
    if (stop.load(std::memory_order_relaxed) ||
        cancel.load(std::memory_order_relaxed))
      return std::nullopt;
    std::lock_guard<std::mutex> lock(queue_mutex);
    for (QueuedUnit& unit : queue)
      unit.blocked = graph_state[unit.graph] == GraphState::kBuilding;
    const std::size_t best = pick_unit(queue);
    if (best == queue.size()) return std::nullopt;
    Popped popped{queue[best]};
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
    // Claim an unclaimed key here, under the queue lock, so no other
    // worker takes a unit of the same unbuilt key before this one reaches
    // get_shared.
    if (graph_state[popped.unit.graph] == GraphState::kUnclaimed) {
      graph_state[popped.unit.graph] = GraphState::kBuilding;
      popped.builds = true;
    }
    CellState& state = states[popped.unit.slot];
    if (!state.started) {
      state.started = true;
      state.start = std::chrono::steady_clock::now();
    }
    return popped;
  };

  auto worker = [&]() {
    try {
      for (;;) {
        const std::optional<Popped> popped = pop_unit();
        if (!popped.has_value()) break;
        const QueuedUnit& unit = popped->unit;
        const SweepCell& cell = cells[unit.slot];
        CellState& state = states[unit.slot];
        // The claiming worker marks its key ready as soon as the lookup
        // settles — not when its unit finishes — so sibling units start
        // while a long first cell still runs.
        const auto pin_graph = [&] {
          const std::string& key = keys.names[unit.graph];
          if (!popped->builds) return cache.get_shared(cell, key);
          const auto ready = [&] {
            std::lock_guard<std::mutex> lock(queue_mutex);
            graph_state[unit.graph] = GraphState::kReady;
          };
          try {
            std::shared_ptr<const graph::Graph> g =
                cache.get_shared(cell, key);
            ready();
            return g;
          } catch (...) {
            ready();
            throw;
          }
        };
        run_shard(cell, state, pin_graph, trial_runner,
                  &state.accs[unit.shard], &state.errors[unit.shard]);
        bool last_use = false;
        {
          std::lock_guard<std::mutex> lock(queue_mutex);
          last_use = --units_left[unit.graph] == 0;
        }
        if (last_use) cache.release(keys.names[unit.graph]);
        if (state.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          // Last shard standing: merge, measure, stage for the flusher.
          CellResult result = assemble(cell, state);
          {
            std::lock_guard<std::mutex> lock(stage_mutex);
            staged[unit.slot] = std::move(result);
          }
          stage_cv.notify_all();
        }
        {
          std::lock_guard<std::mutex> lock(stage_mutex);
          ++stats.shards;
        }
      }
    } catch (...) {
      // Non-CheckError escapes (CheckErrors became results above): record
      // the first, stop the pool, and let the flusher unwind.
      std::lock_guard<std::mutex> lock(stage_mutex);
      if (!worker_error) worker_error = std::current_exception();
      stop.store(true, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(stage_mutex);
      --active_workers;
    }
    stage_cv.notify_all();
  };

  const unsigned worker_count =
      static_cast<unsigned>(std::min<std::size_t>(threads, queue.size()));
  std::vector<std::thread> pool;
  pool.reserve(worker_count);
  {
    std::lock_guard<std::mutex> lock(stage_mutex);
    active_workers = worker_count;
  }
  for (unsigned w = 0; w < worker_count; ++w) pool.emplace_back(worker);

  // The reorder buffer's flush loop: emit the contiguous canonical prefix
  // as it completes, on this thread only. An emit() failure (e.g. a full
  // disk under the checkpoint writer) stops the pool and rethrows after
  // the workers drain.
  std::size_t next = 0;
  std::exception_ptr emit_error;
  {
    std::unique_lock<std::mutex> lock(stage_mutex);
    for (;;) {
      stage_cv.wait(lock, [&] {
        return active_workers == 0 ||
               (next < staged.size() && staged[next].has_value());
      });
      while (next < staged.size() && staged[next].has_value()) {
        CellResult result = std::move(*staged[next]);
        staged[next].reset();
        ++next;
        lock.unlock();
        try {
          stats.total_rounds += result.total_rounds;
          ++stats.executed;
          emit(std::move(result));
        } catch (...) {
          emit_error = std::current_exception();
          stop.store(true, std::memory_order_relaxed);
        }
        lock.lock();
        if (emit_error) break;
      }
      if (emit_error) break;
      if (active_workers == 0 &&
          !(next < staged.size() && staged[next].has_value()))
        break;
    }
    // On an emit failure, wait out the pool under the predicate (workers
    // may still be staging).
    if (emit_error)
      stage_cv.wait(lock, [&] { return active_workers == 0; });
  }
  for (std::thread& thread : pool) thread.join();
  if (emit_error) std::rethrow_exception(emit_error);
  if (worker_error) std::rethrow_exception(worker_error);

  for (std::size_t i = next; i < staged.size(); ++i)
    if (staged[i].has_value()) ++stats.discarded;
  stats.graph_cache = cache.stats();
  return stats;
}

}  // namespace fnr::campaign
