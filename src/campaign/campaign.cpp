#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/executor.hpp"
#include "runner/trial_runner.hpp"
#include "scenario/run.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace fnr::campaign {

using sweep::SweepCell;
using sweep::SweepSpec;

std::string sweep_schema_tag() {
  return "fnr-sweep/" + std::to_string(kSweepSchemaVersion);
}

// --- graph cache -------------------------------------------------------------

GraphCache::GraphCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::shared_ptr<const graph::Graph> GraphCache::get_shared(
    const SweepCell& cell, const std::string& key) {
  std::unique_lock<std::mutex> lock(mutex_);
  bool waited = false;
  for (;;) {
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const Entry& e) { return e.key == key; });
    if (it == entries_.end()) break;
    if (it->graph != nullptr) {
      it->last_used = ++tick_;
      ++stats_.hits;
      return it->graph;
    }
    // Another worker is generating this key: wait for publication, then
    // rescan (the generator may have failed and withdrawn the entry).
    if (!waited) ++stats_.waits;
    waited = true;
    published_.wait(lock);
  }
  ++stats_.misses;
  // Evict published LRU entries while at capacity. In-flight entries are
  // never evicted; if everything resident is in flight, temporarily
  // exceed capacity rather than block (capacity is a memory hint).
  while (entries_.size() >= capacity_) {
    auto lru = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if (it->graph != nullptr &&
          (lru == entries_.end() || it->last_used < lru->last_used))
        lru = it;
    if (lru == entries_.end()) break;
    entries_.erase(lru);
    ++stats_.evictions;
  }
  entries_.push_back(Entry{key, nullptr, ++tick_});
  lock.unlock();

  std::shared_ptr<const graph::Graph> built;
  try {
    built = std::make_shared<graph::Graph>(
        cell.topology.build(cell.n, cell.seed));
  } catch (...) {
    // Withdraw the in-flight marker so waiters retry (and rethrow the
    // same deterministic error themselves).
    lock.lock();
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const Entry& e) {
                                    return e.key == key && e.graph == nullptr;
                                  }),
                   entries_.end());
    published_.notify_all();
    throw;
  }

  lock.lock();
  const auto it = std::find_if(
      entries_.begin(), entries_.end(), [&](const Entry& e) {
        return e.key == key && e.graph == nullptr;
      });
  FNR_CHECK_MSG(it != entries_.end(),
                "graph cache: in-flight entry for '" << key << "' vanished");
  it->graph = built;
  it->last_used = ++tick_;
  published_.notify_all();
  return built;
}

void GraphCache::release(const std::string& key) {
  std::shared_ptr<const graph::Graph> freed;  // dies after the unlock
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find_if(
      entries_.begin(), entries_.end(), [&](const Entry& e) {
        return e.key == key && e.graph != nullptr;
      });
  if (it == entries_.end()) return;
  freed = std::move(it->graph);
  entries_.erase(it);
  ++stats_.releases;
}

GraphCache::Stats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// --- checkpoints -------------------------------------------------------------

namespace {

CheckpointEntry parse_checkpoint_line(const std::string& line,
                                      std::string* key_out) {
  JsonCursor cursor(line, "sweep checkpoint");
  CheckpointEntry entry;
  bool have_key = false;
  cursor.object([&](const std::string& field) {
    if (field == "key") {
      *key_out = cursor.parse_string();
      have_key = true;
    } else if (field == "ok") {
      entry.ok = cursor.parse_bool();
    } else if (field == "seconds") {
      entry.seconds = cursor.parse_number();
    } else if (field == "agg") {
      entry.agg_json = cursor.capture_value();
    } else if (field == "error") {
      entry.error = cursor.parse_string();
    } else {
      FNR_REQUIRE(false, "sweep checkpoint: unknown field '" << field << "'");
    }
  });
  cursor.expect_end();
  FNR_REQUIRE(have_key, "sweep checkpoint: line without a cell key");
  FNR_REQUIRE(entry.ok == !entry.agg_json.empty(),
              "sweep checkpoint: ok cells must carry 'agg', failed cells "
              "must not");
  return entry;
}

}  // namespace

std::map<std::string, CheckpointEntry> load_checkpoint(
    const std::string& path) {
  std::map<std::string, CheckpointEntry> done;
  std::ifstream in(path);
  if (!in.good()) return done;  // no checkpoint yet — nothing to resume
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  // Only the final non-empty line can legitimately be unparsable: lines
  // are flushed per cell, so a kill mid-write tears at most the last one.
  std::size_t last = lines.size();
  while (last > 0 && lines[last - 1].empty()) --last;
  for (std::size_t i = 0; i < last; ++i) {
    if (lines[i].empty()) continue;
    std::string key;
    try {
      CheckpointEntry entry = parse_checkpoint_line(lines[i], &key);
      done[key] = std::move(entry);
    } catch (const CheckError& error) {
      if (i + 1 == last) break;  // torn final line: drop it, cell re-runs
      // A bad line with intact records after it is corruption, not an
      // interrupt signature. The old behavior — stop scanning — silently
      // discarded every later completed cell; fail loudly instead.
      throw CheckError("sweep checkpoint '" + path + "' line " +
                       std::to_string(i + 1) + ": " + error.what());
    }
  }
  return done;
}

namespace {

std::string checkpoint_line_for(const std::string& key, bool ok,
                                const std::string& agg_json,
                                const std::string& error, double seconds) {
  JsonWriter json;
  json.begin_object().key("key").string(key).key("ok").boolean(ok);
  if (ok)
    json.key("agg").raw(agg_json);
  else
    json.key("error").string(error);
  return json.key("seconds").number(seconds, 6).end_object().str();
}

CellResult restored_result(const SweepCell& cell,
                           const CheckpointEntry& entry) {
  CellResult result;
  result.cell = cell;
  result.ok = entry.ok;
  result.agg_json = entry.agg_json;
  result.error = entry.error;
  result.seconds = entry.seconds;
  result.from_checkpoint = true;
  return result;
}

}  // namespace

std::string checkpoint_line(const CellResult& result) {
  return checkpoint_line_for(result.cell.key(), result.ok, result.agg_json,
                             result.error, result.seconds);
}

std::vector<CellResult> results_from_checkpoints(
    const SweepSpec& spec,
    const std::vector<std::map<std::string, CheckpointEntry>>& checkpoints) {
  std::vector<CellResult> results;
  for (const auto& cell : sweep::expand(spec)) {
    const std::string key = cell.key();
    const CheckpointEntry* found = nullptr;
    for (const auto& checkpoint : checkpoints) {
      const auto it = checkpoint.find(key);
      if (it != checkpoint.end()) {
        found = &it->second;
        break;
      }
    }
    FNR_CHECK_MSG(found != nullptr,
                  "merge: no checkpoint covers cell '" << key << "'");
    results.push_back(restored_result(cell, *found));
  }
  return results;
}

// --- execution ---------------------------------------------------------------

Campaign::Campaign(SweepSpec spec, CampaignOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  FNR_CHECK_MSG(options_.shard_count >= 1 &&
                    options_.shard_index < options_.shard_count,
                "shard index " << options_.shard_index << " not in [0, "
                               << options_.shard_count << ")");
  for (auto& cell : sweep::expand(spec_))
    if (cell.index % options_.shard_count == options_.shard_index)
      cells_.push_back(std::move(cell));
}

CampaignRun Campaign::run(const CellCallback& on_cell) {
  FNR_CHECK_MSG(!ran_, "Campaign::run is callable once; construct a new "
                       "Campaign (with resume) to continue");
  ran_ = true;

  std::map<std::string, CheckpointEntry> done;
  if (options_.resume && !options_.checkpoint_path.empty())
    done = load_checkpoint(options_.checkpoint_path);

  std::ofstream checkpoint;
  if (!options_.checkpoint_path.empty()) {
    // Always rewrite from the loaded entries rather than appending to the
    // raw file: a campaign killed mid-write leaves a torn, newline-less
    // final line, and appending after it would corrupt the next record
    // (silently dropping every later cell on the *following* resume).
    // The rewrite goes through a temp file + rename so a kill during the
    // rewrite itself cannot lose already-completed cells either.
    const std::string tmp_path = options_.checkpoint_path + ".tmp";
    {
      std::ofstream rewrite(tmp_path, std::ios::trunc);
      FNR_CHECK_MSG(rewrite.good(), "cannot open checkpoint temp '"
                                        << tmp_path << "' for writing");
      for (const auto& [key, entry] : done)
        rewrite << checkpoint_line_for(key, entry.ok, entry.agg_json,
                                       entry.error, entry.seconds)
                << "\n";
      rewrite.flush();
      FNR_CHECK_MSG(rewrite.good(),
                    "checkpoint rewrite to '" << tmp_path << "' failed");
    }
    FNR_CHECK_MSG(
        std::rename(tmp_path.c_str(), options_.checkpoint_path.c_str()) == 0,
        "cannot replace checkpoint '" << options_.checkpoint_path << "'");
    checkpoint.open(options_.checkpoint_path, std::ios::app);
    FNR_CHECK_MSG(checkpoint.good(), "cannot open checkpoint '"
                                         << options_.checkpoint_path
                                         << "' for writing");
  }

  CampaignRun result;
  std::vector<CellResult> staged(cells_.size());
  std::vector<char> have(cells_.size(), 0);

  // Restored cells replay first, in canonical grid order — always before
  // any newly-run cell's result flushes, whatever the thread count (the
  // resume + --threads contract: a streaming client sees the full replay
  // prefix, then live results, in one canonical sequence).
  std::vector<SweepCell> pending;
  std::vector<std::size_t> pending_slots;
  for (std::size_t slot = 0; slot < cells_.size(); ++slot) {
    const SweepCell& cell = cells_[slot];
    if (const auto it = done.find(cell.key()); it != done.end()) {
      staged[slot] = restored_result(cell, it->second);
      have[slot] = 1;
      ++result.restored;
      if (on_cell) on_cell(staged[slot]);
    } else {
      pending.push_back(cell);
      pending_slots.push_back(slot);
    }
  }

  // The executor runs the rest (inline at threads == 1, on a worker pool
  // above) and emits finished results on this thread in exactly the
  // pending order — the contiguous canonical prefix. Checkpoint writes,
  // progress lines, and the callback all happen here, serialized.
  ExecutorOptions eopts;
  eopts.threads = options_.threads;
  eopts.max_cells = options_.max_cells;
  CellExecutor executor(eopts);

  std::size_t emitted = 0;
  const auto emit = [&](CellResult&& cell_result) {
    const std::size_t slot = pending_slots[emitted++];
    staged[slot] = std::move(cell_result);
    have[slot] = 1;
    ++result.executed;
    if (checkpoint.is_open()) {
      checkpoint << checkpoint_line(staged[slot]) << "\n" << std::flush;
      FNR_CHECK_MSG(checkpoint.good(), "checkpoint write to '"
                                           << options_.checkpoint_path
                                           << "' failed");
    }
    if (options_.progress != nullptr) {
      const auto& r = staged[slot];
      *options_.progress << "[" << (result.executed + result.restored) << "/"
                         << cells_.size() << "] " << r.cell.key() << " — "
                         << (r.ok ? "ok" : "FAILED") << " ("
                         << format_double(r.seconds, 3) << "s)\n";
    }
    if (on_cell) on_cell(staged[slot]);
  };

  const ExecutorStats stats = executor.run(pending, emit, cancel_);
  if (cancel_requested()) result.cancelled = true;

  result.threads = stats.threads;
  result.discarded = stats.discarded;
  result.split_cells = stats.split_cells;
  result.shards = stats.shards;
  result.total_rounds = stats.total_rounds;
  result.graph_cache_hits = stats.graph_cache.hits;
  result.graph_cache_misses = stats.graph_cache.misses;
  result.graph_cache_evictions = stats.graph_cache.evictions;
  result.graph_cache_releases = stats.graph_cache.releases;
  result.graph_waits = stats.graph_cache.waits;

  for (std::size_t i = 0; i < staged.size(); ++i)
    if (have[i]) result.cells.push_back(std::move(staged[i]));
  result.complete = result.cells.size() == cells_.size();
  return result;
}

// --- reporting ---------------------------------------------------------------

namespace {

/// The canonical graph-cache workload of a spec: an LRU simulation over
/// the full grid in canonical cell order at the default capacity. A pure
/// function of the spec text — never of this run's thread count, shard,
/// resume point, or configured capacity — so the merged report's "cache"
/// block cannot break the byte-identity contract (the *live* counters,
/// which resume and sharding legitimately perturb, are reported in
/// CampaignRun instead and pinned against this block by the hammer test
/// for fresh, unsharded, default-capacity runs).
struct CacheWorkload {
  std::uint64_t lookups = 0;
  std::uint64_t graph_keys = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

CacheWorkload simulate_cache_workload(const SweepSpec& spec) {
  CacheWorkload load;
  struct Slot {
    std::string key;
    std::uint64_t last_used = 0;
  };
  std::vector<Slot> slots;
  std::map<std::string, char> seen;
  std::uint64_t tick = 0;
  for (const auto& cell : sweep::expand(spec)) {
    const std::string key = cell.graph_key();
    ++load.lookups;
    ++tick;
    if (seen.emplace(key, 1).second) ++load.graph_keys;
    const auto it = std::find_if(slots.begin(), slots.end(),
                                 [&](const Slot& s) { return s.key == key; });
    if (it != slots.end()) {
      it->last_used = tick;
      ++load.hits;
      continue;
    }
    ++load.misses;
    if (slots.size() >= kDefaultGraphCacheCapacity) {
      slots.erase(std::min_element(slots.begin(), slots.end(),
                                   [](const Slot& a, const Slot& b) {
                                     return a.last_used < b.last_used;
                                   }));
      ++load.evictions;
    }
    slots.push_back(Slot{key, tick});
  }
  return load;
}

}  // namespace

std::string to_json(const SweepSpec& spec,
                    const std::vector<CellResult>& cells) {
  std::vector<const CellResult*> ordered;
  ordered.reserve(cells.size());
  for (const auto& cell : cells) ordered.push_back(&cell);
  std::sort(ordered.begin(), ordered.end(),
            [](const CellResult* a, const CellResult* b) {
              return a->cell.index < b->cell.index;
            });
  // Fault-free twins by key: a faulty cell differs from its control only
  // by the `|fault=...` key suffix, so stripping the plan finds the twin
  // and the report can carry robustness deltas (success under f, overhead
  // vs fault-free) without a second campaign. Twin lookup walks verbatim
  // aggregate bytes, so the deltas are as deterministic as the cells.
  std::map<std::string, const CellResult*> fault_free;
  for (const CellResult* r : ordered)
    if (r->ok && !r->cell.fault.active()) fault_free[r->cell.key()] = r;
  const CacheWorkload cache = simulate_cache_workload(spec);
  JsonWriter cache_json;
  cache_json.begin_object()
      .key("lookups").uint64(cache.lookups)
      .key("graph_keys").uint64(cache.graph_keys)
      .key("hits").uint64(cache.hits)
      .key("misses").uint64(cache.misses)
      .key("evictions").uint64(cache.evictions)
      .end_object();
  // The outer frame is literal text (its line breaks are pinned bytes);
  // every value inside it comes from JsonWriter.
  std::string out = "{\n  \"schema\": " +
                    JsonWriter().string(sweep_schema_tag()).str() +
                    ",\n  \"spec\": " + JsonWriter().string(spec.name).str() +
                    ",\n  \"cache\": " + cache_json.str() +
                    ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const CellResult& r = *ordered[i];
    JsonWriter json;
    json.begin_object()
        .key("key").string(r.cell.key())
        .key("program").string(scenario::to_string(r.cell.program))
        .key("scenario").string(r.cell.scenario)
        .key("topology").string(r.cell.topology.key())
        .key("n").uint64(r.cell.n)
        .key("achieved_n").uint64(r.cell.achieved_n)
        .key("seed").uint64(r.cell.seed)
        .key("trials").uint64(r.cell.trials);
    if (r.cell.gather.has_value())
      json.key("gather").string(sim::to_string(*r.cell.gather));
    if (r.cell.k.has_value()) json.key("k").uint64(*r.cell.k);
    if (r.cell.fault.active()) json.key("fault").string(r.cell.fault.key());
    json.key("ok").boolean(r.ok);
    if (r.ok) {
      json.key("agg").raw(r.agg_json);
      if (r.cell.fault.active()) {
        SweepCell twin = r.cell;
        twin.fault = fault::FaultPlan{};
        // The block is emitted only when the report actually contains a
        // usable control: the twin may be missing entirely (sharded run
        // with the twin in another shard, or a truncated cell set), and a
        // control with no finished rounds would make the overhead ratio
        // meaningless. In both cases the cell simply carries no
        // vs_fault_free block rather than fabricated numbers.
        const auto it = fault_free.find(twin.key());
        if (it != fault_free.end()) {
          const auto control =
              runner::TrialAggregate::from_json(it->second->agg_json);
          if (control.rounds.mean > 0.0) {
            const auto faulty = runner::TrialAggregate::from_json(r.agg_json);
            json.key("vs_fault_free").begin_object()
                .key("rounds_overhead")
                .number(faulty.rounds.mean / control.rounds.mean, 4)
                .key("success_drop")
                .number(control.success_rate - faulty.success_rate, 4)
                .end_object();
          }
        }
      }
    } else {
      json.key("error").string(r.error);
    }
    out += "    " + json.end_object().str();
    out += i + 1 < ordered.size() ? ",\n" : "\n";
  }
  out += "  ]\n}";
  return out;
}

std::string to_csv(const std::vector<CellResult>& cells) {
  std::vector<const CellResult*> ordered;
  ordered.reserve(cells.size());
  for (const auto& cell : cells) ordered.push_back(&cell);
  std::sort(ordered.begin(), ordered.end(),
            [](const CellResult* a, const CellResult* b) {
              return a->cell.index < b->cell.index;
            });
  std::ostringstream os;
  os << runner::TrialAggregate::csv_header() << "\n";
  for (const CellResult* r : ordered) {
    if (!r->ok) continue;  // failed cells have no aggregate columns
    os << runner::TrialAggregate::from_json(r->agg_json)
              .to_csv_row(r->cell.key())
       << "\n";
  }
  return os.str();
}

}  // namespace fnr::campaign
