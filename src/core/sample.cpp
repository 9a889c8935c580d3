#include "core/sample.hpp"

#include <bit>

namespace fnr::core {

SampleRun::SampleRun(std::vector<graph::VertexId> gamma, double alpha,
                     std::size_t n, const Params& params, OverlapMemo* memo)
    : gamma_(std::move(gamma)),
      visits_total_(params.sample_visits(gamma_.size(), alpha, n)),
      threshold_(params.sample_threshold(n)),
      memo_(memo != nullptr ? memo : &owned_memo_) {
  visit_counts_.assign(gamma_.size(), 0);
}

std::optional<graph::VertexId> SampleRun::next_target(Rng& rng) {
  if (exhausted()) return std::nullopt;
  ++visits_done_;
  last_idx_ = rng.below(gamma_.size());
  return gamma_[last_idx_];
}

void SampleRun::record_visit(const sim::View& view,
                             const Knowledge& knowledge) {
  // Counted IDs are all home-mask members, so they are < mask.size(); one
  // resize up front keeps the marking allocation-free.
  const std::span<const char> mask = knowledge.home_mask();
  FNR_ASSERT(!mask.empty());
  if (counts_.size() < mask.size()) counts_.resize(mask.size(), 0);
  if (visit_counts_[last_idx_] == 0) {
    // First visit to this target in this run: the only visit that walks the
    // overlap. The memo slice (recorded now, or by an earlier run of the
    // same trial — the intersection is trial-constant) seeds each newly
    // counted ID with the marker 1, exactly when and in which order an
    // eager bump would have first touched it.
    const graph::VertexId id = gamma_[last_idx_];
    OverlapMemo& memo = *memo_;
    if (id >= memo.start.size()) {
      memo.start.resize(id + 1, OverlapMemo::kUnscanned);
      memo.len.resize(id + 1, 0);
    }
    if (memo.start[id] == OverlapMemo::kUnscanned) {
      // Never scanned in this trial: one degree-wide scan, recorded. Every
      // ID is written to the pool's end, which then advances by the ID's
      // home-mask byte, so the scan takes no branch on membership (which
      // is unpredictable and the rows do not fit in cache).
      const auto row = view.neighbor_ids();
      const std::size_t begin = memo.used;
      const std::size_t need = begin + row.size() + 1;
      if (memo.pool.size() < need) memo.pool.resize(std::bit_ceil(need));
      graph::VertexId* out = memo.pool.data() + begin;
      const std::size_t cap = mask.size();
      const auto put = [&](graph::VertexId u) {
        *out = u;
        const bool inside = u < cap;
        out += static_cast<std::size_t>(inside & (mask[inside ? u : 0] != 0));
      };
      put(view.here());  // the vertex is in its own closed neighborhood
      for (const auto u : row) put(u);
      memo.used = static_cast<std::size_t>(out - memo.pool.data());
      memo.start[id] = static_cast<std::uint32_t>(begin);
      memo.len[id] = static_cast<std::uint32_t>(memo.used - begin);
    }
    // Mark the slice's newly counted IDs, in slice order.
    const graph::VertexId* slice = memo.pool.data() + memo.start[id];
    for (std::uint32_t j = 0; j < memo.len[id]; ++j) {
      const graph::VertexId u = slice[j];
      if (counts_[u] == 0) {
        counts_[u] = 1;
        touched_.push_back(u);
      }
    }
  }
  ++visit_counts_[last_idx_];
}

std::vector<graph::VertexId> SampleRun::heavy_output(
    const Knowledge& knowledge) {
  (void)knowledge;  // referenced only by the debug assertion below
  if (!settled_) {
    // Settle the deferred visits: each visit of target i contributed +1 to
    // every ID in its overlap slice. Then drop the provisional markers, so
    // counts_ holds exactly what eager per-visit bumping would have.
    settled_ = true;
    for (std::size_t i = 0; i < gamma_.size(); ++i) {
      const std::uint64_t visits = visit_counts_[i];
      if (visits == 0) continue;
      const std::uint32_t start = memo_->start[gamma_[i]];
      const std::uint32_t len = memo_->len[gamma_[i]];
      for (std::uint32_t j = 0; j < len; ++j)
        counts_[memo_->pool[start + j]] += visits;
    }
    for (const auto u : touched_) counts_[u] -= 1;
  }
  std::vector<graph::VertexId> heavy;
  for (const auto u : touched_) {
    FNR_ASSERT(knowledge.in_home_closed(u));
    if (counts_[u] >= threshold_) heavy.push_back(u);
  }
  return heavy;
}

}  // namespace fnr::core
