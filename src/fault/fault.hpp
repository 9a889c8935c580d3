// Deterministic fault & churn injection (the robustness lab).
//
// The paper's strategies assume a reliable substrate: agents never die,
// whiteboard writes always land, the graph never flaps. Real deployments
// break all three, so this layer turns the deterministic sweep grid into a
// robustness lab: a FaultPlan names which injection sites are armed (in the
// style of ydb's TFailureInjector::Set — per-site skip/count windows around
// a Bernoulli rate), a FaultSession draws every fault from one per-trial
// split RNG stream, and the Scheduler consults the session behind a
// null-pointer guard so fault-free runs stay bit-identical to a build
// without this module at all.
//
// Fault families (one injection site each):
//   crash     an awake agent loses all program state and is inert for
//             `downtime` rounds, then restarts from a fresh instance on its
//             current vertex with its local clock back at 0
//   wb-drop   a whiteboard write silently fails to land
//   wb-wipe   every whiteboard is erased at the start of the round
//   wb-stale  a whiteboard read misses the stored value (observes ⊥)
//   churn     per-round edge down-masks: a move over a down edge is blocked
//             (the agent holds position; both directions agree)
//
// Determinism. Crash/drop/wipe/stale draw from the session's Rng in the
// scheduler's fixed visit order (wipe, then per-agent crash + step reads,
// then writes in agent-index order), so one (plan, seed) pair replays
// exactly. Churn is *stateless*: an edge's up/down bit is a splitmix64 hash
// of (session seed, round, unordered endpoint pair), so probing liveness
// never perturbs the RNG stream and any observer sees the same mask.
//
// Spec grammar (sweep axis `faults =`, canonical key = FaultPlan::key;
// each clause goes through the shared token parser, util/spec_token.hpp):
//   none | clause[+clause...]   clause := family[?key=value[&key=value...]]
// e.g. "crash?rate=0.01", "wb-drop?rate=0.2+churn?rate=0.05&skip=16".
// Every family takes rate (Bernoulli fire probability per opportunity),
// skip (opportunities passed through before arming), count (max fires,
// 0 = unlimited); crash additionally takes downtime (rounds down before
// the restart, >= 1). For churn, skip/count delimit a round window
// [skip, skip+count) of flapping instead of counting fires.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace fnr::sim {
class Agent;
}  // namespace fnr::sim

namespace fnr::fault {

/// The named injection sites, in canonical (key) order.
enum class Site : std::size_t {
  AgentCrash = 0,
  WhiteboardDrop,
  WhiteboardWipe,
  WhiteboardStale,
  EdgeChurn,
};
inline constexpr std::size_t kNumSites = 5;

/// The site's spec-grammar family name (e.g. "wb-drop").
[[nodiscard]] const char* to_string(Site site) noexcept;

/// How one site is armed (TFailureInjector-style skip/count around a rate).
struct SiteSpec {
  bool armed = false;
  double rate = 0.01;         ///< fire probability per opportunity
  std::uint64_t skip = 0;     ///< opportunities passed through before arming
  std::uint64_t count = 0;    ///< max fires (0 = unlimited)
  std::uint64_t downtime = 8; ///< crash only: rounds down before restart
  /// The overrides as written (name-sorted); key() re-emits exactly these,
  /// so the canonical form is independent of the order the user wrote.
  std::map<std::string, double> overrides;
};

/// Counters of faults that actually fired during one run. Flows into
/// ScenarioRunResult / TrialOutcome and (summed) into TrialAggregate.
struct FaultStats {
  std::uint64_t crashes = 0;        ///< agents that lost their state
  std::uint64_t restarts = 0;       ///< fresh instances revived after a crash
  std::uint64_t writes_dropped = 0; ///< whiteboard writes that never landed
  std::uint64_t wipes = 0;          ///< whole-store erasures
  std::uint64_t stale_reads = 0;    ///< reads that observed ⊥ over a value
  std::uint64_t moves_blocked = 0;  ///< traversals blocked by a down edge

  [[nodiscard]] bool any() const noexcept {
    return (crashes | restarts | writes_dropped | wipes | stale_reads |
            moves_blocked) != 0;
  }
};

/// A declarative, seedless fault plan: which sites are armed and how.
/// Plans are cheap values; the per-run randomness lives in FaultSession.
class FaultPlan {
 public:
  /// The inactive plan (no site armed; key() is "").
  FaultPlan() = default;

  /// Parses the spec grammar (see the file header). "none" yields the
  /// inactive plan. Throws CheckError on unknown families, unknown /
  /// duplicate / non-finite / out-of-range parameters, and malformed
  /// suffixes, enumerating the valid names.
  [[nodiscard]] static FaultPlan parse(const std::string& token);

  /// Arms `site` programmatically (tests, custom harnesses). Validates the
  /// spec (rate finite in [0, 1], downtime >= 1).
  void arm(Site site, SiteSpec spec);

  /// Whether any site is armed. Inactive plans never create sessions, so
  /// the fault-free path carries no per-run cost at all.
  [[nodiscard]] bool active() const noexcept;

  [[nodiscard]] const SiteSpec& spec(Site site) const noexcept {
    return sites_[static_cast<std::size_t>(site)];
  }

  /// Canonical spec string: armed clauses in Site order, each with its
  /// overrides name-sorted ("" when inactive). Parsing the key back yields
  /// an equivalent plan, so it is a valid sweep-cell identity component.
  [[nodiscard]] std::string key() const;

  /// True when the armed sites all require whiteboards (wb-*): such a plan
  /// is meaningless on a whiteboard-free model and grid expansion prunes
  /// the combination.
  [[nodiscard]] bool whiteboard_only() const noexcept;

 private:
  std::array<SiteSpec, kNumSites> sites_;
};

/// Per-run fault state: one Rng stream, per-site skip/count progress, and
/// the fired-fault counters. Construct one per trial from the trial's split
/// seed; the Scheduler consults it through a nullable pointer.
class FaultSession {
 public:
  /// `plan` must outlive the session. `rng` is the session's private
  /// stream (hand it a split of the trial seed, never a shared generator).
  FaultSession(const FaultPlan& plan, Rng rng);

  /// One opportunity at `site`: consumes the skip window, then fires with
  /// probability rate until the count budget is spent. Draws from the
  /// session Rng only once the window is open, so a site with rate 0 (or
  /// an unarmed site) never perturbs the stream.
  [[nodiscard]] bool reach(Site site);

  /// Whether the undirected edge {u, v} is down in `round`. Stateless hash
  /// of (session seed, round, min, max): symmetric in u/v, constant within
  /// a round, and free of RNG-stream side effects. The churn site's
  /// skip/count delimit the flapping round window.
  [[nodiscard]] bool edge_down(std::uint64_t round, graph::VertexIndex u,
                               graph::VertexIndex v) const;

  /// Fast guard for the move loop: is churn armed at all?
  [[nodiscard]] bool churn_armed() const noexcept {
    return plan_->spec(Site::EdgeChurn).armed;
  }

  /// Rounds a crashed agent stays inert before its restart (>= 1).
  [[nodiscard]] std::uint64_t crash_downtime() const noexcept {
    return plan_->spec(Site::AgentCrash).downtime;
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return *plan_; }

  /// Builds the fresh replacement instance for a crashed agent slot. The
  /// scenario layer installs this (program factory + its own split RNG
  /// schedule) and owns the instances; the Scheduler only swaps pointers.
  /// A crash reach with no reviver installed is a CheckError.
  std::function<sim::Agent*(std::size_t slot)> revive;

  /// Faults that fired so far (the Scheduler and Views increment this).
  FaultStats stats;

 private:
  struct SiteState {
    std::uint64_t seen = 0;   ///< opportunities consumed by the skip window
    std::uint64_t fired = 0;  ///< fires charged against count
  };

  const FaultPlan* plan_;
  Rng rng_;
  std::uint64_t churn_seed_;
  std::array<SiteState, kNumSites> state_;
};

}  // namespace fnr::fault
