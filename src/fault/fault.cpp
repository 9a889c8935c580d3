#include "fault/fault.hpp"

#include <cmath>
#include <sstream>

#include "util/check.hpp"
#include "util/spec_token.hpp"

namespace fnr::fault {

namespace {

constexpr const char* kSiteNames[kNumSites] = {
    "crash", "wb-drop", "wb-wipe", "wb-stale", "churn"};

std::string known_families() {
  std::ostringstream os;
  for (const auto* name : kSiteNames) os << " " << name;
  return os.str();
}

/// Every family takes rate, skip and count; crash also takes downtime. The
/// defaults are SiteSpec's.
const DeclaredParams& declared_params(Site site) {
  static const SiteSpec kDefault;
  static const DeclaredParams kCommon = {
      {"count", 0.0}, {"rate", kDefault.rate}, {"skip", 0.0}};
  static const DeclaredParams kCrash = {
      {"count", 0.0},
      {"downtime", static_cast<double>(kDefault.downtime)},
      {"rate", kDefault.rate},
      {"skip", 0.0}};
  return site == Site::AgentCrash ? kCrash : kCommon;
}

/// Parses one `family[?key=value&...]` clause and arms its site.
void parse_clause(const std::string& clause, FaultPlan* plan) {
  Site site = Site::AgentCrash;
  const SpecToken token = parse_spec_token(
      "fault clause", clause, '?', '&',
      [&](const std::string& family) -> const DeclaredParams& {
        std::size_t index = 0;
        while (index < kNumSites && family != kSiteNames[index]) ++index;
        FNR_REQUIRE(index < kNumSites, "unknown fault family '"
                                           << family << "'; known:"
                                           << known_families());
        site = static_cast<Site>(index);
        return declared_params(site);
      });
  SiteSpec spec;
  const auto integral = [&](const char* key, std::uint64_t* field) {
    if (const auto it = token.params.find(key); it != token.params.end())
      *field = integral_value(it->second, "fault clause '" + clause +
                                              "': parameter '" + key + "'");
  };
  if (const auto it = token.params.find("rate"); it != token.params.end())
    spec.rate = it->second;
  integral("skip", &spec.skip);
  integral("count", &spec.count);
  integral("downtime", &spec.downtime);
  spec.overrides = token.params;
  try {
    plan->arm(site, std::move(spec));
  } catch (const CheckError& error) {
    throw CheckError("fault clause '" + clause + "': " + error.what());
  }
}

}  // namespace

const char* to_string(Site site) noexcept {
  return kSiteNames[static_cast<std::size_t>(site)];
}

FaultPlan FaultPlan::parse(const std::string& token) {
  FaultPlan plan;
  if (token == "none") return plan;
  FNR_REQUIRE(!token.empty(),
              "empty fault spec (use 'none' for the fault-free plan)");
  std::size_t start = 0;
  for (;;) {
    const auto plus = token.find('+', start);
    const std::string clause = plus == std::string::npos
                                   ? token.substr(start)
                                   : token.substr(start, plus - start);
    FNR_REQUIRE(!clause.empty(),
                "fault spec '" << token << "': empty clause between '+'");
    FNR_REQUIRE(clause != "none",
                "fault spec '" << token
                               << "': 'none' cannot combine with clauses");
    parse_clause(clause, &plan);
    if (plus == std::string::npos) break;
    start = plus + 1;
  }
  return plan;
}

void FaultPlan::arm(Site site, SiteSpec spec) {
  const char* family = to_string(site);
  FNR_REQUIRE(!sites_[static_cast<std::size_t>(site)].armed,
              "fault family '" << family << "' is armed twice");
  FNR_REQUIRE(std::isfinite(spec.rate) && spec.rate >= 0.0 &&
                  spec.rate <= 1.0,
              "fault family '" << family << "': rate must be a finite "
                               << "number in [0, 1], got " << spec.rate);
  if (site == Site::AgentCrash)
    FNR_REQUIRE(spec.downtime >= 1,
                "fault family 'crash': downtime must be >= 1 rounds, got "
                    << spec.downtime);
  spec.armed = true;
  sites_[static_cast<std::size_t>(site)] = std::move(spec);
}

bool FaultPlan::active() const noexcept {
  for (const auto& spec : sites_)
    if (spec.armed) return true;
  return false;
}

std::string FaultPlan::key() const {
  std::string key;
  for (std::size_t i = 0; i < kNumSites; ++i) {
    if (!sites_[i].armed) continue;
    if (!key.empty()) key += '+';
    key += kSiteNames[i];
    key += param_suffix(sites_[i].overrides);
  }
  return key;
}

bool FaultPlan::whiteboard_only() const noexcept {
  bool any = false;
  for (std::size_t i = 0; i < kNumSites; ++i) {
    if (!sites_[i].armed) continue;
    const auto site = static_cast<Site>(i);
    if (site == Site::AgentCrash || site == Site::EdgeChurn) return false;
    any = true;
  }
  return any;
}

FaultSession::FaultSession(const FaultPlan& plan, Rng rng)
    : plan_(&plan), rng_(rng), churn_seed_(rng_()) {}

bool FaultSession::reach(Site site) {
  const SiteSpec& spec = plan_->spec(site);
  if (!spec.armed || spec.rate <= 0.0) return false;
  SiteState& st = state_[static_cast<std::size_t>(site)];
  if (st.seen < spec.skip) {
    ++st.seen;
    return false;
  }
  if (spec.count != 0 && st.fired >= spec.count) return false;
  if (!rng_.bernoulli(spec.rate)) return false;
  ++st.fired;
  return true;
}

bool FaultSession::edge_down(std::uint64_t round, graph::VertexIndex u,
                             graph::VertexIndex v) const {
  const SiteSpec& spec = plan_->spec(Site::EdgeChurn);
  if (!spec.armed || spec.rate <= 0.0) return false;
  if (round < spec.skip) return false;
  if (spec.count != 0 && round >= spec.skip + spec.count) return false;
  const std::uint64_t lo = u < v ? u : v;
  const std::uint64_t hi = u < v ? v : u;
  // One splitmix64 step over the mixed identity gives a uniform hash; the
  // same (seed, round, edge) triple always lands on the same side of rate.
  std::uint64_t state = churn_seed_ ^ (round * 0x9e3779b97f4a7c15ULL) ^
                        (lo * 0xbf58476d1ce4e5b9ULL) ^
                        (hi * 0x94d049bb133111ebULL);
  const double draw =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  return draw < spec.rate;
}

}  // namespace fnr::fault
