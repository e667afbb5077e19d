#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <sstream>

#include "alloc/dimension.hpp"
#include "sim/random.hpp"
#include "soc/scenario.hpp"

namespace perfbench {

using namespace daelite;

namespace {

constexpr int kSide = 8;
constexpr sim::Cycle kRunCycles = 200000;
constexpr std::size_t kUnicast = 28;
constexpr std::size_t kGuaranteed = 8; ///< unicast 0..7 (sim_recovery classes)
constexpr std::size_t kStandard = 10;  ///< unicast 8..17; the rest best-effort
constexpr std::size_t kMulticast = 4;
constexpr std::size_t kKills = 5;
/// Hop distances of the unicast connections, cycled: a fixed multiset, so
/// the forwarding work per cycle does not depend on the seed.
constexpr std::array<int, 7> kUnicastHops = {3, 4, 5, 6, 7, 8, 9};
constexpr std::array<int, 3> kMulticastHops = {3, 5, 7};
/// Queue roles (source or destination of some channel) one NI may take;
/// keeps every NI well inside its default channel count.
constexpr int kMaxRoles = 3;

/// Independent per-workload streams from one benchmark seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed ^ (tag * 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Xy {
  int x = 0;
  int y = 0;
};

class NodePicker {
 public:
  explicit NodePicker(std::uint64_t seed) : rng_(seed) {}

  /// Any NI with a free role.
  Xy source() {
    for (;;) {
      const Xy n{static_cast<int>(rng_.below(kSide)), static_cast<int>(rng_.below(kSide))};
      if (roles(n) < kMaxRoles) return n;
    }
  }

  /// A uniformly drawn NI exactly `hops` Manhattan steps from `from`, not in
  /// `taken`, with a free role; nullopt if there is none.
  std::optional<Xy> at_distance(Xy from, int hops, const std::vector<Xy>& taken) {
    std::vector<Xy> cands;
    for (int y = 0; y < kSide; ++y)
      for (int x = 0; x < kSide; ++x) {
        const Xy n{x, y};
        if (std::abs(x - from.x) + std::abs(y - from.y) != hops || roles(n) >= kMaxRoles) continue;
        if (std::any_of(taken.begin(), taken.end(),
                        [&](const Xy& t) { return t.x == x && t.y == y; }))
          continue;
        cands.push_back(n);
      }
    if (cands.empty()) return std::nullopt;
    return cands[rng_.below(cands.size())];
  }

  void claim(Xy n) { ++roles_[static_cast<std::size_t>(n.y * kSide + n.x)]; }
  sim::Xoshiro256& rng() { return rng_; }

 private:
  int roles(Xy n) const { return roles_[static_cast<std::size_t>(n.y * kSide + n.x)]; }

  sim::Xoshiro256 rng_;
  std::array<int, kSide * kSide> roles_{};
};

std::string coord(Xy n) { return std::to_string(n.x) + "," + std::to_string(n.y); }

std::string make_scenario_text(bool classes, std::uint64_t seed) {
  NodePicker pick(seed);
  std::ostringstream os;
  os << "mesh " << kSide << " " << kSide << "\nslots 32\nclock 500\nhost 0,0\n"
     // The energy model adds the configuration-word total to the report,
     // which is how the benchmark counts config words spent on recovery.
     << "energy\n";
  for (std::size_t i = 0; i < kUnicast; ++i) {
    const int hops = kUnicastHops[i % kUnicastHops.size()];
    Xy src, dst;
    for (;;) {
      src = pick.source();
      if (auto d = pick.at_distance(src, hops, {src})) {
        dst = *d;
        break;
      }
    }
    pick.claim(src);
    pick.claim(dst);
    // 120 MB/s is two slots of a 32-slot wheel at 500 MHz; the first
    // kGuaranteed connections also carry a one-slot response channel.
    os << "connection u" << i << " " << coord(src) << " " << coord(dst) << " 120";
    if (i < kGuaranteed) os << " resp 60";
    if (classes) {
      os << " class "
         << (i < kGuaranteed ? "guaranteed"
                             : i < kGuaranteed + kStandard ? "standard" : "best_effort");
    }
    os << "\n";
  }
  for (std::size_t i = 0; i < kMulticast; ++i) {
    Xy src;
    std::vector<Xy> dsts;
    for (;;) {
      src = pick.source();
      dsts.clear();
      std::vector<Xy> taken{src};
      for (int hops : kMulticastHops) {
        auto d = pick.at_distance(src, hops, taken);
        if (!d) break;
        dsts.push_back(*d);
        taken.push_back(*d);
      }
      if (dsts.size() == kMulticastHops.size()) break;
    }
    pick.claim(src);
    os << "multicast m" << i << " " << coord(src);
    for (const Xy& d : dsts) {
      pick.claim(d);
      os << " " << coord(d);
    }
    os << " bw 60\n";
  }
  os << "run " << kRunCycles << "\n";
  return os.str();
}

std::optional<soc::Scenario> parse(const std::string& text, std::string* error) {
  std::istringstream is(text);
  return soc::parse_scenario(is, error);
}

/// The runner's own dimensioning of a scenario (same clocking, same
/// wheel-size candidates, file order — RunSpec::seed stays 0).
struct Dimensioned {
  topo::Mesh mesh;
  alloc::DimensionResult dim;
};

std::optional<Dimensioned> dimension(const std::string& text) {
  auto sc = parse(text, nullptr);
  if (!sc) return std::nullopt;
  Dimensioned d;
  d.mesh = sc->build();
  const alloc::NocClocking clk{sc->clock_mhz, 4};
  auto dim = alloc::dimension_network(d.mesh.topo, sc->connections, clk, {*sc->slots});
  if (!dim) return std::nullopt;
  d.dim = std::move(*dim);
  return d;
}

void add_route_links(const alloc::RouteTree& r, std::vector<topo::LinkId>* out) {
  for (const alloc::RouteEdge& e : r.edges) out->push_back(e.link);
}

/// Up to kKills router-to-router links, each on the request route of a
/// different guaranteed connection and on no earlier target's route, so
/// every kill still carries its target's traffic when it fires:
/// guaranteed connections are never compacted or preempted, and nothing
/// repairs a connection whose links have not failed.
std::vector<topo::LinkId> pick_kill_links(const Dimensioned& d, std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < d.dim.allocation.connections.size(); ++i)
    if (d.dim.allocation.connections[i].spec.service_class == alloc::ServiceClass::kGuaranteed)
      order.push_back(i);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);

  std::vector<topo::LinkId> kills;
  std::vector<topo::LinkId> hit; // every link of every earlier target's routes
  for (std::size_t i : order) {
    if (kills.size() == kKills) break;
    const alloc::AllocatedConnection& c = d.dim.allocation.connections[i];
    std::vector<topo::LinkId> own;
    add_route_links(c.request, &own);
    if (c.has_response) add_route_links(c.response, &own);
    if (std::any_of(own.begin(), own.end(), [&](topo::LinkId l) {
          return std::find(hit.begin(), hit.end(), l) != hit.end();
        }))
      continue;
    std::vector<topo::LinkId> cands;
    for (const alloc::RouteEdge& e : c.request.edges) {
      const topo::Link& l = d.mesh.topo.link(e.link);
      if (d.mesh.topo.is_router(l.src) && d.mesh.topo.is_router(l.dst)) cands.push_back(e.link);
    }
    if (cands.empty()) continue;
    kills.push_back(cands[rng.below(cands.size())]);
    hit.insert(hit.end(), own.begin(), own.end());
  }
  return kills;
}

} // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kSimSaturated, Workload::kSimRecovery, Workload::kChurnQos})
    if (workload_name(w) == name) return w;
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kSimSaturated:
      return "sim_saturated";
    case Workload::kSimRecovery:
      return "sim_recovery";
    case Workload::kChurnQos:
      return "churn_qos";
  }
  return "?";
}

SimInputs make_sim_inputs(Workload w, std::uint64_t seed) {
  SimInputs in;
  const bool recovery = w == Workload::kSimRecovery;
  in.scenario_text = make_scenario_text(recovery, mix(seed, recovery ? 2 : 1));
  if (!recovery) return in;
  if (auto d = dimension(in.scenario_text)) in.kill_links = pick_kill_links(*d, mix(seed, 3));
  std::ostringstream plan;
  plan << "seed 1\n";
  for (std::size_t k = 0; k < in.kill_links.size(); ++k) {
    // Spread over the run; each kill lasts to the end of it.
    const sim::Cycle from = 20000 + static_cast<sim::Cycle>(k) * 35000;
    plan << "kill data@" << in.kill_links[k] << " " << from << " 1000000\n";
  }
  in.fault_plan_text = plan.str();
  return in;
}

std::optional<soc::RunSpec> make_run_spec(Workload w, const SimInputs& in, bool with_faults,
                                          std::string* error) {
  auto sc = parse(in.scenario_text, error);
  if (!sc) return std::nullopt;
  soc::RunSpec spec;
  spec.label = std::string(workload_name(w));
  spec.scenario = std::move(*sc);
  if (with_faults && !in.fault_plan_text.empty()) {
    if (!sim::FaultPlan::parse_text(in.fault_plan_text, &spec.fault_plan, error))
      return std::nullopt;
    spec.recovery.enabled = true;
    spec.recovery.preempt_best_effort = true;
    spec.recovery.compact_after_recovery = true;
  }
  return spec;
}

alloc::ChurnRunOptions make_churn_options(std::uint64_t seed) {
  alloc::ChurnRunOptions o;
  o.requests = 100000;
  o.workload.seed = mix(seed, 4);
  o.workload.arrival_rate = 0.003;
  o.workload.guaranteed_fraction = 0.2;
  o.workload.best_effort_fraction = 0.5;
  o.admission.preempt_best_effort = true;
  o.compaction.every = 5000;
  return o;
}

std::vector<topo::LinkId> routed_links(const std::string& scenario_text) {
  std::vector<topo::LinkId> links;
  if (auto d = dimension(scenario_text)) {
    for (const alloc::AllocatedConnection& c : d->dim.allocation.connections) {
      add_route_links(c.request, &links);
      if (c.has_response) add_route_links(c.response, &links);
    }
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

} // namespace perfbench
