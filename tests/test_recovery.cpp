// Tests for the self-healing subsystem: integrity sideband helpers,
// targeted fault-plan parsing, link quarantine in the allocator, the
// health monitor's producer walk against a full walk of every link, and
// the end-to-end detect -> quarantine -> re-route -> restore flow through
// soc::run_scenario, including its determinism across schedulers and
// repeated runs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/dimension.hpp"
#include "alloc/usecase.hpp"
#include "daelite/flit.hpp"
#include "daelite/network.hpp"
#include "sim/fault.hpp"
#include "sim/json.hpp"
#include "sim/random.hpp"
#include "soc/health.hpp"
#include "soc/runner.hpp"
#include "topology/generators.hpp"

namespace daelite {
namespace {

// --- Integrity sideband helpers ----------------------------------------------------

TEST(Integrity, TagRoundTripsSequenceAndParity) {
  for (std::uint8_t seq = 0; seq < hw::kIntegritySeqPeriod; ++seq) {
    for (std::uint32_t word : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
      const std::uint8_t tag = hw::integrity_tag(word, seq);
      EXPECT_TRUE(hw::integrity_parity_ok(word, tag));
      EXPECT_EQ(hw::integrity_seq_of(tag), seq);
    }
  }
}

TEST(Integrity, PayloadCorruptionFlipsParityVerdict) {
  const std::uint32_t word = 0xCAFE0000u;
  const std::uint8_t tag = hw::integrity_tag(word, 5);
  // Any single-bit payload flip must be caught by the even-parity bit.
  for (std::uint32_t bit = 0; bit < 32; ++bit)
    EXPECT_FALSE(hw::integrity_parity_ok(word ^ (1u << bit), tag)) << "bit " << bit;
}

// --- Fault-plan parsing of targeted (per-line) directives --------------------------

TEST(FaultPlanParse, AcceptsLineTargetedKill) {
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::FaultPlan::parse_text("kill data@7 1000 2000\n", &plan, &err)) << err;
  ASSERT_EQ(plan.directives.size(), 1u);
  EXPECT_EQ(plan.directives[0].kind, sim::FaultDirective::Kind::kKill);
  EXPECT_EQ(plan.directives[0].cls, sim::FaultClass::kData);
  EXPECT_EQ(plan.directives[0].line_index, 7);
  EXPECT_EQ(plan.directives[0].from, 1000u);
  EXPECT_EQ(plan.directives[0].to, 2000u);
}

TEST(FaultPlanParse, RejectsMalformedDirectivesWithDiagnostics) {
  const struct {
    const char* text;
    const char* needle; ///< expected fragment of the diagnostic
  } cases[] = {
      {"kill bogus 0 10\n", "bogus"},            // unknown class
      {"kill data@x 0 10\n", "data@x"},          // non-numeric line index
      {"kill data 10 10\n", "window"},           // to <= from
      {"drop data 3 extra\n", "extra"},          // trailing tokens
      {"flip data -1 0\n", "-1"},                // negative count
      {"explode data 0\n", "explode"},           // unknown directive
  };
  for (const auto& c : cases) {
    sim::FaultPlan plan;
    std::string err;
    EXPECT_FALSE(sim::FaultPlan::parse_text(c.text, &plan, &err)) << c.text;
    EXPECT_NE(err.find("line 1"), std::string::npos) << c.text << " -> " << err;
    EXPECT_NE(err.find(c.needle), std::string::npos) << c.text << " -> " << err;
  }
}

// --- Allocator quarantine ----------------------------------------------------------

TEST(Quarantine, AllocationAvoidsQuarantinedLinks) {
  const auto m = topo::make_mesh(3, 3);
  const tdm::TdmParams params = tdm::daelite_params(16);
  alloc::SlotAllocator a(m.topo, params);

  alloc::ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(2, 0)};
  spec.slots_required = 2;
  auto direct = a.allocate(spec);
  ASSERT_TRUE(direct.has_value());

  // Quarantine the route's router-to-router links (the first and last
  // edges are the NI attachment links — the only way in and out of the
  // endpoints); a fresh allocation must detour around the quarantine.
  a.release(*direct);
  ASSERT_GE(direct->edges.size(), 3u);
  std::size_t quarantined = 0;
  for (std::size_t i = 1; i + 1 < direct->edges.size(); ++i, ++quarantined)
    a.quarantine_link(direct->edges[i].link);
  EXPECT_TRUE(a.is_quarantined(direct->edges[1].link));
  auto detour = a.allocate(spec);
  ASSERT_TRUE(detour.has_value());
  for (const alloc::RouteEdge& e : detour->edges)
    EXPECT_FALSE(a.is_quarantined(e.link)) << "link " << e.link;

  // quarantined_links() lists ascending ids; clearing re-opens the row.
  const auto q = a.quarantined_links();
  EXPECT_EQ(q.size(), quarantined);
  EXPECT_TRUE(std::is_sorted(q.begin(), q.end()));
  a.clear_quarantine();
  EXPECT_TRUE(a.quarantined_links().empty());
  a.release(*detour);
  EXPECT_EQ(a.allocated_channels(), 0u);
  EXPECT_DOUBLE_EQ(a.schedule().utilization(), 0.0);
}

// --- Health monitor: producer walk vs full link walk ------------------------------

/// The monitor as it was before it walked producers: every data link's
/// register read at every slot start, the same epoch evaluation. Register
/// it after the HealthMonitor so both commit after the injector and see
/// the same corrupted values.
class FullWalkMonitor final : public sim::Component {
 public:
  FullWalkMonitor(sim::Kernel& k, hw::DaeliteNetwork& net, soc::HealthMonitor::Options o)
      : sim::Component(k, "full_walk", sim::Cadence{net.options().tdm.words_per_slot, 0}),
        params_(net.options().tdm), options_(o) {
    epoch_ = o.epoch_cycles != 0 ? o.epoch_cycles : params_.wheel_cycles();
    const std::uint32_t w = params_.words_per_slot;
    epoch_ = (epoch_ + w - 1) / w * w;
    next_eval_ = (now() / epoch_ + 1) * epoch_;
    const topo::Topology& topo = net.topology();
    links_.resize(topo.link_count());
    for (topo::LinkId l = 0; l < topo.link_count(); ++l) {
      const topo::Link& link = topo.link(l);
      if (topo.is_router(link.src)) {
        links_[l].reg = &net.router(link.src).output_reg(link.src_port);
        links_[l].produced = &net.router(link.src).forwarded_on(link.src_port);
      } else {
        links_[l].reg = &net.ni(link.src).output_reg();
        links_[l].produced = &net.ni(link.src).stats().link_busy_slots;
      }
    }
  }

  void tick() override {}
  void commit() override {
    sim::Component::commit();
    if (!params_.is_slot_start(now())) return;
    for (Link& wl : links_) {
      const hw::Flit& f = wl.reg->get();
      if (!f.valid) continue;
      ++wl.health.observed;
      for (std::size_t i = 0; i < f.num_words; ++i)
        if (f.data_valid[i] && !hw::integrity_parity_ok(f.data[i], f.integrity[i]))
          ++wl.health.parity_errors;
    }
    for (; now() >= next_eval_; next_eval_ += epoch_) {
      for (topo::LinkId l = 0; l < links_.size(); ++l) {
        Link& wl = links_[l];
        wl.health.produced = *wl.produced;
        wl.health.missing += (*wl.produced - wl.produced_at_eval) -
                             (wl.health.observed - wl.observed_at_eval);
        wl.produced_at_eval = *wl.produced;
        wl.observed_at_eval = wl.health.observed;
        wl.parity_at_eval = wl.health.parity_errors;
        if (wl.health.state == soc::LinkState::kDead) continue;
        if (wl.health.evidence() >= options_.dead_threshold) {
          wl.health.state = soc::LinkState::kDead;
          dead.push_back({l, now(), wl.health.evidence()});
        } else if (wl.health.evidence() >= options_.suspect_threshold) {
          wl.health.state = soc::LinkState::kSuspect;
        }
      }
    }
  }
  bool quiescent() const override {
    for (const Link& wl : links_)
      if (wl.reg->get().valid || *wl.produced != wl.produced_at_eval ||
          wl.health.observed != wl.observed_at_eval ||
          wl.health.parity_errors != wl.parity_at_eval)
        return false;
    return true;
  }

  const soc::LinkHealth& link(topo::LinkId l) const { return links_[l].health; }
  std::vector<soc::DeadLinkEvent> dead;

 private:
  struct Link {
    const sim::Reg<hw::Flit>* reg = nullptr;
    const std::uint64_t* produced = nullptr;
    soc::LinkHealth health;
    std::uint64_t produced_at_eval = 0;
    std::uint64_t observed_at_eval = 0;
    std::uint64_t parity_at_eval = 0;
  };
  tdm::TdmParams params_;
  soc::HealthMonitor::Options options_;
  std::uint32_t epoch_ = 0;
  sim::Cycle next_eval_ = 0;
  std::vector<Link> links_;
};

/// What one monitored run saw, per link and per verdict.
struct MonitorView {
  std::vector<soc::LinkHealth> links;
  std::vector<soc::DeadLinkEvent> dead;
};

bool same_health(const soc::LinkHealth& a, const soc::LinkHealth& b) {
  return a.produced == b.produced && a.observed == b.observed && a.missing == b.missing &&
         a.parity_errors == b.parity_errors && a.state == b.state;
}

bool same_dead(const std::vector<soc::DeadLinkEvent>& a, const std::vector<soc::DeadLinkEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].link != b[i].link || a[i].cycle != b[i].cycle || a[i].evidence != b[i].evidence)
      return false;
  return true;
}

/// Saturated unicast and multicast traffic on a 4x4 mesh under `plan`, with
/// the monitor and the full-walk reference side by side. Every cycle's
/// monitor verdicts go into the returned view; the reference's per-link
/// health and verdicts must match it exactly (checked here).
MonitorView run_monitors(const sim::FaultPlan& plan, soc::HealthMonitor::Options mo,
                         sim::Scheduler sched, std::uint32_t shards,
                         std::vector<topo::LinkId>* routed = nullptr) {
  topo::Mesh mesh = topo::make_mesh(4, 4);
  sim::Kernel kernel(sched);
  hw::DaeliteNetwork::Options opt;
  opt.tdm = tdm::daelite_params(16);
  opt.cfg_root = mesh.ni(0, 0);
  opt.shards = shards;
  hw::DaeliteNetwork net(kernel, mesh.topo, opt);
  sim::FaultInjector injector(kernel, "fault", plan);
  net.attach_fault_lines(injector);
  soc::HealthMonitor monitor(kernel, "health", net, mo);
  FullWalkMonitor reference(kernel, net, mo);

  alloc::SlotAllocator allocator(mesh.topo, opt.tdm);
  alloc::UseCase uc;
  uc.connections.push_back({"u0", mesh.ni(0, 0), {mesh.ni(3, 3)}, 2, 1});
  uc.connections.push_back({"u1", mesh.ni(3, 0), {mesh.ni(0, 3)}, 2, 1});
  uc.connections.push_back({"u2", mesh.ni(1, 2), {mesh.ni(2, 1)}, 1, 1});
  uc.connections.push_back({"m0", mesh.ni(1, 1), {mesh.ni(3, 1), mesh.ni(0, 2), mesh.ni(2, 3)}, 2, 0});
  uc.connections.push_back({"m1", mesh.ni(2, 0), {mesh.ni(0, 0), mesh.ni(3, 2)}, 1, 0});
  const auto allocation = alloc::allocate_use_case(allocator, uc);
  EXPECT_TRUE(allocation.has_value());
  if (!allocation) return {};
  std::vector<hw::ConnectionHandle> handles;
  for (const alloc::AllocatedConnection& c : allocation->connections) {
    handles.push_back(net.open_connection(c));
    if (routed != nullptr) {
      for (const alloc::RouteEdge& e : c.request.edges) routed->push_back(e.link);
      for (const alloc::RouteEdge& e : c.response.edges) routed->push_back(e.link);
    }
  }
  EXPECT_NE(net.run_config(), sim::kNoCycle);

  MonitorView view;
  for (int c = 0; c < 6000; ++c) {
    for (const hw::ConnectionHandle& h : handles) {
      while (net.ni(h.conn.request.src_ni).tx_push(h.src_tx_q, 0x5A5A0000u + c)) {
      }
      for (std::size_t d = 0; d < h.dst_rx_qs.size(); ++d)
        while (net.ni(h.conn.request.dst_nis[d]).rx_pop(h.dst_rx_qs[d])) {
        }
    }
    kernel.step();
    for (const soc::DeadLinkEvent& de : monitor.take_dead_events()) view.dead.push_back(de);
  }
  for (topo::LinkId l = 0; l < monitor.link_count(); ++l) {
    view.links.push_back(monitor.link(l));
    EXPECT_TRUE(same_health(monitor.link(l), reference.link(l))) << "link " << l;
  }
  EXPECT_TRUE(same_dead(view.dead, reference.dead));
  return view;
}

TEST(HealthMonitor, ProducerWalkMatchesFullLinkWalkUnderRandomFaultPlans) {
  // Seeded random plans of nth-word drops and flips (class-wide and on one
  // routed link) and kill windows on routed links, each run under the
  // stride scheduler, the reference scheduler and two shards: per-link
  // evidence and every verdict (link, cycle, evidence) must equal a full
  // walk of all links, and the three runs must agree.
  std::vector<topo::LinkId> routed;
  run_monitors(sim::FaultPlan{}, {}, sim::Scheduler::kStride, 1, &routed);
  ASSERT_FALSE(routed.empty());
  std::uint64_t dead = 0, parity = 0, missing = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Xoshiro256 rng(seed);
    sim::FaultPlan plan;
    plan.seed = seed;
    const auto any_routed = [&] {
      return static_cast<std::int64_t>(routed[rng.below(routed.size())]);
    };
    for (std::uint64_t n = 2 + rng.below(5); n > 0; --n) {
      sim::FaultDirective d;
      d.cls = sim::FaultClass::kData;
      switch (rng.below(3)) {
        case 0:
          d.kind = sim::FaultDirective::Kind::kDrop;
          d.line_index = rng.chance(0.5) ? any_routed() : -1;
          d.nth = rng.below(600);
          break;
        case 1:
          d.kind = sim::FaultDirective::Kind::kFlip;
          d.line_index = rng.chance(0.5) ? any_routed() : -1;
          d.nth = rng.below(600);
          d.bit = static_cast<std::uint32_t>(rng.below(64));
          break;
        default:
          d.kind = sim::FaultDirective::Kind::kKill;
          d.line_index = any_routed();
          d.from = 300 + rng.below(4000);
          d.to = rng.chance(0.5) ? sim::kNoCycle : d.from + 50 + rng.below(1500);
          break;
      }
      plan.directives.push_back(d);
    }
    soc::HealthMonitor::Options mo;
    mo.epoch_cycles = static_cast<std::uint32_t>(rng.below(3) * 40); // 0: one wheel
    const MonitorView stride = run_monitors(plan, mo, sim::Scheduler::kStride, 1);
    const MonitorView reference = run_monitors(plan, mo, sim::Scheduler::kReference, 1);
    const MonitorView sharded = run_monitors(plan, mo, sim::Scheduler::kStride, 2);
    ASSERT_EQ(stride.links.size(), reference.links.size()) << "seed " << seed;
    ASSERT_EQ(stride.links.size(), sharded.links.size()) << "seed " << seed;
    for (std::size_t l = 0; l < stride.links.size(); ++l) {
      EXPECT_TRUE(same_health(stride.links[l], reference.links[l])) << "seed " << seed << " link " << l;
      EXPECT_TRUE(same_health(stride.links[l], sharded.links[l])) << "seed " << seed << " link " << l;
      parity += stride.links[l].parity_errors;
      missing += stride.links[l].missing;
    }
    EXPECT_TRUE(same_dead(stride.dead, reference.dead)) << "seed " << seed;
    EXPECT_TRUE(same_dead(stride.dead, sharded.dead)) << "seed " << seed;
    dead += stride.dead.size();
  }
  // The plans must exercise every kind of evidence, or the walk is untested.
  EXPECT_GT(dead, 0u);
  EXPECT_GT(parity, 0u);
  EXPECT_GT(missing, 0u);
}

// --- End-to-end recovery through run_scenario --------------------------------------

soc::Scenario victim_scenario(int d, std::uint32_t slots) {
  soc::Scenario sc;
  sc.kind = soc::Scenario::TopologyKind::kMesh;
  sc.width = 4;
  sc.height = 2;
  sc.slots = slots;
  sc.host = {0, 1};
  sc.run_cycles = 12000;
  soc::Scenario::RawConnection c;
  c.name = "victim";
  c.src = {0, 0};
  c.dsts.push_back({d, 0});
  c.bandwidth = 150.0;
  sc.raw.push_back(std::move(c));
  return sc;
}

/// The link the runner will route the victim over, found by replaying the
/// same deterministic dimensioning (seed 0 keeps file order).
std::uint64_t victim_mid_link(soc::Scenario sc) {
  topo::Mesh mesh = sc.build();
  const alloc::NocClocking clk{sc.clock_mhz, 4};
  auto dim = alloc::dimension_network(mesh.topo, sc.connections, clk, {*sc.slots});
  EXPECT_TRUE(dim.has_value());
  const auto& edges = dim->allocation.connections.front().request.edges;
  return edges[edges.size() / 2].link;
}

soc::RunSpec kill_spec(soc::Scenario sc, std::uint64_t link, sim::Cycle at) {
  soc::RunSpec spec;
  spec.label = "recovery-test";
  spec.scenario = std::move(sc);
  spec.fault_plan.seed = 42;
  sim::FaultDirective kill;
  kill.kind = sim::FaultDirective::Kind::kKill;
  kill.cls = sim::FaultClass::kData;
  kill.line_index = static_cast<std::int64_t>(link);
  kill.from = at;
  kill.to = sim::kNoCycle;
  spec.fault_plan.directives.push_back(kill);
  spec.recovery.enabled = true;
  return spec;
}

TEST(Recovery, KilledLinkIsDetectedQuarantinedAndRoutedAround) {
  soc::Scenario sc = victim_scenario(3, 16);
  const std::uint64_t link = victim_mid_link(sc);
  const analysis::NetworkReport r = soc::run_scenario(kill_spec(sc, link, 4000));
  ASSERT_TRUE(r.error.empty()) << r.error;

  ASSERT_EQ(r.recovery.dead_links.size(), 1u);
  EXPECT_EQ(r.recovery.dead_links[0].link, link);
  EXPECT_GE(r.recovery.dead_links[0].cycle, 4000u);
  EXPECT_GT(r.recovery.dead_links[0].evidence, 0u);
  EXPECT_EQ(r.recovery.quarantined, std::vector<std::uint64_t>{link});

  ASSERT_EQ(r.recovery.events.size(), 1u);
  const analysis::RecoveryEvent& ev = r.recovery.events[0];
  EXPECT_EQ(ev.connection, "victim");
  EXPECT_EQ(ev.trigger, "link_dead");
  EXPECT_TRUE(ev.restored);
  EXPECT_GT(ev.latency_cycles(), 0u);
  EXPECT_LT(ev.latency_cycles(), 2000u); // bounded, not "eventually"
  // The detour must be at least as long as the direct route it replaces.
  EXPECT_GE(ev.hops_after, ev.hops_before);
  // Ordering: detected before reconfigured before restored.
  EXPECT_LT(ev.detected_cycle, ev.reconfigured_cycle);
  EXPECT_LE(ev.reconfigured_cycle, ev.restored_cycle);
}

TEST(Recovery, ArmedButFaultFreeRunStaysClean) {
  soc::Scenario sc = victim_scenario(3, 16);
  soc::RunSpec spec;
  spec.label = "recovery-clean";
  spec.scenario = sc;
  spec.recovery.enabled = true;
  const analysis::NetworkReport r = soc::run_scenario(spec);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.recovery.enabled);
  EXPECT_EQ(r.recovery.missing_flits, 0u);
  EXPECT_EQ(r.recovery.parity_errors, 0u);
  EXPECT_TRUE(r.recovery.dead_links.empty());
  EXPECT_TRUE(r.recovery.quarantined.empty());
  EXPECT_TRUE(r.recovery.events.empty());
}

TEST(Recovery, ReportIsIdenticalAcrossSchedulersAndRuns) {
  soc::Scenario sc = victim_scenario(3, 16);
  const std::uint64_t link = victim_mid_link(sc);

  soc::RunSpec spec = kill_spec(sc, link, 4000);
  spec.scheduler = sim::Scheduler::kStride;
  const std::string stride = soc::run_scenario(spec).to_json().dump(2);
  const std::string stride_again = soc::run_scenario(spec).to_json().dump(2);
  spec.scheduler = sim::Scheduler::kReference;
  const std::string reference = soc::run_scenario(spec).to_json().dump(2);

  EXPECT_EQ(stride, stride_again); // no hidden global state between jobs
  EXPECT_EQ(stride, reference);    // fast-forward never skips a verdict
}

TEST(Recovery, IntegrityCountersSeeFlippedAndDroppedWords) {
  // A single flipped payload word is a parity mismatch at the destination;
  // a single dropped word is a sequence gap. Neither kills the link, so no
  // recovery fires — detection is purely end-to-end.
  soc::Scenario sc = victim_scenario(3, 16);
  for (const bool flip : {true, false}) {
    soc::RunSpec spec;
    spec.label = flip ? "flip" : "drop";
    spec.scenario = sc;
    spec.fault_plan.seed = 42;
    sim::FaultDirective d;
    d.kind = flip ? sim::FaultDirective::Kind::kFlip : sim::FaultDirective::Kind::kDrop;
    d.cls = sim::FaultClass::kData;
    d.nth = 50;
    spec.fault_plan.directives.push_back(d);
    spec.recovery.enabled = true;
    const analysis::NetworkReport r = soc::run_scenario(spec);
    ASSERT_TRUE(r.error.empty()) << r.error;
    if (flip) {
      EXPECT_GE(r.health.corrupt_words, 1u);
    } else {
      EXPECT_GE(r.health.lost_words, 1u);
    }
    EXPECT_TRUE(r.recovery.events.empty());
  }
}

} // namespace
} // namespace daelite
