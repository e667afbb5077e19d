// End-to-end pins of the recovery runner's reservation lifecycle on a 2x2
// mesh small enough to check by hand: preemptive healing (a guaranteed
// connection whose only detour is held by best-effort traffic), the
// post-recovery compaction pass, the per-repair preemption count, and a
// repair abandoned mid-stream whose reservation must stay where it is.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "alloc/dimension.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"
#include "soc/runner.hpp"
#include "topology/generators.hpp"

namespace daelite {
namespace {

// ctrl (2 slots, guaranteed) runs R00>R10. Its only detour crosses
// R01>R11, where bulk holds 7 of the 8 slots, so killing R00>R10 leaves
// preemption as the only way to heal ctrl. telemetry shares ctrl's dead
// link on its response route; log keeps running and is compactable.
constexpr const char* kHealingMesh = R"(mesh 2 2
clock 500
host 0,1
slots 8
connection ctrl      0,0 1,0 500 class guaranteed
connection bulk      0,1 1,1 1750 class best_effort
connection telemetry 1,1 0,0 500 class standard
connection log       0,1 0,0 250 class standard
run 20000
)";

constexpr std::size_t kGuaranteed = static_cast<std::size_t>(alloc::ServiceClass::kGuaranteed);
constexpr std::size_t kStandard = static_cast<std::size_t>(alloc::ServiceClass::kStandard);
constexpr std::size_t kBestEffort = static_cast<std::size_t>(alloc::ServiceClass::kBestEffort);

soc::Scenario parse(const char* text) {
  std::istringstream in(text);
  std::string err;
  auto sc = soc::parse_scenario(in, &err);
  EXPECT_TRUE(sc.has_value()) << err;
  return *sc;
}

/// Router-to-router link of the first connection's request (or response)
/// route, from the same deterministic dimensioning the runner replays.
topo::LinkId first_router_link(soc::Scenario sc, bool response) {
  topo::Mesh mesh = sc.build();
  auto dim = alloc::dimension_network(mesh.topo, sc.connections, {sc.clock_mhz, 4}, {*sc.slots});
  EXPECT_TRUE(dim.has_value());
  const alloc::AllocatedConnection& c = dim->allocation.connections.front();
  return (response ? c.response : c.request).edges.at(1).link;
}

soc::RunSpec healing_spec(const soc::Scenario& sc, const std::string& plan) {
  soc::RunSpec spec;
  spec.label = "healing-test";
  spec.scenario = sc;
  std::string err;
  EXPECT_TRUE(sim::FaultPlan::parse_text(plan, &spec.fault_plan, &err)) << err;
  spec.fault_plan.seed = 42;
  spec.recovery.enabled = true;
  spec.recovery.preempt_best_effort = true;
  return spec;
}

std::string kill_at_5000(topo::LinkId link) {
  return "kill data@" + std::to_string(link) + " 5000 1000000\n";
}

const analysis::RecoveryEvent* event_of(const analysis::NetworkReport& r, const std::string& conn,
                                        const std::string& trigger) {
  for (const analysis::RecoveryEvent& e : r.recovery.events)
    if (e.connection == conn && e.trigger == trigger) return &e;
  return nullptr;
}

std::size_t events_with_trigger(const analysis::NetworkReport& r, const std::string& trigger) {
  std::size_t n = 0;
  for (const analysis::RecoveryEvent& e : r.recovery.events) n += e.trigger == trigger;
  return n;
}

/// "link:reserved" for every reserved link of the final schedule.
std::string reserved_links(const analysis::NetworkReport& r) {
  std::string s;
  for (const analysis::LinkUsage& u : r.links)
    s += std::to_string(u.link) + ":" + std::to_string(u.reserved) + " ";
  return s;
}

TEST(Healing, GuaranteedPreemptsTheBestEffortHoldingItsOnlyDetour) {
  const soc::Scenario sc = parse(kHealingMesh);
  const analysis::NetworkReport r =
      soc::run_scenario(healing_spec(sc, kill_at_5000(first_router_link(sc, false))));
  ASSERT_TRUE(r.error.empty()) << r.error;

  const analysis::RecoveryEvent* ctrl = event_of(r, "ctrl", "link_dead");
  ASSERT_NE(ctrl, nullptr);
  EXPECT_TRUE(ctrl->restored);
  EXPECT_GT(ctrl->hops_after, ctrl->hops_before); // the detour, not the dead link

  EXPECT_EQ(r.service.preemption_events, 1u);
  EXPECT_EQ(r.service.per_class[kBestEffort].preempted, 1u);
  EXPECT_EQ(r.service.per_class[kBestEffort].dead, 1u);
  EXPECT_EQ(r.service.per_class[kGuaranteed].dead, 0u);
  EXPECT_EQ(r.service.per_class[kGuaranteed].recovered, 1u);
  EXPECT_EQ(r.service.per_class[kStandard].dead, 0u);

  EXPECT_EQ(r.router_drops, 0u);
  EXPECT_EQ(r.ni_drops, 0u);
  EXPECT_EQ(r.rx_overflow, 0u);
}

TEST(Healing, CompactionAfterRecoveryIsPinnedAndSparesGuaranteed) {
  const soc::Scenario sc = parse(kHealingMesh);
  soc::RunSpec spec = healing_spec(sc, kill_at_5000(first_router_link(sc, false)));
  spec.recovery.compact_after_recovery = true;
  const analysis::NetworkReport r = soc::run_scenario(spec);
  ASSERT_TRUE(r.error.empty()) << r.error;

  EXPECT_EQ(r.service.compaction_passes, 1u);
  EXPECT_EQ(r.service.compaction_moves, 2u);
  EXPECT_EQ(r.service.compaction_digest, 0xe0fa8467ce13b682ull);
  ASSERT_EQ(events_with_trigger(r, "compaction"), 2u);
  EXPECT_NE(event_of(r, "telemetry", "compaction"), nullptr);
  EXPECT_NE(event_of(r, "log", "compaction"), nullptr);
  for (const analysis::RecoveryEvent& e : r.recovery.events) EXPECT_TRUE(e.restored) << e.connection;

  // The guaranteed connection moves once, for its repair, and never for
  // compaction.
  EXPECT_EQ(event_of(r, "ctrl", "compaction"), nullptr);
  EXPECT_NE(event_of(r, "ctrl", "link_dead"), nullptr);
  EXPECT_EQ(r.service.per_class[kGuaranteed].dead, 0u);
  EXPECT_EQ(r.router_drops + r.ni_drops + r.rx_overflow, 0u);
}

// Both rounds of one repair preempt: lost words on ctrl's request and
// response links make both suspects, ctrl's integrity alarm quarantines
// the pair, and each direction's detour is held by a different
// best-effort connection. That is one preempting repair, traced once
// with both victims.
constexpr const char* kTwoRoundMesh = R"(mesh 2 2
clock 500
host 0,1
slots 8
connection ctrl 0,0 1,0 500 resp 500 class guaranteed
connection be1  0,1 1,1 1750 class best_effort
connection be2  1,1 0,1 1750 class best_effort
connection std  1,0 0,0 250 class standard
run 20000
)";

TEST(Healing, PreemptionEventsCountRepairsNotRounds) {
  const soc::Scenario sc = parse(kTwoRoundMesh);
  const std::string req = std::to_string(first_router_link(sc, false));
  const std::string resp = std::to_string(first_router_link(sc, true));
  std::string plan;
  for (int nth : {10, 11, 12}) plan += "drop data@" + resp + " " + std::to_string(nth) + "\n";
  for (int nth : {300, 301, 302}) plan += "drop data@" + req + " " + std::to_string(nth) + "\n";
  soc::RunSpec spec = healing_spec(sc, plan);
  spec.recovery.dead_threshold = 1u << 30; // suspects only: the alarm localizes
  spec.recovery.integrity_threshold = 1;
  sim::Tracer tracer;
  spec.tracer = &tracer;
  const analysis::NetworkReport r = soc::run_scenario(spec);
  ASSERT_TRUE(r.error.empty()) << r.error;

  const analysis::RecoveryEvent* ctrl = event_of(r, "ctrl", "integrity");
  ASSERT_NE(ctrl, nullptr);
  EXPECT_TRUE(ctrl->restored);
  EXPECT_EQ(r.service.per_class[kBestEffort].preempted, 2u);
  EXPECT_EQ(r.service.per_class[kBestEffort].dead, 2u);

  EXPECT_EQ(r.service.preemption_events, 1u);
  std::vector<sim::TraceRecord> preempts;
  for (const sim::TraceRecord& rec : tracer.snapshot())
    if (rec.event == sim::TraceEvent::kPreemptBegin) preempts.push_back(rec);
  ASSERT_EQ(preempts.size(), 1u);
  EXPECT_EQ(preempts[0].arg1, 2u); // every victim of the repair
}

// A repair whose stream outlives reconfig_timeout is abandoned: the
// connection is dead, but its new reservations stay in the schedule (the
// hardware may still carry them), so neither compaction nor preemption
// may hand its slots to anyone else.
TEST(Healing, AbandonedRepairKeepsItsReservation) {
  const soc::Scenario sc = parse(kHealingMesh);
  soc::RunSpec spec = healing_spec(sc, kill_at_5000(first_router_link(sc, false)));
  spec.recovery.compact_after_recovery = true;
  spec.recovery.reconfig_timeout = 250; // the shared repair stream drains later
  const analysis::NetworkReport r = soc::run_scenario(spec);
  ASSERT_TRUE(r.error.empty()) << r.error;

  const analysis::RecoveryEvent* ctrl = event_of(r, "ctrl", "link_dead");
  const analysis::RecoveryEvent* telemetry = event_of(r, "telemetry", "link_dead");
  ASSERT_NE(ctrl, nullptr);
  ASSERT_NE(telemetry, nullptr);
  EXPECT_FALSE(ctrl->restored);
  EXPECT_FALSE(telemetry->restored);
  EXPECT_EQ(r.service.per_class[kGuaranteed].dead, 1u);
  EXPECT_EQ(r.service.per_class[kStandard].dead, 1u);

  // Only log, still live, is compacted; the abandoned standard connection
  // keeps its slots.
  EXPECT_EQ(r.service.compaction_moves, 1u);
  EXPECT_EQ(event_of(r, "telemetry", "compaction"), nullptr);
  EXPECT_NE(event_of(r, "log", "compaction"), nullptr);
  // Final schedule: both abandoned detours are still reserved.
  EXPECT_EQ(reserved_links(r), "2:4 5:4 8:4 9:4 1:3 6:3 11:2 14:2 3:1 10:1 12:1 13:1 15:1 ");
}

} // namespace
} // namespace daelite
