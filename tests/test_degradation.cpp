// Tests for QoS-aware graceful degradation: min-victims preemption
// planning (unit + mode-equivalence), per-class admission quotas,
// class-aware overload shedding, background slot compaction (never
// touching guaranteed connections, converging, digest-stable), and the
// quarantine-flip digest regression for the incremental path cache.
//
// Path-cache audit note (satellite of the degradation issue): the issue
// text suspected clear_quarantine() kept stale k-shortest entries cached
// under the quarantined topology. The implementation already invalidates
// on BOTH transitions — quarantine_link() and clear_quarantine() each
// clear path_cache_ — and QuarantineFlip.DigestMatchesAcrossModes pins
// that: a stale cache after a clear would reroute differently from the
// from-scratch allocator and split the decision digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "alloc/churn.hpp"
#include "topology/generators.hpp"

namespace {

using namespace daelite;
using namespace daelite::alloc;

ChannelSpec unicast(topo::NodeId src, topo::NodeId dst, std::uint32_t slots) {
  ChannelSpec s;
  s.src_ni = src;
  s.dst_nis = {dst};
  s.slots_required = slots;
  return s;
}

ConnectionSpec conn(const std::string& name, topo::NodeId src, topo::NodeId dst,
                    std::uint32_t req_slots, ServiceClass cls,
                    std::uint32_t resp_slots = 0) {
  return ConnectionSpec{name, src, {dst}, req_slots, resp_slots, cls};
}

// --- plan_preemption ---------------------------------------------------------

// Saturate the destination NI's ingress link (every path to the dst
// crosses it) with single-slot channels, so a fresh request has no free
// route. The plan must name the minimal victim set — one channel frees
// one slot — and releasing it must make allocate() succeed.
TEST(PlanPreemption, MinVictimsOverSaturatedIngress) {
  const auto m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(4));

  const topo::NodeId dst = m.ni(1, 1);
  const topo::NodeId srcs[] = {m.ni(0, 0), m.ni(1, 0), m.ni(0, 1), m.ni(0, 0)};
  std::vector<RouteTree> blockers;
  for (const topo::NodeId s : srcs) {
    auto r = alloc.allocate(unicast(s, dst, 1));
    ASSERT_TRUE(r.has_value());
    blockers.push_back(*r);
  }

  const ChannelSpec want = unicast(m.ni(0, 0), dst, 1);
  ASSERT_FALSE(alloc.allocate(want).has_value());

  const auto plan = alloc.plan_preemption(want, [](tdm::ChannelId) { return true; });
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->victims.size(), 1u); // one slot wanted, one victim frees it
  ASSERT_TRUE(std::is_sorted(plan->victims.begin(), plan->victims.end()));

  for (const RouteTree& b : blockers)
    if (std::find(plan->victims.begin(), plan->victims.end(), b.channel) != plan->victims.end())
      alloc.release(b);
  EXPECT_TRUE(alloc.allocate(want).has_value());
}

// With no channel preemptable, a fully booked ingress cannot be freed.
TEST(PlanPreemption, NothingPreemptableMeansNoPlan) {
  const auto m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(4));
  const topo::NodeId dst = m.ni(1, 1);
  for (const topo::NodeId s : {m.ni(0, 0), m.ni(1, 0), m.ni(0, 1), m.ni(0, 0)})
    ASSERT_TRUE(alloc.allocate(unicast(s, dst, 1)).has_value());

  const ChannelSpec want = unicast(m.ni(0, 0), dst, 1);
  EXPECT_FALSE(alloc.plan_preemption(want, [](tdm::ChannelId) { return false; }).has_value());
}

// Preemption planning is defined for unicast requests only.
TEST(PlanPreemption, MulticastSpecGetsNoPlan) {
  const auto m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(4));
  ChannelSpec spec;
  spec.src_ni = m.ni(0, 0);
  spec.dst_nis = {m.ni(1, 0), m.ni(1, 1)};
  spec.slots_required = 1;
  EXPECT_FALSE(alloc.plan_preemption(spec, [](tdm::ChannelId) { return true; }).has_value());
}

// The plan is part of the decision stream, so it must be identical
// between the incremental and the from-scratch allocator.
TEST(PlanPreemption, IdenticalAcrossAllocatorModes) {
  const auto m = topo::make_mesh(2, 2);
  AllocatorOptions inc_opt;
  inc_opt.incremental = true;
  SlotAllocator ia(m.topo, tdm::daelite_params(4), inc_opt);
  SlotAllocator sa(m.topo, tdm::daelite_params(4));

  const topo::NodeId dst = m.ni(1, 1);
  for (const topo::NodeId s : {m.ni(0, 0), m.ni(1, 0), m.ni(0, 1), m.ni(0, 0)}) {
    ASSERT_TRUE(ia.allocate(unicast(s, dst, 1)).has_value());
    ASSERT_TRUE(sa.allocate(unicast(s, dst, 1)).has_value());
  }
  const ChannelSpec want = unicast(m.ni(0, 0), dst, 2);
  const auto pi = ia.plan_preemption(want, [](tdm::ChannelId) { return true; });
  const auto ps = sa.plan_preemption(want, [](tdm::ChannelId) { return true; });
  ASSERT_EQ(pi.has_value(), ps.has_value());
  if (pi) {
    EXPECT_EQ(pi->path_index, ps->path_index);
    EXPECT_EQ(pi->victims, ps->victims);
    EXPECT_EQ(pi->path.links, ps->path.links);
  }
}

// --- Service-level preemption ------------------------------------------------

// A guaranteed set-up that finds no route tears down best-effort victims
// and succeeds; the victims leave the live set and are reported.
TEST(ServicePreemption, GuaranteedEvictsBestEffort) {
  const auto m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(4));
  AdmissionControl admission;
  admission.preempt_best_effort = true;
  ChurnService service(alloc, admission);

  const topo::NodeId dst = m.ni(1, 1);
  std::vector<std::uint64_t> be_ids;
  int i = 0;
  for (const topo::NodeId s : {m.ni(0, 0), m.ni(1, 0), m.ni(0, 1), m.ni(0, 0)}) {
    const auto r =
        service.set_up(conn("be" + std::to_string(i++), s, dst, 1, ServiceClass::kBestEffort));
    ASSERT_EQ(r.status, ChurnStatus::kAdmitted);
    be_ids.push_back(r.connection);
  }
  EXPECT_EQ(service.live_of_class(ServiceClass::kBestEffort), 4u);

  const auto gt = service.set_up(conn("gt", m.ni(0, 0), dst, 1, ServiceClass::kGuaranteed));
  ASSERT_EQ(gt.status, ChurnStatus::kAdmitted);
  EXPECT_FALSE(service.last_preempted().empty());
  EXPECT_GE(service.metrics().preemptions.value(), 1u);
  for (const std::uint64_t v : service.last_preempted()) {
    EXPECT_EQ(service.connection(v), nullptr) << "victim " << v << " still live";
    EXPECT_NE(std::find(be_ids.begin(), be_ids.end(), v), be_ids.end());
  }
  EXPECT_EQ(service.live_of_class(ServiceClass::kGuaranteed), 1u);
}

// Without the policy bit, the same pressure is a plain no-route reject.
TEST(ServicePreemption, DisabledPolicyRejects) {
  const auto m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(4));
  ChurnService service(alloc); // preempt_best_effort defaults off

  const topo::NodeId dst = m.ni(1, 1);
  int i = 0;
  for (const topo::NodeId s : {m.ni(0, 0), m.ni(1, 0), m.ni(0, 1), m.ni(0, 0)})
    ASSERT_EQ(service
                  .set_up(conn("be" + std::to_string(i++), s, dst, 1,
                               ServiceClass::kBestEffort))
                  .status,
              ChurnStatus::kAdmitted);
  const auto gt = service.set_up(conn("gt", m.ni(0, 0), dst, 1, ServiceClass::kGuaranteed));
  EXPECT_EQ(gt.status, ChurnStatus::kRejectedNoRoute);
  EXPECT_EQ(service.metrics().preemptions.value(), 0u);
}

// --- Recovery-runner lifecycle: adopt and reroute -----------------------------

// Adopting a dimensioned allocation in order numbers it 0, 1, 2, ... and
// reproduces its reservations exactly; a connection whose slots are taken
// is refused as a unit and registers nothing.
TEST(Lifecycle, AdoptNumbersInOrderAndRestoresReservations) {
  const auto m = topo::make_mesh(3, 3);
  SlotAllocator scratch(m.topo, tdm::daelite_params(8));
  UseCase uc;
  uc.connections = {conn("a", m.ni(0, 0), m.ni(2, 2), 2, ServiceClass::kGuaranteed, 1),
                    conn("b", m.ni(1, 0), m.ni(0, 2), 1, ServiceClass::kStandard, 1),
                    conn("c", m.ni(2, 1), m.ni(0, 1), 3, ServiceClass::kBestEffort, 1)};
  const auto dim = allocate_use_case(scratch, uc);
  ASSERT_TRUE(dim.has_value());

  SlotAllocator live(m.topo, tdm::daelite_params(8));
  ChurnService service(live);
  for (std::size_t i = 0; i < dim->connections.size(); ++i) {
    const auto r = service.adopt(dim->connections[i]);
    ASSERT_EQ(r.status, ChurnStatus::kAdmitted);
    EXPECT_EQ(r.connection, i);
    EXPECT_EQ(service.connection(i)->request.channel, dim->connections[i].request.channel);
  }
  EXPECT_EQ(live.allocated_channels(), scratch.allocated_channels());
  EXPECT_DOUBLE_EQ(live.utilization(), scratch.utilization());
  EXPECT_EQ(service.live_of_class(ServiceClass::kBestEffort), 1u);

  // Block one slot of a's response: its request must not stay reserved.
  SlotAllocator blocked(m.topo, tdm::daelite_params(8));
  const RouteTree& resp = dim->connections[0].response;
  const RouteEdge& e = resp.edges.front();
  ASSERT_TRUE(blocked.reserve_raw(
      e.link, blocked.params().slot_at_link(resp.inject_slots.front(), e.depth), 1000));
  ChurnService refusing(blocked);
  EXPECT_EQ(refusing.adopt(dim->connections[0]).status, ChurnStatus::kRejectedNoRoute);
  EXPECT_EQ(refusing.live_connections(), 0u);
  EXPECT_EQ(blocked.allocated_channels(), 0u);
  EXPECT_EQ(refusing.adopt(dim->connections[1]).connection, 0u);
}

bool crosses_quarantine(const SlotAllocator& alloc, const RouteTree& route) {
  for (const RouteEdge& e : route.edges)
    if (alloc.is_quarantined(e.link)) return true;
  return false;
}

// On a 2x2 mesh, gt's only detour around its quarantined direct link is
// held (7 of 8 slots) by a best-effort connection.
TEST(Lifecycle, RerouteKeepsTheIdAndPreemptsForGuaranteed) {
  AdmissionControl admission;
  admission.preempt_best_effort = true;
  topo::Mesh m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(8));
  ChurnService service(alloc, admission);
  const std::uint64_t gt =
      service.set_up(conn("gt", m.ni(0, 0), m.ni(1, 0), 2, ServiceClass::kGuaranteed)).connection;
  const std::uint64_t be =
      service.set_up(conn("be", m.ni(0, 1), m.ni(1, 1), 7, ServiceClass::kBestEffort)).connection;
  ASSERT_NE(service.connection(be), nullptr);
  alloc.quarantine_link(service.connection(gt)->request.edges.at(1).link);

  const auto r = service.reroute(gt);
  ASSERT_EQ(r.status, ChurnStatus::kAdmitted);
  EXPECT_EQ(r.connection, gt);
  ASSERT_NE(service.connection(gt), nullptr);
  EXPECT_EQ(service.connection(gt)->id, gt);
  EXPECT_FALSE(crosses_quarantine(alloc, service.connection(gt)->request));
  EXPECT_EQ(service.last_preempted(), std::vector<std::uint64_t>{be});
  EXPECT_EQ(service.connection(be), nullptr);
  EXPECT_EQ(service.metrics().preemptions.value(), 1u);
  EXPECT_EQ(service.live_connections(), 1u);
}

// Without the policy, a reroute that fits nowhere tears the connection
// down and frees its reservations.
TEST(Lifecycle, FailedRerouteTearsTheConnectionDown) {
  topo::Mesh m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(8));
  ChurnService service(alloc);
  const std::uint64_t gt =
      service.set_up(conn("gt", m.ni(0, 0), m.ni(1, 0), 2, ServiceClass::kGuaranteed)).connection;
  const std::uint64_t be =
      service.set_up(conn("be", m.ni(0, 1), m.ni(1, 1), 7, ServiceClass::kBestEffort)).connection;
  alloc.quarantine_link(service.connection(gt)->request.edges.at(1).link);

  EXPECT_EQ(service.reroute(gt).status, ChurnStatus::kRejectedNoRoute);
  EXPECT_EQ(service.connection(gt), nullptr);
  EXPECT_NE(service.connection(be), nullptr);
  EXPECT_TRUE(service.last_preempted().empty());
  EXPECT_EQ(service.live_of_class(ServiceClass::kGuaranteed), 0u);
  EXPECT_EQ(alloc.allocated_channels(), 1u); // be's request only
  EXPECT_EQ(service.reroute(gt).status, ChurnStatus::kUnknownConnection);
}

// --- Per-class quotas --------------------------------------------------------

TEST(ClassQuota, MaxLiveBoundsOneClassOnly) {
  const auto m = topo::make_mesh(3, 3);
  SlotAllocator alloc(m.topo, tdm::daelite_params(16));
  AdmissionControl admission;
  admission.quota[static_cast<std::size_t>(ServiceClass::kGuaranteed)].max_live = 2;
  ChurnService service(alloc, admission);

  const auto nis = m.all_nis();
  ASSERT_EQ(service.set_up(conn("g0", nis[0], nis[4], 1, ServiceClass::kGuaranteed)).status,
            ChurnStatus::kAdmitted);
  ASSERT_EQ(service.set_up(conn("g1", nis[1], nis[5], 1, ServiceClass::kGuaranteed)).status,
            ChurnStatus::kAdmitted);
  // Third guaranteed set-up trips the class quota...
  EXPECT_EQ(service.set_up(conn("g2", nis[2], nis[6], 1, ServiceClass::kGuaranteed)).status,
            ChurnStatus::kRejectedAdmission);
  // ...while other classes are untouched.
  EXPECT_EQ(service.set_up(conn("s0", nis[2], nis[6], 1, ServiceClass::kStandard)).status,
            ChurnStatus::kAdmitted);
  // Tearing one down frees the quota slot.
  const auto g0 = service.live_id_at(0);
  ASSERT_EQ(service.tear_down(g0), ChurnStatus::kAdmitted);
  EXPECT_EQ(service.set_up(conn("g3", nis[2], nis[7], 1, ServiceClass::kGuaranteed)).status,
            ChurnStatus::kAdmitted);
}

TEST(ClassQuota, UtilizationCeilingPerClass) {
  const auto m = topo::make_mesh(2, 2);
  SlotAllocator alloc(m.topo, tdm::daelite_params(8));
  AdmissionControl admission;
  // Best-effort may not push the schedule past ~zero occupancy; the first
  // set-up (empty schedule) passes, the next is refused.
  admission.quota[static_cast<std::size_t>(ServiceClass::kBestEffort)].max_utilization = 1e-9;
  ChurnService service(alloc, admission);

  ASSERT_EQ(service.set_up(conn("b0", m.ni(0, 0), m.ni(1, 1), 1, ServiceClass::kBestEffort))
                .status,
            ChurnStatus::kAdmitted);
  EXPECT_EQ(service.set_up(conn("b1", m.ni(1, 0), m.ni(0, 1), 1, ServiceClass::kBestEffort))
                .status,
            ChurnStatus::kRejectedAdmission);
  // Guaranteed traffic ignores the best-effort ceiling.
  EXPECT_EQ(service.set_up(conn("g0", m.ni(1, 0), m.ni(0, 1), 1, ServiceClass::kGuaranteed))
                .status,
            ChurnStatus::kAdmitted);
}

// --- Overload shedding -------------------------------------------------------

// Open-loop overload with a tiny retry queue: shedding exists and lands
// on best-effort at least as hard as on guaranteed (class-aware eviction
// drops the least important waiter first).
TEST(Overload, ShedsBestEffortBeforeGuaranteed) {
  const auto m = topo::make_mesh(3, 3);
  ChurnRunOptions run;
  run.requests = 4000;
  run.workload.seed = 9;
  run.workload.arrival_rate = 0.01;
  run.workload.mean_hold_cycles = 400000.0;
  run.workload.guaranteed_fraction = 0.2;
  run.workload.best_effort_fraction = 0.4;
  run.overload.enabled = true;
  run.overload.pending_capacity = 4;
  run.overload.max_attempts = 3;

  SlotAllocator alloc(m.topo, tdm::daelite_params(16));
  const ChurnReport r = run_churn(alloc, run);
  ASSERT_TRUE(r.qos_enabled);
  const auto& gt = r.per_class[static_cast<std::size_t>(ServiceClass::kGuaranteed)];
  const auto& be = r.per_class[static_cast<std::size_t>(ServiceClass::kBestEffort)];
  EXPECT_GT(r.shed_total, 0u);
  EXPECT_GT(r.retry_attempts, 0u);
  EXPECT_GT(be.shed, 0u);
  EXPECT_GE(be.shed, gt.shed);
  std::uint64_t sum = 0;
  for (const auto& c : r.per_class) sum += c.shed;
  EXPECT_EQ(sum, r.shed_total);
}

// Disabled overload control keeps the report QoS-free: no shed, no
// retries, and the legacy digest untouched (byte-identity contract).
TEST(Overload, DisabledKeepsLegacyDigest) {
  const auto m = topo::make_mesh(3, 3);
  ChurnRunOptions plain;
  plain.requests = 2000;
  plain.workload.seed = 3;

  SlotAllocator a1(m.topo, tdm::daelite_params(16));
  const ChurnReport base = run_churn(a1, plain);
  EXPECT_FALSE(base.qos_enabled);
  EXPECT_EQ(base.shed_total, 0u);
  EXPECT_EQ(base.retry_attempts, 0u);

  SlotAllocator a2(m.topo, tdm::daelite_params(16));
  const ChurnReport again = run_churn(a2, plain);
  EXPECT_EQ(base.decision_digest, again.decision_digest);
}

// --- Compaction --------------------------------------------------------------

// Tear-down gaps leave high injection slots in use; compaction re-packs
// non-guaranteed connections downward, converges, and never touches a
// guaranteed route.
TEST(Compaction, RepacksAndSparesGuaranteed) {
  const auto m = topo::make_mesh(3, 3);
  SlotAllocator alloc(m.topo, tdm::daelite_params(16));
  ChurnService service(alloc);

  const auto nis = m.all_nis();
  // Interleave set-ups so tear-downs punch holes into the slot wheel.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    const auto r = service.set_up(conn("c" + std::to_string(i), nis[i % nis.size()],
                                       nis[(i + 4) % nis.size()], 2,
                                       i == 0 ? ServiceClass::kGuaranteed
                                              : ServiceClass::kBestEffort));
    ASSERT_EQ(r.status, ChurnStatus::kAdmitted) << i;
    ids.push_back(r.connection);
  }
  for (std::size_t i = 1; i < ids.size(); i += 2)
    ASSERT_EQ(service.tear_down(ids[i]), ChurnStatus::kAdmitted);

  const AllocatedConnection before_gt = *service.connection(ids[0]);

  std::size_t total_moved = 0;
  std::uint64_t first_digest = 0;
  bool converged = false;
  for (int pass = 0; pass < 10; ++pass) {
    const auto cr = service.compact(64);
    EXPECT_EQ(cr.moves.size(), cr.moved);
    EXPECT_TRUE(std::is_sorted(cr.moves.begin(), cr.moves.end()));
    if (pass == 0) {
      EXPECT_GT(cr.moved, 0u) << "tear-down gaps left nothing to re-pack";
      first_digest = cr.digest;
    }
    total_moved += cr.moved;
    if (cr.moved == 0) {
      converged = true;
      break;
    }
  }
  EXPECT_TRUE(converged) << "compaction did not converge in 10 passes";
  EXPECT_GT(total_moved, 0u);
  EXPECT_NE(first_digest, 14695981039346656037ull); // moves happened -> digest mixed

  // The guaranteed connection is bit-identical.
  const AllocatedConnection* after_gt = service.connection(ids[0]);
  ASSERT_NE(after_gt, nullptr);
  EXPECT_EQ(after_gt->request.channel, before_gt.request.channel);
  EXPECT_EQ(after_gt->request.inject_slots, before_gt.request.inject_slots);
  EXPECT_EQ(after_gt->request.edges, before_gt.request.edges);

  // Re-packing must not leak or duplicate reservations: every live
  // connection still has a consistent route and the service can keep
  // allocating.
  EXPECT_EQ(service.metrics().rollback_failures.value(), 0u);
  EXPECT_EQ(service.live_connections(), 6u);
}

// Compaction decisions replay identically across allocator modes.
TEST(Compaction, DigestIdenticalAcrossModes) {
  const auto m = topo::make_mesh(3, 3);
  ChurnRunOptions run;
  run.requests = 3000;
  run.workload.seed = 11;
  run.workload.mean_hold_cycles = 150000.0;
  run.compaction.every = 250;
  run.compaction.max_moves = 64;

  AllocatorOptions inc_opt;
  inc_opt.incremental = true;
  SlotAllocator ia(m.topo, tdm::daelite_params(16), inc_opt);
  const ChurnReport inc = run_churn(ia, run);
  SlotAllocator sa(m.topo, tdm::daelite_params(16));
  const ChurnReport scr = run_churn(sa, run);

  ASSERT_TRUE(inc.qos_enabled);
  EXPECT_GT(inc.compaction_passes, 0u);
  EXPECT_EQ(inc.compaction_passes, scr.compaction_passes);
  EXPECT_EQ(inc.compaction_moves, scr.compaction_moves);
  EXPECT_EQ(inc.compaction_digest, scr.compaction_digest);
  EXPECT_EQ(inc.decision_digest, scr.decision_digest);
}

// --- Quarantine-flip digest regression ---------------------------------------

// Flip quarantine ON and OFF mid-stream through run_churn's event
// schedule and require digest equality between the incremental and the
// from-scratch allocator. The incremental mode memoizes k-shortest paths;
// a cache left stale after clear_quarantine() would keep routing around a
// link that is healthy again and split the digest here. (Audit: the
// implementation invalidates on both transitions; this pins it.)
TEST(QuarantineFlip, DigestMatchesAcrossModes) {
  const auto m = topo::make_mesh(3, 3);
  ChurnRunOptions run;
  run.requests = 3000;
  run.workload.seed = 21;
  run.workload.mean_hold_cycles = 200000.0;
  run.quarantine_events = {
      {400, 5, false},  // quarantine link 5
      {800, 17, false}, // and link 17 on top
      {1200, 0, true},  // clear everything — the transition under audit
      {1600, 9, false}, // quarantine again
      {2000, 0, true},  // and clear again
  };
  run.compaction.after_quarantine = false; // isolate the cache question

  AllocatorOptions inc_opt;
  inc_opt.incremental = true;
  SlotAllocator ia(m.topo, tdm::daelite_params(16), inc_opt);
  const ChurnReport inc = run_churn(ia, run);
  SlotAllocator sa(m.topo, tdm::daelite_params(16));
  const ChurnReport scr = run_churn(sa, run);

  ASSERT_TRUE(inc.qos_enabled);
  EXPECT_EQ(inc.decision_digest, scr.decision_digest);
  EXPECT_EQ(inc.metrics.admitted.value(), scr.metrics.admitted.value());
  EXPECT_EQ(inc.metrics.rejected_no_route.value(), scr.metrics.rejected_no_route.value());
  EXPECT_EQ(inc.final_utilization, scr.final_utilization);
  EXPECT_EQ(inc.channel_id_watermark, scr.channel_id_watermark);

  // After the final clear both allocators route as if never quarantined:
  // a fresh allocator replaying the same stream WITHOUT the events from
  // the last clear onward is not required to match (history differs), but
  // the two modes must agree on the quarantine set itself.
  EXPECT_TRUE(ia.quarantined_links().empty());
  EXPECT_TRUE(sa.quarantined_links().empty());
}

} // namespace
