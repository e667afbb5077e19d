// Failure-injection tests: the model must degrade detectably, never
// silently, under misconfiguration and protocol errors — the counters
// that a bring-up engineer would watch on the real chip.

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>

#include "analysis/network_report.hpp"
#include "daelite/config.hpp"
#include "daelite/config_host.hpp"
#include "daelite/network.hpp"
#include "alloc/usecase.hpp"
#include "alloc/allocator.hpp"
#include "sim/fault.hpp"
#include "sim/json.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "soc/runner.hpp"
#include "topology/generators.hpp"

namespace {

using namespace daelite;
using namespace daelite::hw;

struct NetFixture : ::testing::Test {
  topo::Mesh mesh = topo::make_mesh(2, 2);
  sim::Kernel kernel;
  std::unique_ptr<DaeliteNetwork> net;

  void SetUp() override {
    DaeliteNetwork::Options opt;
    opt.tdm = tdm::daelite_params(8);
    opt.cfg_root = mesh.ni(0, 0);
    net = std::make_unique<DaeliteNetwork>(kernel, mesh.topo, opt);
  }

  void run_cfg() { net->run_config(); }
};

TEST_F(NetFixture, ElementLookupOfTheWrongKindThrows) {
  // The dense node-id stores fail as loudly as the maps they replaced.
  EXPECT_THROW(net->ni(mesh.router(0, 0)), std::out_of_range);
  EXPECT_THROW(net->router(mesh.ni(0, 0)), std::out_of_range);
  EXPECT_THROW(net->ni(static_cast<topo::NodeId>(mesh.topo.node_count())), std::out_of_range);
  EXPECT_THROW(net->alloc_tx_queue(mesh.router(1, 1)), std::out_of_range);
  EXPECT_NO_THROW(net->ni(mesh.ni(1, 1)));
}

TEST_F(NetFixture, UnknownOpcodeCountsProtocolErrors) {
  net->config_module().enqueue_packet({0x55, 0, 0, 0}, false); // 0x55: no such opcode
  run_cfg();
  std::uint64_t errors = 0;
  for (topo::NodeId n = 0; n < mesh.topo.node_count(); ++n) {
    if (mesh.topo.is_router(n)) errors += net->router(n).config_agent().protocol_errors();
  }
  EXPECT_GT(errors, 0u);
  // And nothing was configured.
  for (topo::NodeId n = 0; n < mesh.topo.node_count(); ++n)
    if (mesh.topo.is_router(n)) {
      EXPECT_TRUE(net->router(n).table().empty());
    }
}

TEST_F(NetFixture, PacketForUnknownElementConfiguresNothing) {
  alloc::CfgSegment seg;
  seg.slots_at_head = {3};
  seg.elements = {alloc::CfgElement{0, 0, 1, false, false}};
  CfgIdMap fake{{0, 125}}; // no element has id 125
  net->config_module().enqueue_packet(
      encode_path_packet(seg, net->options().tdm, fake, true), true);
  run_cfg();
  for (topo::NodeId n = 0; n < mesh.topo.node_count(); ++n)
    if (mesh.topo.is_router(n)) {
      EXPECT_TRUE(net->router(n).table().empty());
    }
  EXPECT_EQ(net->total_cfg_errors(), 0u); // well-formed, just not addressed to anyone
}

TEST_F(NetFixture, CreditOpAddressedToRouterCountsError) {
  const std::uint16_t router_id = net->cfg_ids().at(mesh.router(0, 0));
  net->config_module().enqueue_packet(encode_write_credit(router_id, 0, 5), false);
  run_cfg();
  EXPECT_EQ(net->router(mesh.router(0, 0)).stats().cfg_errors, 1u);
}

TEST_F(NetFixture, OutOfRangeQueueCountsNiError) {
  const std::uint16_t ni_id = net->cfg_ids().at(mesh.ni(1, 0));
  net->config_module().enqueue_packet(encode_write_credit(ni_id, 62, 5), false);
  run_cfg();
  EXPECT_EQ(net->ni(mesh.ni(1, 0)).stats().cfg_errors, 1u);
}

TEST_F(NetFixture, MisroutedFlitIsCountedAtTheRouter) {
  // Program only the source NI (no router entries): the flit enters the
  // first router in a slot with no table entry and must be dropped +
  // counted, never silently lost.
  Ni& src = net->ni(mesh.ni(0, 0));
  src.table().set_tx(2, 0);
  src.set_credit_direct(0, 8);
  src.tx_push(0, 0xBAD);
  kernel.run(4 * net->options().tdm.wheel_cycles());
  EXPECT_EQ(net->total_router_drops(), 1u);
}

TEST_F(NetFixture, HalfTornDownPathDropsAtTheGap) {
  // Configure a 2-hop route, then clear only the middle router: traffic
  // must be dropped exactly there.
  alloc::SlotAllocator alloc(mesh.topo, net->options().tdm);
  alloc::ChannelSpec spec;
  spec.src_ni = mesh.ni(0, 0);
  spec.dst_nis = {mesh.ni(1, 0)};
  spec.slots_required = 1;
  const auto route = alloc.allocate(spec);
  ASSERT_TRUE(route.has_value());
  net->program_route_direct(*route, 0, {0});

  // Knock out the second router on the path (the one feeding the dst NI).
  const topo::Link& last = mesh.topo.link(route->edges.back().link);
  ASSERT_TRUE(mesh.topo.is_router(last.src));
  Router& mid = net->router(last.src);
  for (tdm::Slot s = 0; s < 8; ++s)
    for (std::size_t o = 0; o < mid.table().num_outputs(); ++o) mid.table().clear(o, s);

  Ni& src = net->ni(mesh.ni(0, 0));
  src.set_credit_direct(0, 8);
  src.set_flow_ctrl_direct(0, false);
  src.tx_push(0, 1);
  src.tx_push(0, 2);
  kernel.run(8 * net->options().tdm.wheel_cycles());
  EXPECT_EQ(mid.stats().flits_dropped, net->total_router_drops());
  EXPECT_GT(mid.stats().flits_dropped, 0u);
  EXPECT_EQ(net->ni(mesh.ni(1, 0)).rx_level(0), 0u);
}

TEST_F(NetFixture, ConflictingTableEntryIsObservableNotFatal) {
  // Two channels misconfigured onto the same router (output, slot): the
  // hardware forwards per the (single) table entry; the losing channel's
  // flits arrive at the wrong destination queue or are dropped — both
  // observable through stats. Here: NI(0,0) and NI(0,1)... simplest:
  // program a table entry that points at an input with no matching rx
  // mapping downstream.
  Ni& src = net->ni(mesh.ni(0, 0));
  src.table().set_tx(0, 0);
  src.set_credit_direct(0, 8);
  src.set_flow_ctrl_direct(0, false);

  // Route the flit to the dst NI but give the NI no rx entry.
  Router& r00 = net->router(mesh.router(0, 0));
  const topo::Link& in_l = mesh.topo.link(mesh.topo.find_link(mesh.ni(0, 0), mesh.router(0, 0)));
  const topo::Link& out_l = mesh.topo.link(mesh.topo.find_link(mesh.router(0, 0), mesh.ni(0, 0)));
  r00.table().set(out_l.src_port, 1, static_cast<tdm::PortIndex>(in_l.dst_port));

  src.tx_push(0, 7);
  kernel.run(4 * net->options().tdm.wheel_cycles());
  EXPECT_EQ(net->ni(mesh.ni(0, 0)).stats().flits_dropped, 1u);
}

TEST_F(NetFixture, ResponsePathCollisionIsCounted) {
  // Two simultaneous read responses violate the one-outstanding-request
  // protocol; the convergence logic must count the collision.
  const std::uint16_t id_a = net->cfg_ids().at(mesh.ni(1, 0));
  const std::uint16_t id_b = net->cfg_ids().at(mesh.ni(0, 1));
  // Issue two reads back-to-back *without* waiting for responses (abuse
  // the module by marking them as not expecting responses).
  net->config_module().enqueue_packet(encode_read_credit(id_a, 0), false, false);
  net->config_module().enqueue_packet(encode_read_credit(id_b, 0), false, false);
  run_cfg();
  // Allow the responses to climb back up the tree (2 cycles per level).
  kernel.run(4 * net->config_tree().max_depth() + 16);
  // Depending on tree depths the responses may or may not collide; the
  // invariant is that the network never deadlocks and any collision is
  // counted, never silent.
  std::uint64_t collisions = 0;
  for (topo::NodeId n = 0; n < mesh.topo.node_count(); ++n) {
    ConfigAgent& a = mesh.topo.is_router(n) ? net->router(n).config_agent()
                                            : net->ni(n).config_agent();
    collisions += a.protocol_errors();
  }
  const std::size_t responses = net->config_module().responses().size();
  EXPECT_GE(responses + collisions, 1u);
}

// --- Deterministic link faults + watchdog ------------------------------------

sim::FaultPlan plan_from(const std::string& text) {
  sim::FaultPlan plan;
  std::string err;
  EXPECT_TRUE(sim::FaultPlan::parse_text(text, &plan, &err)) << err;
  return plan;
}

TEST_F(NetFixture, WatchdogRetriesDroppedResponse) {
  // Drop the first response word anywhere on the tree: the module's
  // watchdog must time out, re-send the read, and complete on the retry.
  sim::FaultInjector injector(kernel, "fault", plan_from("drop cfg_resp 0"));
  net->attach_fault_lines(injector);

  const std::uint16_t ni_id = net->cfg_ids().at(mesh.ni(1, 0));
  net->config_module().enqueue_packet(encode_read_credit(ni_id, 0), false,
                                      /*expects_response=*/true);
  const sim::Cycle done = net->run_config();
  ASSERT_NE(done, sim::kNoCycle);

  EXPECT_EQ(net->config_module().timeouts(), 1u);
  EXPECT_EQ(net->config_module().retries(), 1u);
  EXPECT_EQ(net->config_module().aborted(), 0u);
  ASSERT_EQ(net->config_module().responses().size(), 1u);
  EXPECT_EQ(injector.counters(sim::FaultClass::kCfgResp).dropped, 1u);
}

TEST_F(NetFixture, ExhaustedRetriesAbortWithCounters) {
  // Kill the response path outright: every attempt times out, the module
  // aborts the request after max_retries and the stream still converges
  // (no deadlock), with the failure visible in the counters.
  sim::FaultInjector injector(kernel, "fault", plan_from("kill cfg_resp 0 1000000"));
  net->attach_fault_lines(injector);

  const std::uint16_t ni_id = net->cfg_ids().at(mesh.ni(1, 0));
  net->config_module().enqueue_packet(encode_read_credit(ni_id, 0), false,
                                      /*expects_response=*/true);
  const sim::Cycle done = net->run_config();
  ASSERT_NE(done, sim::kNoCycle);

  const auto& m = net->config_module();
  EXPECT_EQ(m.retries(), 3u);            // default max_retries
  EXPECT_EQ(m.timeouts(), 4u);           // original + each retry timed out
  EXPECT_EQ(m.aborted(), 1u);
  EXPECT_TRUE(m.responses().empty());
  EXPECT_GT(injector.counters(sim::FaultClass::kCfgResp).killed, 0u);
}

TEST_F(NetFixture, DataBitFlipChangesWordsNotSchedule) {
  // A single-event upset on a data link corrupts the payload word but must
  // not change how many words arrive or where they go.
  alloc::SlotAllocator alloc(mesh.topo, net->options().tdm);
  alloc::ChannelSpec spec;
  spec.src_ni = mesh.ni(0, 0);
  spec.dst_nis = {mesh.ni(1, 0)};
  spec.slots_required = 1;
  const auto route = alloc.allocate(spec);
  ASSERT_TRUE(route.has_value());
  net->program_route_direct(*route, 0, {0});

  sim::FaultInjector injector(kernel, "fault", plan_from("flip data 0 3"));
  net->attach_fault_lines(injector);

  Ni& src = net->ni(mesh.ni(0, 0));
  Ni& dst = net->ni(mesh.ni(1, 0));
  src.set_credit_direct(0, 8);
  src.tx_push(0, 0xA5);
  kernel.run(4 * net->options().tdm.wheel_cycles());

  ASSERT_EQ(dst.rx_level(0), 1u);
  const auto got = dst.rx_pop(0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0xA5u ^ (1u << 3)); // exactly the planned bit differs
  EXPECT_EQ(net->total_router_drops(), 0u);
  EXPECT_EQ(net->total_ni_drops(), 0u);
  EXPECT_EQ(injector.counters(sim::FaultClass::kData).flipped, 1u);
}

TEST(FaultDeterminism, IdenticalSeedAcrossJobCounts) {
  // The same fault seed must produce byte-identical reports regardless of
  // how many worker threads execute the batch (each job owns its injector).
  soc::Scenario sc;
  sc.kind = soc::Scenario::TopologyKind::kMesh;
  sc.width = 3;
  sc.height = 3;
  sc.host = {1, 1};
  sc.run_cycles = 1500;
  soc::Scenario::RawConnection a{"a", {0, 0}, {{2, 2}}, 150.0};
  soc::Scenario::RawConnection b{"b", {2, 0}, {{0, 2}, {0, 0}}, 40.0};
  sc.raw = {a, b};

  const auto run_jobs = [&](std::size_t threads) {
    return sim::parallel_map<analysis::NetworkReport>(4, threads, [&](std::size_t i) {
      soc::RunSpec spec;
      spec.label = "job" + std::to_string(i);
      spec.scenario = sc;
      spec.fault_plan.seed = 7;
      spec.fault_plan.rate = 0.002;
      return soc::run_scenario(spec);
    });
  };
  const auto serial = run_jobs(1);
  const auto parallel = run_jobs(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].to_json().dump(2), parallel[i].to_json().dump(2)) << "job " << i;
    EXPECT_TRUE(serial[i].health.enabled);
    EXPECT_GT(serial[i].health.faults_injected, 0u) << "rate 0.002 should inject on a 1500-cycle run";
  }
}

TEST(OutstandingRead, StrideMatchesReferenceAndNeverCertifiesFixedPoint) {
  // Watchdog off + response path dead: the read stays outstanding forever.
  // The stride scheduler's quiescence fast-forward must not certify a
  // fixed point (the module is waiting, not done): run_config() times out
  // at the same cycle under both schedulers and reports non-convergence.
  sim::Cycle now_at_exit[2] = {0, 0};
  int idx = 0;
  for (sim::Scheduler sched : {sim::Scheduler::kStride, sim::Scheduler::kReference}) {
    topo::Mesh mesh = topo::make_mesh(2, 2);
    sim::Kernel kernel(sched);
    DaeliteNetwork::Options opt;
    opt.tdm = tdm::daelite_params(8);
    opt.cfg_root = mesh.ni(0, 0);
    opt.cfg_watchdog = false; // pre-watchdog behaviour: block forever
    DaeliteNetwork net(kernel, mesh.topo, opt);
    sim::FaultInjector injector(kernel, "fault", plan_from("kill cfg_resp 0 1000000"));
    net.attach_fault_lines(injector);

    net.config_module().enqueue_packet(
        encode_read_credit(net.cfg_ids().at(mesh.ni(1, 0)), 0), false,
        /*expects_response=*/true);
    EXPECT_EQ(net.run_config(5000), sim::kNoCycle) << "scheduler " << idx;
    now_at_exit[idx++] = kernel.now();
  }
  EXPECT_EQ(now_at_exit[0], now_at_exit[1]);
}

// --- The lines a plan can touch ----------------------------------------------

/// One call the injector made on a watched line.
struct LineCall {
  sim::Cycle cycle;
  int line;
  char what; ///< 'p'resent, 'd'rop, 'f'lip, 's'tuck
  std::uint32_t bit;
  bool operator==(const LineCall&) const = default;
};

std::ostream& operator<<(std::ostream& os, const LineCall& c) {
  return os << "{cycle " << c.cycle << ", line " << c.line << ", " << c.what << " " << c.bit << "}";
}

/// A watched line without a register behind it: it carries a fresh word on
/// every cycle and logs every call, so a test sees exactly which lines the
/// injector visited, in which order, and what it did to them.
class LoggingLine final : public sim::FaultLine {
 public:
  LoggingLine(const sim::Kernel& k, int id, std::vector<LineCall>* log)
      : kernel_(&k), id_(id), log_(log) {}
  bool present() const override {
    log_->push_back({kernel_->now(), id_, 'p', 0});
    return true;
  }
  void drop() override { log_->push_back({kernel_->now(), id_, 'd', 0}); }
  void flip_bit(std::uint32_t bit) override { log_->push_back({kernel_->now(), id_, 'f', bit}); }
  void force_bit(std::uint32_t bit) override { log_->push_back({kernel_->now(), id_, 's', bit}); }
  std::uint32_t bit_count() const override { return 32; }

 private:
  const sim::Kernel* kernel_;
  int id_;
  std::vector<LineCall>* log_;
};

/// Six data lines (ids 0-5, a fresh word every `data_stride` cycles) then
/// three cfg_fwd lines (ids 6-8, every cycle), attached in id order.
struct LoggedInjector {
  sim::Kernel kernel;
  std::vector<LineCall> log;
  sim::FaultInjector injector;

  explicit LoggedInjector(const std::string& plan, std::uint32_t data_stride = 1,
                          sim::Scheduler sched = sim::Scheduler::kStride)
      : kernel(sched), injector(kernel, "fault", plan_from(plan)) {
    for (int id = 0; id < 9; ++id) {
      const bool data = id < 6;
      injector.add_line(data ? sim::FaultClass::kData : sim::FaultClass::kCfgFwd,
                        std::make_unique<LoggingLine>(kernel, id, &log), data ? data_stride : 1);
    }
  }

  std::vector<LineCall> faults() const {
    std::vector<LineCall> out;
    for (const LineCall& c : log)
      if (c.what != 'p') out.push_back(c);
    return out;
  }
};

TEST(FaultLineSet, LineDirectiveVisitsOnlyItsLine) {
  LoggedInjector t("kill data@3 0 100");
  t.kernel.run(50);
  ASSERT_FALSE(t.log.empty());
  for (const LineCall& c : t.log) EXPECT_EQ(c.line, 3) << "cycle " << c.cycle << " call " << c.what;
  EXPECT_EQ(t.faults().size(), 50u);
  EXPECT_EQ(t.injector.counters(sim::FaultClass::kData).killed, 50u);
}

TEST(FaultLineSet, BackgroundRateVisitsEveryLineInAttachmentOrder) {
  // Replay the documented stream: one Bernoulli draw per fresh word, lines
  // in attachment order; on a hit, a second draw's low bit picks drop vs
  // flip and the rest picks the flipped bit. The reference scheduler never
  // asks quiescent(), so the log holds commit()'s calls alone.
  LoggedInjector t("seed 7\nrate 0.3", 1, sim::Scheduler::kReference);
  constexpr sim::Cycle kCycles = 40;
  t.kernel.run(kCycles);

  sim::Xoshiro256 rng(7);
  std::vector<LineCall> want;
  for (sim::Cycle c = 0; c < kCycles; ++c) {
    for (int id = 0; id < 9; ++id) {
      want.push_back({c, id, 'p', 0});
      if (!rng.chance(0.3)) continue;
      const std::uint64_t u = rng.next();
      if ((u & 1) != 0) {
        want.push_back({c, id, 'd', 0});
      } else {
        want.push_back({c, id, 'f', static_cast<std::uint32_t>(u >> 1) % 32});
      }
    }
  }
  EXPECT_EQ(t.log, want);
  EXPECT_GT(t.injector.counters().dropped, 0u);
  EXPECT_GT(t.injector.counters().flipped, 0u);
}

TEST(FaultLineSet, NthWordCountsAreUnchanged) {
  // Data lines see a word every third cycle. `drop data 8` counts the whole
  // class: words 0-5 at cycle 0, 6-11 at cycle 3, so word 8 is line 2 at
  // cycle 3. `drop data@2 5` counts line 2 alone: its sixth word, cycle 15.
  // `flip cfg_fwd 4 9`: three cfg lines a cycle, word 4 is line 7 at cycle 1.
  {
    LoggedInjector t("drop data 8\nflip cfg_fwd 4 9", 3);
    t.kernel.run(30);
    const std::vector<LineCall> want = {{1, 7, 'f', 9}, {3, 2, 'd', 0}};
    EXPECT_EQ(t.faults(), want);
  }
  {
    LoggedInjector t("drop data@2 5", 3);
    t.kernel.run(30);
    const std::vector<LineCall> want = {{15, 2, 'd', 0}};
    EXPECT_EQ(t.faults(), want);
  }
}

} // namespace
