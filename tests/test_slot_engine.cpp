// The stride data path: hw::SlotEngine dispatching routers and NIs
// (daelite/slot_engine.hpp), checked against the per-cycle reference
// scheduler, which builds no engine and ticks every element itself.
//
// The engine must be a pure wall-clock optimization: byte-identical
// reports, traces, counters, and delivery timing at every shard count.
// These tests pin that property:
//   * slot-table mechanics: the O(1) used-count and per-slot output
//     masks the forwarding rule reads stay exact across set/clear;
//   * one forwarding rule: the reference builds no engine, and a router
//     ticked by the kernel (Router::tick) and one driven by an engine
//     produce the same outputs, counters and trace records;
//   * randomized scenario property: seeded random meshes and connection
//     sets produce identical NetworkReport JSON at shard counts 1/2/4 and
//     under the per-cycle reference oracle;
//   * external-write timing into skipped NIs (host pushes during idle
//     stretches must still commit on the same edge);
//   * multicast-heavy delivery logs, word for word and cycle for cycle;
//   * fault-injected runs (the injector corrupts links around the
//     engine's skip logic — valid bits can only be cleared, so skipping
//     stays exact);
//   * full trace streams merge identically (records AND interned ids).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <random>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/usecase.hpp"
#include "daelite/network.hpp"
#include "daelite/slot_engine.hpp"
#include "sim/fault.hpp"
#include "sim/json.hpp"
#include "sim/trace.hpp"
#include "soc/runner.hpp"
#include "tdm/slot_table.hpp"
#include "topology/generators.hpp"

namespace {

using namespace daelite;
using namespace daelite::hw;

// --- Slot-table mechanics ----------------------------------------------------------

TEST(RouterSlotTableSoA, UsedCountAndMasksStayExact) {
  tdm::RouterSlotTable t(4, 8);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.out_mask(3), 0u);

  t.set(0, 3, 2);
  t.set(1, 3, 2); // multicast: two outputs, same input, same slot
  t.set(2, 5, 0);
  EXPECT_EQ(t.used_entries(), 3u);
  EXPECT_EQ(t.out_mask(3), 0b0011u);
  EXPECT_EQ(t.out_mask(5), 0b0100u);

  t.set(0, 3, 1);                  // overwrite used -> used: count unchanged
  EXPECT_EQ(t.used_entries(), 3u);
  t.clear(1, 3);
  EXPECT_EQ(t.used_entries(), 2u);
  EXPECT_EQ(t.out_mask(3), 0b0001u);
  t.clear(1, 3);                   // double clear: no underflow
  EXPECT_EQ(t.used_entries(), 2u);
  t.clear(0, 3);
  t.clear(2, 5);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.out_mask(3), 0u);
  EXPECT_EQ(t.out_mask(5), 0u);
}

// --- Network scaffolding -----------------------------------------------------------

struct TestNet {
  topo::Mesh mesh;
  sim::Kernel kernel;
  std::unique_ptr<DaeliteNetwork> net;
  std::unique_ptr<alloc::SlotAllocator> alloc;

  TestNet(int w, int h, std::uint32_t slots, sim::Scheduler scheduler, std::uint32_t shards)
      : kernel(scheduler) {
    mesh = topo::make_mesh(w, h);
    DaeliteNetwork::Options opt;
    opt.tdm = tdm::daelite_params(slots);
    opt.cfg_root = mesh.ni(0, 0);
    opt.shards = shards;
    net = std::make_unique<DaeliteNetwork>(kernel, mesh.topo, opt);
    alloc = std::make_unique<alloc::SlotAllocator>(mesh.topo, opt.tdm);
  }

  alloc::AllocatedConnection connect(topo::NodeId src, std::vector<topo::NodeId> dsts,
                                     std::uint32_t req_slots, std::uint32_t resp_slots = 1) {
    alloc::UseCase uc;
    uc.connections.push_back({"c", src, std::move(dsts), req_slots, resp_slots});
    auto a = alloc::allocate_use_case(*alloc, uc);
    EXPECT_TRUE(a.has_value());
    return a->connections[0];
  }
};

/// Word-by-word delivery log of one destination: (payload, arrival cycle).
using DeliveryLog = std::vector<std::pair<std::uint32_t, sim::Cycle>>;

// --- One forwarding rule ----------------------------------------------------------

/// Drives a pseudo-random flit (or nothing) onto its register every slot.
class FlitSource : public sim::Component {
 public:
  FlitSource(sim::Kernel& k, std::string name, tdm::TdmParams p, std::uint32_t seed)
      : sim::Component(k, std::move(name)), params_(p), state_(seed) {
    own(out_);
  }
  const sim::Reg<Flit>& out() const { return out_; }
  void tick() override {
    if (!params_.is_slot_start(now())) return;
    state_ = state_ * 1103515245u + 12345u;
    Flit f;
    if ((state_ >> 16) % 3 != 0) { // idle one slot in three
      f.valid = true;
      f.num_words = 2;
      f.data[0] = state_;
      f.data_valid[0] = true;
    }
    out_.set(f);
  }

 private:
  tdm::TdmParams params_;
  sim::Reg<Flit> out_;
  std::uint32_t state_;
};

/// A 3x3 router fed by three sources, with a unicast, a multicast (two
/// outputs naming one input) and an unscheduled input that drops.
struct RouterRig {
  tdm::TdmParams params = tdm::daelite_params(4);
  sim::Tracer tracer;
  sim::Kernel k;
  FlitSource s0{k, "s0", params, 1};
  FlitSource s1{k, "s1", params, 2};
  FlitSource s2{k, "s2", params, 3};
  Router r{k, "R", /*cfg_id=*/1, /*in=*/3, /*out=*/3, params};
  std::unique_ptr<SlotEngine> engine;

  explicit RouterRig(bool with_engine) : k(sim::Scheduler::kStride) {
    k.set_tracer(&tracer);
    r.connect_input(0, &s0.out());
    r.connect_input(1, &s1.out());
    r.connect_input(2, &s2.out());
    for (tdm::Slot s = 0; s < params.num_slots; ++s) {
      r.table().set(0, s, 0);
      if (s % 2 == 0) {
        r.table().set(1, s, 1);
        r.table().set(2, s, 1);
      }
    }
    if (with_engine) {
      engine = std::make_unique<SlotEngine>(k, "engine", params);
      engine->add_router(r);
      engine->finalize(0);
    }
  }
};

TEST(SlotEngine, ReferenceBuildsNoEngineAndRouterTickForwardsLikeTheEngine) {
  // The reference ticks every element itself: no engine is registered and
  // no router is suspended. The stride network adds one engine per shard
  // band and suspends every router and NI under them.
  topo::Mesh mesh = topo::make_mesh(3, 3);
  DaeliteNetwork::Options opt;
  opt.tdm = tdm::daelite_params(8);
  opt.cfg_root = mesh.ni(0, 0);
  opt.shards = 2;
  const topo::NodeId r00 = mesh.router(0, 0);
  sim::Kernel ref(sim::Scheduler::kReference);
  DaeliteNetwork ref_net(ref, mesh.topo, opt);
  EXPECT_TRUE(ref_net.router(r00).active());
  EXPECT_TRUE(ref_net.ni(mesh.ni(0, 0)).active());
  sim::Kernel stride(sim::Scheduler::kStride);
  DaeliteNetwork stride_net(stride, mesh.topo, opt);
  EXPECT_FALSE(stride_net.router(r00).active());
  EXPECT_FALSE(stride_net.ni(mesh.ni(0, 0)).active());
  EXPECT_EQ(stride.component_count(), ref.component_count() + 2);

  // One router ticked by the kernel (Router::tick) and one driven by an
  // engine run the same forwarding rule: same outputs, counters and
  // trace records, slot for slot.
  RouterRig ticked(false);
  RouterRig driven(true);
  for (int c = 0; c < 400; ++c) {
    ticked.k.step();
    driven.k.step();
    for (std::size_t o = 0; o < 3; ++o) {
      const Flit& a = ticked.r.output_reg(o).get();
      const Flit& b = driven.r.output_reg(o).get();
      ASSERT_EQ(a.valid, b.valid) << "cycle " << c << " output " << o;
      if (a.valid) {
        EXPECT_EQ(a.data[0], b.data[0]) << "cycle " << c << " output " << o;
      }
      EXPECT_EQ(ticked.r.forwarded_on(o), driven.r.forwarded_on(o));
    }
  }
  const Router::Stats& a = ticked.r.stats();
  const Router::Stats& b = driven.r.stats();
  EXPECT_GT(a.flits_forwarded, 0u);
  EXPECT_GT(a.flits_dropped, 0u);
  EXPECT_EQ(a.flits_in, b.flits_in);
  EXPECT_EQ(a.flits_forwarded, b.flits_forwarded);
  EXPECT_EQ(a.flits_dropped, b.flits_dropped);
  std::vector<std::tuple<sim::Cycle, std::string, int, std::uint64_t, std::uint64_t>> ra, rb;
  ticked.tracer.for_each([&](const sim::TraceRecord& r) {
    ra.emplace_back(r.cycle, ticked.tracer.name(r.comp), static_cast<int>(r.event), r.arg0, r.arg1);
  });
  driven.tracer.for_each([&](const sim::TraceRecord& r) {
    rb.emplace_back(r.cycle, driven.tracer.name(r.comp), static_cast<int>(r.event), r.arg0, r.arg1);
  });
  ASSERT_FALSE(ra.empty());
  EXPECT_EQ(ra, rb);
}

// --- External-write timing into skipped NIs ----------------------------------------

/// Corner-to-corner unicast with an irregular host push pattern: pushes
/// land on slot starts, mid-slot cycles, and long idle stretches where
/// the engine is skipping the source NI outright — the kernel's touched
/// pass must still commit those queue writes on the same edge.
DeliveryLog run_unicast(sim::Scheduler scheduler, std::uint32_t shards) {
  TestNet t(4, 4, 8, scheduler, shards);
  const auto conn = t.connect(t.mesh.ni(0, 0), {t.mesh.ni(3, 3)}, 2, 1);
  const auto h = t.net->open_connection(conn);
  EXPECT_NE(t.net->run_config(), sim::kNoCycle);

  Ni& src = t.net->ni(h.conn.request.src_ni);
  Ni& dst = t.net->ni(h.conn.request.dst_nis[0]);
  DeliveryLog log;
  std::uint32_t next = 1000;
  for (int c = 0; c < 4000; ++c) {
    if (c % 7 == 0 || c % 13 == 4) {
      if (src.tx_push(h.src_tx_q, next)) ++next;
    }
    t.kernel.step();
    while (auto w = dst.rx_pop(h.dst_rx_qs[0])) log.push_back({*w, t.kernel.now()});
  }
  return log;
}

TEST(SlotEngine, ExternalWritesIntoSkippedNisAreCycleExact) {
  const DeliveryLog reference = run_unicast(sim::Scheduler::kReference, 1);
  ASSERT_FALSE(reference.empty());
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    const DeliveryLog stride = run_unicast(sim::Scheduler::kStride, shards);
    ASSERT_EQ(stride.size(), reference.size()) << shards << " shards";
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(stride[i].first, reference[i].first) << "word " << i << ", " << shards << " shards";
      EXPECT_EQ(stride[i].second, reference[i].second)
          << "arrival cycle of word " << i << ", " << shards << " shards";
    }
  }
}

// --- Multicast-heavy delivery ------------------------------------------------------

/// A 3-destination multicast whose route tree fans across the mesh, plus
/// a unicast sharing links with it — the regime where two router outputs
/// forward the same input in the same slot.
std::vector<DeliveryLog> run_multicast(sim::Scheduler scheduler, std::uint32_t shards) {
  TestNet t(4, 4, 16, scheduler, shards);
  const auto mc = t.connect(t.mesh.ni(0, 0),
                            {t.mesh.ni(3, 1), t.mesh.ni(0, 2), t.mesh.ni(3, 3)}, 2,
                            /*resp_slots=*/0);
  const auto uc = t.connect(t.mesh.ni(3, 0), {t.mesh.ni(0, 3)}, 2, 1);
  const auto hm = t.net->open_connection(mc);
  const auto hu = t.net->open_connection(uc);
  EXPECT_NE(t.net->run_config(), sim::kNoCycle);

  Ni& msrc = t.net->ni(hm.conn.request.src_ni);
  Ni& usrc = t.net->ni(hu.conn.request.src_ni);
  std::vector<DeliveryLog> logs(hm.conn.request.dst_nis.size() + 1);
  std::uint32_t next = 5000;
  for (int c = 0; c < 3000; ++c) {
    if (c % 3 == 0 && msrc.tx_push(hm.src_tx_q, next)) ++next;
    if (c % 5 == 1 && usrc.tx_push(hu.src_tx_q, next + 100000)) ++next;
    t.kernel.step();
    for (std::size_t d = 0; d + 1 < logs.size(); ++d) {
      Ni& dst = t.net->ni(hm.conn.request.dst_nis[d]);
      while (auto w = dst.rx_pop(hm.dst_rx_qs[d])) logs[d].push_back({*w, t.kernel.now()});
    }
    Ni& udst = t.net->ni(hu.conn.request.dst_nis[0]);
    while (auto w = udst.rx_pop(hu.dst_rx_qs[0])) logs.back().push_back({*w, t.kernel.now()});
  }
  return logs;
}

TEST(SlotEngine, MulticastHeavyDeliveryIsIdentical) {
  const std::vector<DeliveryLog> reference = run_multicast(sim::Scheduler::kReference, 1);
  for (const DeliveryLog& log : reference) ASSERT_FALSE(log.empty());
  for (std::uint32_t shards : {1u, 4u}) {
    const std::vector<DeliveryLog> stride = run_multicast(sim::Scheduler::kStride, shards);
    ASSERT_EQ(stride.size(), reference.size());
    for (std::size_t d = 0; d < reference.size(); ++d) {
      ASSERT_EQ(stride[d].size(), reference[d].size()) << "destination " << d;
      for (std::size_t i = 0; i < reference[d].size(); ++i) {
        EXPECT_EQ(stride[d][i].first, reference[d][i].first) << "dst " << d << " word " << i;
        EXPECT_EQ(stride[d][i].second, reference[d][i].second) << "dst " << d << " word " << i;
      }
    }
  }
}

// --- Randomized scenario property --------------------------------------------------

soc::Scenario random_scenario(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  soc::Scenario sc;
  sc.kind = soc::Scenario::TopologyKind::kMesh;
  sc.width = pick(3, 5);
  sc.height = pick(3, 4);
  sc.slots = pick(0, 1) != 0 ? 32u : 16u;
  sc.host = {sc.width / 2, sc.height / 2};
  sc.run_cycles = 5000;
  const auto coord = [&] {
    return std::pair<int, int>{pick(0, sc.width - 1), pick(0, sc.height - 1)};
  };
  const int nconn = pick(3, 5);
  for (int i = 0; i < nconn; ++i) {
    soc::Scenario::RawConnection c;
    c.name = "r" + std::to_string(i);
    c.src = coord();
    const int ndst = i == 0 ? pick(2, 3) : 1; // first connection multicasts
    while (static_cast<int>(c.dsts.size()) < ndst) {
      const auto d = coord();
      if (d != c.src && std::find(c.dsts.begin(), c.dsts.end(), d) == c.dsts.end())
        c.dsts.push_back(d);
    }
    c.bandwidth = 20.0 + 10.0 * pick(0, 2);
    sc.raw.push_back(std::move(c));
  }
  return sc;
}

std::string run_report(const soc::Scenario& sc, sim::Scheduler scheduler, std::uint32_t shards,
                       const sim::FaultPlan* plan = nullptr, std::string* error = nullptr) {
  soc::RunSpec spec;
  spec.label = "engine-prop";
  spec.scenario = sc;
  spec.scheduler = scheduler;
  spec.shards = shards;
  if (plan != nullptr) spec.fault_plan = *plan;
  const analysis::NetworkReport rep = soc::run_scenario(spec);
  if (error != nullptr) *error = rep.error;
  return rep.to_json().dump(2);
}

TEST(SlotEngine, RandomizedReportsIdenticalAcrossDispatchModes) {
  int meaningful = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const soc::Scenario sc = random_scenario(seed);
    std::string error;
    const std::string base = run_report(sc, sim::Scheduler::kReference, 1, nullptr, &error);
    if (!error.empty()) continue; // a draw the allocator cannot schedule
    ++meaningful;
    for (std::uint32_t shards : {1u, 2u, 4u}) {
      EXPECT_EQ(run_report(sc, sim::Scheduler::kStride, shards), base)
          << "seed " << seed << ", " << shards << " shards";
    }
  }
  // The draws are deterministic, so this is a stable floor, not flakiness.
  EXPECT_GE(meaningful, 4);
}

// --- Fault injection around the skip logic -----------------------------------------

TEST(SlotEngine, FaultInjectedReportsIdenticalAcrossDispatchModes) {
  // Random per-word corruption on every data/config link: the injector
  // rewrites committed register values after the engine's commit, so the
  // per-router valid-output superset must stay a superset (faults can only
  // clear valid bits, never set them).
  const soc::Scenario sc = random_scenario(7);
  sim::FaultPlan plan;
  plan.seed = 42;
  plan.rate = 0.002;
  std::string error;
  const std::string base = run_report(sc, sim::Scheduler::kReference, 1, &plan, &error);
  ASSERT_TRUE(error.empty()) << error;
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    EXPECT_EQ(run_report(sc, sim::Scheduler::kStride, shards, &plan), base)
        << shards << " shards";
  }
}

// --- Trace identity ----------------------------------------------------------------

TEST(SlotEngine, TracesMergeIdenticallyUnderSoA) {
  // The engine keys every element's records by the element's own
  // registration index (Kernel::set_stage_key) — the merged stream must
  // match the reference record for record, including interned name ids.
  const auto run_traced = [](sim::Scheduler scheduler, std::uint32_t shards) {
    sim::Tracer tracer;
    {
      TestNet t(4, 4, 8, scheduler, shards);
      t.kernel.set_tracer(&tracer);
      const auto conn = t.connect(t.mesh.ni(0, 0), {t.mesh.ni(3, 3)}, 2, 1);
      const auto h = t.net->open_connection(conn);
      EXPECT_NE(t.net->run_config(), sim::kNoCycle);
      Ni& src = t.net->ni(h.conn.request.src_ni);
      Ni& dst = t.net->ni(h.conn.request.dst_nis[0]);
      for (int c = 0; c < 1500; ++c) {
        while (src.tx_push(h.src_tx_q, 1)) {
        }
        t.kernel.step();
        while (dst.rx_pop(h.dst_rx_qs[0])) {
        }
      }
    }
    std::vector<std::pair<std::string, sim::TraceRecord>> named;
    tracer.for_each([&](const sim::TraceRecord& r) { named.push_back({tracer.name(r.comp), r}); });
    return named;
  };

  const auto reference = run_traced(sim::Scheduler::kReference, 1);
  ASSERT_FALSE(reference.empty());
  for (std::uint32_t shards : {1u, 4u}) {
    const auto stride = run_traced(sim::Scheduler::kStride, shards);
    ASSERT_EQ(stride.size(), reference.size()) << shards << " shards";
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(stride[i].first, reference[i].first) << "record " << i;
      EXPECT_EQ(stride[i].second.cycle, reference[i].second.cycle) << "record " << i;
      EXPECT_EQ(stride[i].second.comp, reference[i].second.comp) << "record " << i;
      EXPECT_EQ(stride[i].second.event, reference[i].second.event) << "record " << i;
      EXPECT_EQ(stride[i].second.arg0, reference[i].second.arg0) << "record " << i;
      EXPECT_EQ(stride[i].second.arg1, reference[i].second.arg1) << "record " << i;
    }
  }
}

} // namespace
