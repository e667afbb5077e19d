// Sharded single-simulation parallelism: the shard boundary machinery.
//
// Sharding partitions a network's routers/NIs into per-thread bands inside
// one Kernel (sim/kernel.hpp, DaeliteNetwork::Options::shards) and must be a
// pure wall-clock optimization — cycle-exact, byte-identical state, stats
// and traces at every shard count. These tests pin the boundary mechanics
// that make that true:
//   * cross-shard link exchange: a flit committed into a boundary register
//     is observed by the downstream shard exactly one cycle later, the
//     same register-transfer timing as the serial schedule;
//   * external-write (mailbox) timing: host pushes into a sharded NI
//     commit at the end of the cycle of the mutation, regardless of which
//     shard owns the NI;
//   * multicast routes crossing several shard boundaries deliver identical
//     streams at identical cycles;
//   * traces merge back in registration order (records AND interned ids);
//   * fault injection + recovery (serial-set components wrapped around the
//     sharded mesh) reproduce the unsharded report exactly, and the stride
//     scheduler at any shard count reproduces the per-cycle reference.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/dimension.hpp"
#include "alloc/usecase.hpp"
#include "daelite/network.hpp"
#include "sim/fault.hpp"
#include "sim/json.hpp"
#include "sim/trace.hpp"
#include "soc/runner.hpp"
#include "topology/generators.hpp"

namespace {

using namespace daelite;
using namespace daelite::hw;

struct TestNet {
  topo::Mesh mesh;
  sim::Kernel kernel;
  std::unique_ptr<DaeliteNetwork> net;
  std::unique_ptr<alloc::SlotAllocator> alloc;

  TestNet(int w, int h, std::uint32_t slots, std::uint32_t shards) {
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

// --- Cross-shard mailbox (external write + boundary link) timing -------------------

/// Drive one unicast connection corner to corner on a mesh sharded into
/// row bands — the route crosses every band boundary — pushing from the
/// main thread on a fixed cycle pattern. Returns the delivery log.
DeliveryLog run_unicast(std::uint32_t shards) {
  TestNet t(4, 4, 8, shards);
  const auto conn = t.connect(t.mesh.ni(0, 0), {t.mesh.ni(3, 3)}, 2, 1);
  const auto h = t.net->open_connection(conn);
  EXPECT_NE(t.net->run_config(), sim::kNoCycle);

  Ni& src = t.net->ni(h.conn.request.src_ni);
  Ni& dst = t.net->ni(h.conn.request.dst_nis[0]);
  DeliveryLog log;
  std::uint32_t next = 1000;
  for (int c = 0; c < 4000; ++c) {
    // Irregular push pattern: bursts, gaps, and single words, so external
    // writes land on slot starts, mid-slot cycles, and idle stretches.
    if (c % 7 == 0 || c % 11 == 3) {
      if (src.tx_push(h.src_tx_q, next)) ++next;
    }
    t.kernel.step();
    while (auto w = dst.rx_pop(h.dst_rx_qs[0])) log.push_back({*w, t.kernel.now()});
  }
  return log;
}

TEST(Sharding, ExternalWritesAndBoundaryLinksAreCycleExact) {
  const DeliveryLog serial = run_unicast(1);
  ASSERT_FALSE(serial.empty());
  for (std::uint32_t shards : {2u, 4u}) {
    const DeliveryLog sharded = run_unicast(shards);
    ASSERT_EQ(sharded.size(), serial.size()) << shards << " shards";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i].first, serial[i].first) << "word " << i << ", " << shards << " shards";
      EXPECT_EQ(sharded[i].second, serial[i].second)
          << "arrival cycle of word " << i << ", " << shards << " shards";
    }
  }
}

// --- Multicast crossing shard boundaries -------------------------------------------

/// One multicast from the top-left corner to three destinations in three
/// different row bands (4 shards on a 4x4 mesh = one row of node ids per
/// shard). Every branch of the route tree crosses at least one boundary.
std::vector<DeliveryLog> run_multicast(std::uint32_t shards) {
  TestNet t(4, 4, 8, shards);
  const auto conn = t.connect(t.mesh.ni(0, 0),
                              {t.mesh.ni(3, 1), t.mesh.ni(0, 2), t.mesh.ni(3, 3)}, 2,
                              /*resp_slots=*/0);
  const auto h = t.net->open_connection(conn);
  EXPECT_NE(t.net->run_config(), sim::kNoCycle);

  Ni& src = t.net->ni(h.conn.request.src_ni);
  std::vector<DeliveryLog> logs(h.conn.request.dst_nis.size());
  std::uint32_t next = 5000;
  for (int c = 0; c < 3000; ++c) {
    if (c % 3 == 0 && src.tx_push(h.src_tx_q, next)) ++next;
    t.kernel.step();
    for (std::size_t d = 0; d < logs.size(); ++d) {
      Ni& dst = t.net->ni(h.conn.request.dst_nis[d]);
      while (auto w = dst.rx_pop(h.dst_rx_qs[d])) logs[d].push_back({*w, t.kernel.now()});
    }
  }
  return logs;
}

TEST(Sharding, MulticastAcrossShardBoundariesDeliversIdentically) {
  const std::vector<DeliveryLog> serial = run_multicast(1);
  ASSERT_EQ(serial.size(), 3u);
  for (const DeliveryLog& log : serial) ASSERT_FALSE(log.empty());
  // Multicast duplicates the stream: every destination sees the same words
  // (up to the common prefix — nearer destinations run slightly ahead of
  // farther ones at the fixed end cycle).
  for (std::size_t d = 1; d < serial.size(); ++d) {
    const std::size_t common = std::min(serial[d].size(), serial[0].size());
    ASSERT_GT(common, 0u);
    for (std::size_t i = 0; i < common; ++i)
      EXPECT_EQ(serial[d][i].first, serial[0][i].first);
  }
  const std::vector<DeliveryLog> sharded = run_multicast(4);
  ASSERT_EQ(sharded.size(), serial.size());
  for (std::size_t d = 0; d < serial.size(); ++d) {
    ASSERT_EQ(sharded[d].size(), serial[d].size()) << "destination " << d;
    for (std::size_t i = 0; i < serial[d].size(); ++i) {
      EXPECT_EQ(sharded[d][i].first, serial[d][i].first) << "dst " << d << " word " << i;
      EXPECT_EQ(sharded[d][i].second, serial[d][i].second) << "dst " << d << " word " << i;
    }
  }
}

// --- Trace identity ----------------------------------------------------------------

TEST(Sharding, TracesMergeInRegistrationOrder) {
  // The full hardware event stream — config packets, table writes, flit
  // forwards, credits, deliveries — must be byte-identical at any shard
  // count: same records in the same order with the same interned ids.
  const auto run_traced = [](std::uint32_t shards) {
    sim::Tracer tracer;
    {
      TestNet t(4, 4, 8, shards);
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

  const auto serial = run_traced(1);
  const auto sharded = run_traced(4);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(sharded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(sharded[i].first, serial[i].first) << "record " << i;
    EXPECT_EQ(sharded[i].second.cycle, serial[i].second.cycle) << "record " << i;
    EXPECT_EQ(sharded[i].second.comp, serial[i].second.comp) << "record " << i;
    EXPECT_EQ(sharded[i].second.event, serial[i].second.event) << "record " << i;
    EXPECT_EQ(sharded[i].second.arg0, serial[i].second.arg0) << "record " << i;
    EXPECT_EQ(sharded[i].second.arg1, serial[i].second.arg1) << "record " << i;
  }
}

// --- Fault injection + recovery under shards ---------------------------------------

soc::Scenario stress_scenario() {
  soc::Scenario sc;
  sc.kind = soc::Scenario::TopologyKind::kMesh;
  sc.width = 4;
  sc.height = 4;
  sc.slots = 16;
  sc.host = {2, 2};
  sc.run_cycles = 12000;
  const std::pair<int, int> corners[4] = {{0, 0}, {3, 0}, {0, 3}, {3, 3}};
  for (int i = 0; i < 4; ++i) {
    soc::Scenario::RawConnection c;
    c.name = "corner" + std::to_string(i);
    c.src = corners[i];
    c.dsts.push_back(corners[3 - i]);
    c.bandwidth = 100.0;
    sc.raw.push_back(std::move(c));
  }
  return sc;
}

/// The link the runner routes the first connection over, found by
/// replaying the deterministic dimensioning.
std::uint64_t first_conn_mid_link(soc::Scenario sc) {
  topo::Mesh mesh = sc.build();
  const alloc::NocClocking clk{sc.clock_mhz, 4};
  auto dim = alloc::dimension_network(mesh.topo, sc.connections, clk, {*sc.slots});
  EXPECT_TRUE(dim.has_value());
  const auto& edges = dim->allocation.connections.front().request.edges;
  return edges[edges.size() / 2].link;
}

TEST(Sharding, RecoveryReportsByteIdenticalAcrossShardsAndSchedulers) {
  // Kill a link mid-run with recovery armed: the fault injector, health
  // monitor, quarantine, and mid-run re-route all run in the kernel's
  // serial set around the sharded mesh — detection cycles, verdicts, and
  // the repaired route must not move by a single cycle under sharding.
  const soc::Scenario sc = stress_scenario();
  const std::uint64_t link = first_conn_mid_link(sc);

  const auto run = [&](sim::Scheduler scheduler, std::uint32_t shards) {
    soc::RunSpec spec;
    spec.label = "shard-recovery";
    spec.scenario = sc;
    spec.scheduler = scheduler;
    spec.shards = shards;
    spec.fault_plan.seed = 42;
    sim::FaultDirective kill;
    kill.kind = sim::FaultDirective::Kind::kKill;
    kill.cls = sim::FaultClass::kData;
    kill.line_index = static_cast<std::int64_t>(link);
    kill.from = 4000;
    kill.to = sim::kNoCycle;
    spec.fault_plan.directives.push_back(kill);
    spec.recovery.enabled = true;
    return soc::run_scenario(spec).to_json().dump(2);
  };

  const std::string serial = run(sim::Scheduler::kStride, 1);
  EXPECT_NE(serial.find("\"restored\": true"), std::string::npos);
  EXPECT_EQ(run(sim::Scheduler::kStride, 2), serial);
  EXPECT_EQ(run(sim::Scheduler::kStride, 4), serial);
  // The per-cycle reference scheduler is the oracle; shard counts are
  // clamped to 1 under it, and the stride results must still match it.
  EXPECT_EQ(run(sim::Scheduler::kReference, 4), serial);
}

} // namespace
