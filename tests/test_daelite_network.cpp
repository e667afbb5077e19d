// Integration tests: full daelite networks assembled from a topology,
// configured through the broadcast tree, carrying real traffic.
//
// These tests exercise the paper's claims end to end: set-up via
// configuration packets equals direct slot-table programming; traversal
// latency is exactly 2 cycles/hop; multicast delivers identical streams;
// tear-down stops traffic; reconfiguration does not disturb live
// connections; and randomly allocated connection sets are contention-free
// (zero drops) by construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "alloc/allocator.hpp"
#include "alloc/usecase.hpp"
#include "daelite/network.hpp"
#include "sim/random.hpp"
#include "topology/generators.hpp"

namespace {

using namespace daelite;
using namespace daelite::hw;

struct TestNet {
  topo::Mesh mesh;
  sim::Kernel kernel;
  std::unique_ptr<DaeliteNetwork> net;
  std::unique_ptr<alloc::SlotAllocator> alloc;

  TestNet(int w, int h, std::uint32_t slots, std::size_t queue_cap = 32) {
    mesh = topo::make_mesh(w, h);
    DaeliteNetwork::Options opt;
    opt.tdm = tdm::daelite_params(slots);
    opt.ni_queue_capacity = queue_cap;
    opt.cfg_root = mesh.ni(0, 0);
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

  /// Push `n` words, run until all delivered (popping as we go), return
  /// the received words in order.
  std::vector<std::uint32_t> transfer(const ConnectionHandle& h, std::size_t n) {
    Ni& src = net->ni(h.conn.request.src_ni);
    Ni& dst = net->ni(h.conn.request.dst_nis[0]);
    std::vector<std::uint32_t> got;
    std::size_t pushed = 0;
    for (int guard = 0; guard < 200000 && got.size() < n; ++guard) {
      if (pushed < n && src.tx_push(h.src_tx_q, static_cast<std::uint32_t>(1000 + pushed)))
        ++pushed;
      kernel.step();
      while (auto w = dst.rx_pop(h.dst_rx_qs[0])) got.push_back(*w);
    }
    return got;
  }
};

TEST(Network, ConfigPacketsMatchDirectProgramming) {
  // Program the same route on two identical networks — one through the
  // configuration tree, one directly — and compare all affected tables.
  TestNet via_cfg(3, 3, 8);
  TestNet direct(3, 3, 8);

  alloc::ChannelSpec spec;
  spec.src_ni = via_cfg.mesh.ni(0, 0);
  spec.dst_nis = {via_cfg.mesh.ni(2, 1)};
  spec.slots_required = 2;
  const auto route = via_cfg.alloc->allocate(spec);
  ASSERT_TRUE(route.has_value());

  via_cfg.net->post_route_setup(*route, /*tx_queue=*/1, {/*rx=*/2});
  via_cfg.net->run_config();
  direct.net->program_route_direct(*route, 1, {2});

  for (topo::NodeId n = 0; n < via_cfg.mesh.topo.node_count(); ++n) {
    if (via_cfg.mesh.topo.is_router(n)) {
      const auto& ta = via_cfg.net->router(n).table();
      const auto& tb = direct.net->router(n).table();
      for (std::size_t o = 0; o < ta.num_outputs(); ++o)
        for (tdm::Slot s = 0; s < 8; ++s)
          EXPECT_EQ(ta.input_for(o, s), tb.input_for(o, s))
              << "router " << n << " out " << o << " slot " << s;
    } else {
      const auto& ta = via_cfg.net->ni(n).table();
      const auto& tb = direct.net->ni(n).table();
      for (tdm::Slot s = 0; s < 8; ++s) {
        EXPECT_EQ(ta.tx_channel(s), tb.tx_channel(s)) << "NI " << n << " tx slot " << s;
        EXPECT_EQ(ta.rx_channel(s), tb.rx_channel(s)) << "NI " << n << " rx slot " << s;
      }
    }
  }
  EXPECT_EQ(via_cfg.net->total_cfg_errors(), 0u);
}

TEST(Network, EndToEndDeliveryThroughHardwareSetup) {
  TestNet t(3, 3, 8);
  const auto conn = t.connect(t.mesh.ni(0, 0), {t.mesh.ni(2, 2)}, 2);
  const auto h = t.net->open_connection(conn);
  t.net->run_config();

  const auto got = t.transfer(h, 50);
  ASSERT_EQ(got.size(), 50u);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], 1000 + i);
  EXPECT_EQ(t.net->total_router_drops(), 0u);
  EXPECT_EQ(t.net->total_ni_drops(), 0u);
  EXPECT_EQ(t.net->total_rx_overflow(), 0u);
}

TEST(Network, FlitLatencyIsExactlyTwoCyclesPerHop) {
  TestNet t(4, 4, 16);
  const auto conn = t.connect(t.mesh.ni(0, 0), {t.mesh.ni(3, 3)}, 2);
  const auto h = t.net->open_connection(conn);
  t.net->run_config();

  (void)t.transfer(h, 40);
  const Ni& dst = t.net->ni(t.mesh.ni(3, 3));
  const std::size_t hops = conn.request.edges.size(); // 8 links for corner-to-corner
  ASSERT_GT(dst.stats().latency.count(), 0u);
  EXPECT_EQ(dst.stats().latency.min(), 2.0 * static_cast<double>(hops));
  EXPECT_EQ(dst.stats().latency.max(), 2.0 * static_cast<double>(hops));
}

TEST(Network, CreditsRecycleOverLongStreams) {
  // Stream far more words than the destination queue holds; the test pops
  // as it goes, so credits must flow back for the stream to finish.
  TestNet t(3, 3, 8, /*queue_cap=*/8);
  const auto conn = t.connect(t.mesh.ni(0, 1), {t.mesh.ni(2, 0)}, 2);
  const auto h = t.net->open_connection(conn);
  t.net->run_config();

  const auto got = t.transfer(h, 200);
  ASSERT_EQ(got.size(), 200u);
  EXPECT_EQ(t.net->total_rx_overflow(), 0u);
  const Ni& src = t.net->ni(t.mesh.ni(0, 1));
  EXPECT_GT(src.rx_stats(h.src_rx_q).credits_received, 0u);
}

TEST(Network, MulticastDeliversIdenticalStreamsToAllDestinations) {
  TestNet t(3, 3, 16);
  const auto conn =
      t.connect(t.mesh.ni(0, 0), {t.mesh.ni(2, 0), t.mesh.ni(0, 2), t.mesh.ni(2, 2)}, 2, 0);
  ASSERT_FALSE(conn.has_response);
  const auto h = t.net->open_connection(conn);
  t.net->run_config();

  Ni& src = t.net->ni(t.mesh.ni(0, 0));
  constexpr std::size_t kWords = 30;
  std::size_t pushed = 0;
  std::map<topo::NodeId, std::vector<std::uint32_t>> got;
  for (int guard = 0; guard < 20000; ++guard) {
    if (pushed < kWords && src.tx_push(h.src_tx_q, static_cast<std::uint32_t>(pushed))) ++pushed;
    t.kernel.step();
    bool all_done = pushed == kWords;
    for (std::size_t d = 0; d < conn.request.dst_nis.size(); ++d) {
      Ni& dst = t.net->ni(conn.request.dst_nis[d]);
      while (auto w = dst.rx_pop(h.dst_rx_qs[d])) got[conn.request.dst_nis[d]].push_back(*w);
      all_done = all_done && got[conn.request.dst_nis[d]].size() == kWords;
    }
    if (all_done) break;
  }
  for (const auto& [node, words] : got) {
    ASSERT_EQ(words.size(), kWords) << "destination " << node;
    for (std::size_t i = 0; i < kWords; ++i) EXPECT_EQ(words[i], i);
  }
  EXPECT_EQ(t.net->total_router_drops(), 0u);
  EXPECT_EQ(t.net->total_ni_drops(), 0u);
}

TEST(Network, TeardownStopsTrafficAndClearsTables) {
  TestNet t(3, 3, 8);
  const auto conn = t.connect(t.mesh.ni(1, 0), {t.mesh.ni(1, 2)}, 2);
  const auto h = t.net->open_connection(conn);
  t.net->run_config();
  ASSERT_EQ(t.transfer(h, 10).size(), 10u);

  t.net->close_connection(h);
  t.net->run_config();

  // Every router slot table must be empty again.
  for (topo::NodeId n = 0; n < t.mesh.topo.node_count(); ++n)
    if (t.mesh.topo.is_router(n)) {
      EXPECT_TRUE(t.net->router(n).table().empty()) << "router " << n;
    }

  // Pushing more data goes nowhere (tx disabled and table cleared).
  Ni& src = t.net->ni(t.mesh.ni(1, 0));
  const auto sent_before = src.tx_stats(h.src_tx_q).words_sent;
  src.tx_push(h.src_tx_q, 1);
  t.kernel.run(64);
  EXPECT_EQ(src.tx_stats(h.src_tx_q).words_sent, sent_before);
}

TEST(Network, ReconfigurationDoesNotDisturbLiveConnection) {
  // Paper §IV: "an application can use certain connections while others
  // are being set up and torn down."
  TestNet t(4, 4, 16);
  const auto live = t.connect(t.mesh.ni(0, 0), {t.mesh.ni(3, 3)}, 3);
  const auto hl = t.net->open_connection(live);
  t.net->run_config();

  Ni& src = t.net->ni(t.mesh.ni(0, 0));
  Ni& dst = t.net->ni(t.mesh.ni(3, 3));
  std::size_t pushed = 0, received = 0;
  std::uint32_t next_expected = 0;

  // Churn a second connection up and down while the live one streams.
  for (int round = 0; round < 3; ++round) {
    const auto other = t.connect(t.mesh.ni(1, 0), {t.mesh.ni(2, 3)}, 2);
    const auto ho = t.net->open_connection(other);
    // Stream while configuring (cannot use run_config, must interleave).
    for (int i = 0; i < 2000; ++i) {
      if (src.tx_push(hl.src_tx_q, static_cast<std::uint32_t>(pushed))) ++pushed;
      t.kernel.step();
      while (auto w = dst.rx_pop(hl.dst_rx_qs[0])) {
        ASSERT_EQ(*w, next_expected++);
        ++received;
      }
      if (t.net->config_idle()) break;
    }
    t.net->close_connection(ho);
    t.alloc->release(other.request);
    if (other.has_response) t.alloc->release(other.response);
    for (int i = 0; i < 2000 && !t.net->config_idle(); ++i) {
      if (src.tx_push(hl.src_tx_q, static_cast<std::uint32_t>(pushed))) ++pushed;
      t.kernel.step();
      while (auto w = dst.rx_pop(hl.dst_rx_qs[0])) {
        ASSERT_EQ(*w, next_expected++);
        ++received;
      }
    }
  }
  // Final drain: keep streaming with a quiet configuration network.
  for (int i = 0; i < 2000; ++i) {
    if (src.tx_push(hl.src_tx_q, static_cast<std::uint32_t>(pushed))) ++pushed;
    t.kernel.step();
    while (auto w = dst.rx_pop(hl.dst_rx_qs[0])) {
      ASSERT_EQ(*w, next_expected++);
      ++received;
    }
  }
  EXPECT_GT(received, 100u);
  EXPECT_EQ(t.net->total_router_drops(), 0u);
  EXPECT_EQ(t.net->total_ni_drops(), 0u);
  EXPECT_EQ(t.net->total_rx_overflow(), 0u);
  // The live connection's latency never varied: contention-free QoS.
  EXPECT_EQ(dst.stats().latency.min(), dst.stats().latency.max());
}

// --- Property: configuration packets == direct programming, for random
// use-cases including multicast --------------------------------------------------

class ConfigEquivalenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigEquivalenceProperty, HardwareTablesMatchDirectProgramming) {
  TestNet via_cfg(4, 4, 16);
  TestNet direct(4, 4, 16);
  sim::Xoshiro256 rng(GetParam());
  const auto nis = via_cfg.mesh.all_nis();

  for (int i = 0; i < 6; ++i) {
    alloc::ChannelSpec spec;
    spec.src_ni = nis[rng.below(nis.size())];
    do {
      spec.dst_nis = {nis[rng.below(nis.size())]};
    } while (spec.dst_nis[0] == spec.src_ni);
    if (rng.chance(0.4)) {
      const auto extra = nis[rng.below(nis.size())];
      if (extra != spec.src_ni && extra != spec.dst_nis[0]) spec.dst_nis.push_back(extra);
    }
    spec.slots_required = static_cast<std::uint32_t>(rng.range(1, 3));
    const auto route = via_cfg.alloc->allocate(spec);
    if (!route) continue;

    std::vector<std::uint8_t> rx_queues;
    for (std::size_t d = 0; d < route->dst_nis.size(); ++d)
      rx_queues.push_back(static_cast<std::uint8_t>(d + i % 3));
    const auto tx_queue = static_cast<std::uint8_t>(i % 4);

    via_cfg.net->post_route_setup(*route, tx_queue, rx_queues);
    via_cfg.net->run_config();
    direct.net->program_route_direct(*route, tx_queue, rx_queues);
  }

  for (topo::NodeId n = 0; n < via_cfg.mesh.topo.node_count(); ++n) {
    if (via_cfg.mesh.topo.is_router(n)) {
      const auto& ta = via_cfg.net->router(n).table();
      const auto& tb = direct.net->router(n).table();
      for (std::size_t o = 0; o < ta.num_outputs(); ++o)
        for (tdm::Slot s = 0; s < 16; ++s)
          ASSERT_EQ(ta.input_for(o, s), tb.input_for(o, s))
              << "router " << n << " out " << o << " slot " << s;
    } else {
      const auto& ta = via_cfg.net->ni(n).table();
      const auto& tb = direct.net->ni(n).table();
      for (tdm::Slot s = 0; s < 16; ++s) {
        ASSERT_EQ(ta.tx_channel(s), tb.tx_channel(s)) << "NI " << n << " tx slot " << s;
        ASSERT_EQ(ta.rx_channel(s), tb.rx_channel(s)) << "NI " << n << " rx slot " << s;
      }
    }
  }
  EXPECT_EQ(via_cfg.net->total_cfg_errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigEquivalenceProperty,
                         ::testing::Values(3ull, 17ull, 91ull, 2024ull));

// --- Property: random connection sets are contention-free ------------------------

class ContentionFreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContentionFreeProperty, RandomConnectionsZeroDropsExactLatency) {
  TestNet t(4, 4, 16);
  sim::Xoshiro256 rng(GetParam());
  const auto nis = t.mesh.all_nis();

  // Allocate a handful of random connections (skipping infeasible ones).
  std::vector<ConnectionHandle> handles;
  for (int i = 0; i < 8; ++i) {
    const topo::NodeId src = nis[rng.below(nis.size())];
    topo::NodeId dst = nis[rng.below(nis.size())];
    if (dst == src) continue;
    alloc::UseCase uc;
    uc.connections.push_back({"r", src, {dst}, static_cast<std::uint32_t>(rng.range(1, 3)), 1});
    auto a = alloc::allocate_use_case(*t.alloc, uc);
    if (!a) continue;
    handles.push_back(t.net->open_connection(a->connections[0]));
  }
  ASSERT_GT(handles.size(), 2u);
  t.net->run_config();

  // Stream on all connections concurrently.
  std::vector<std::size_t> pushed(handles.size(), 0);
  std::vector<std::uint32_t> expected(handles.size(), 0);
  constexpr std::size_t kWords = 60;
  for (int guard = 0; guard < 40000; ++guard) {
    bool done = true;
    for (std::size_t c = 0; c < handles.size(); ++c) {
      Ni& src = t.net->ni(handles[c].conn.request.src_ni);
      if (pushed[c] < kWords &&
          src.tx_push(handles[c].src_tx_q, static_cast<std::uint32_t>(pushed[c])))
        ++pushed[c];
      Ni& dst = t.net->ni(handles[c].conn.request.dst_nis[0]);
      while (auto w = dst.rx_pop(handles[c].dst_rx_qs[0])) ASSERT_EQ(*w, expected[c]++);
      done = done && expected[c] == kWords;
    }
    if (done) break;
    t.kernel.step();
  }
  for (std::size_t c = 0; c < handles.size(); ++c)
    EXPECT_EQ(expected[c], kWords) << "connection " << c << " did not finish";

  EXPECT_EQ(t.net->total_router_drops(), 0u);
  EXPECT_EQ(t.net->total_ni_drops(), 0u);
  EXPECT_EQ(t.net->total_rx_overflow(), 0u);
  EXPECT_EQ(t.net->total_cfg_errors(), 0u);

  // Contention-free means zero jitter per channel. The NI latency
  // histogram aggregates every channel terminating at that NI (including
  // response channels), so the min==max check applies only to NIs that
  // receive exactly one data channel; for the others, check that each
  // connection's exact 2-cycles-per-hop latency appears in the histogram.
  std::map<topo::NodeId, int> rx_channels;
  for (const auto& h : handles) {
    ++rx_channels[h.conn.request.dst_nis[0]];
    if (h.conn.has_response) ++rx_channels[h.conn.request.src_ni];
  }
  for (const auto& h : handles) {
    const topo::NodeId dst_node = h.conn.request.dst_nis[0];
    const Ni& dst = t.net->ni(dst_node);
    const auto exact = 2 * h.conn.request.edges.size();
    EXPECT_GT(dst.stats().latency.bucket(exact), 0u)
        << "expected flits with latency " << exact << " at " << dst_node;
    if (rx_channels[dst_node] == 1 && dst.stats().latency.count() > 0) {
      EXPECT_EQ(dst.stats().latency.min(), dst.stats().latency.max());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContentionFreeProperty,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull));

// --- Property: the NI's dirty-channel commit latches every write ----------------
//
// Ni::commit() latches only the channels whose dirty bit a write set. A
// missing mark would leave a push, pop or counter delta waiting for a
// later, unrelated commit; both schedulers run the same rule, so
// cross-scheduler identity cannot see it. This drives seeded random
// pushes and pops on both directions of unicast and multicast channels
// through small queues (full queues, stalls, credit returns) and checks
// every NI after every step.

class NiDirtyCommitProperty
    : public ::testing::TestWithParam<std::tuple<sim::Scheduler, std::uint64_t>> {};

TEST_P(NiDirtyCommitProperty, EveryStepLatchesEveryChannelWrite) {
  const auto [sched, seed] = GetParam();
  topo::Mesh mesh = topo::make_mesh(3, 3);
  sim::Kernel kernel(sched);
  DaeliteNetwork::Options opt;
  opt.tdm = tdm::daelite_params(8);
  opt.ni_queue_capacity = 6;
  opt.cfg_root = mesh.ni(0, 0);
  DaeliteNetwork net(kernel, mesh.topo, opt);
  alloc::SlotAllocator allocator(mesh.topo, opt.tdm);
  sim::Xoshiro256 rng(seed);
  const auto nis = mesh.all_nis();

  std::vector<ConnectionHandle> handles;
  for (int i = 0; i < 10; ++i) {
    const topo::NodeId src = nis[rng.below(nis.size())];
    std::vector<topo::NodeId> dsts;
    const std::size_t fanout = rng.chance(0.3) ? 2 : 1;
    while (dsts.size() < fanout) {
      const topo::NodeId d = nis[rng.below(nis.size())];
      if (d != src && std::find(dsts.begin(), dsts.end(), d) == dsts.end()) dsts.push_back(d);
    }
    alloc::UseCase uc;
    uc.connections.push_back({"r", src, dsts, static_cast<std::uint32_t>(rng.range(1, 2)), 1});
    auto a = alloc::allocate_use_case(allocator, uc);
    if (a) handles.push_back(net.open_connection(a->connections[0]));
  }
  ASSERT_GT(handles.size(), 2u);
  ASSERT_NE(net.run_config(), sim::kNoCycle);

  const auto check_all = [&](int step) {
    for (topo::NodeId n : nis)
      ASSERT_TRUE(net.ni(n).channels_latched()) << "NI " << n << " after step " << step;
  };
  check_all(-1);
  std::uint64_t moved = 0;
  for (int step = 0; step < 3000; ++step) {
    for (const ConnectionHandle& h : handles) {
      Ni& src = net.ni(h.conn.request.src_ni);
      for (std::uint64_t w = rng.below(4); w > 0 && src.tx_push(h.src_tx_q, 1); --w) ++moved;
      for (std::size_t d = 0; d < h.dst_rx_qs.size(); ++d) {
        if (!rng.chance(0.4)) continue; // let rx queues fill and credits stall
        Ni& dst = net.ni(h.conn.request.dst_nis[d]);
        for (std::uint64_t w = rng.below(3); w > 0 && dst.rx_pop(h.dst_rx_qs[d]); --w) ++moved;
      }
      if (!h.conn.has_response) continue;
      Ni& dst = net.ni(h.conn.request.dst_nis[0]);
      if (rng.chance(0.5)) src.rx_pop(h.src_rx_q);
      if (rng.chance(0.3)) dst.tx_push(h.dst_tx_q, 2);
    }
    kernel.step();
    check_all(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(moved, 3000u);
  EXPECT_EQ(net.total_router_drops(), 0u);
  EXPECT_EQ(net.total_ni_drops(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SchedulersAndSeeds, NiDirtyCommitProperty,
    ::testing::Combine(::testing::Values(sim::Scheduler::kStride, sim::Scheduler::kReference),
                       ::testing::Values(5ull, 77ull)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == sim::Scheduler::kStride ? "stride"
                                                                              : "reference") +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

} // namespace
