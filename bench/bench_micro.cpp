// Micro-benchmarks (google-benchmark): simulator throughput and allocator
// cost. These are engineering benchmarks for the model itself, not paper
// artifacts — they document that the cycle-accurate model is fast enough
// for the experiments above.

#include <benchmark/benchmark.h>

#include "alloc/allocator.hpp"
#include "alloc/joint_alloc.hpp"
#include "alloc/usecase.hpp"
#include "daelite/network.hpp"
#include "sim/fifo.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"
#include "topology/generators.hpp"
#include "topology/path.hpp"

using namespace daelite;

namespace {

void BM_KernelCyclesIdle4x4(benchmark::State& state) {
  const auto mesh = topo::make_mesh(4, 4);
  sim::Kernel k;
  hw::DaeliteNetwork::Options opt;
  opt.tdm = tdm::daelite_params(16);
  opt.cfg_root = mesh.ni(0, 0);
  hw::DaeliteNetwork net(k, mesh.topo, opt);
  for (auto _ : state) k.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KernelCyclesIdle4x4);

void BM_KernelCyclesLoaded4x4(benchmark::State& state) {
  const auto mesh = topo::make_mesh(4, 4);
  sim::Kernel k;
  hw::DaeliteNetwork::Options opt;
  opt.tdm = tdm::daelite_params(16);
  opt.cfg_root = mesh.ni(0, 0);
  hw::DaeliteNetwork net(k, mesh.topo, opt);
  alloc::SlotAllocator alloc(mesh.topo, opt.tdm);

  std::vector<hw::ConnectionHandle> handles;
  sim::Xoshiro256 rng(5);
  const auto nis = mesh.all_nis();
  while (handles.size() < 10) {
    const auto s = nis[rng.below(nis.size())];
    const auto d = nis[rng.below(nis.size())];
    if (s == d) continue;
    alloc::UseCase uc;
    uc.connections.push_back({"c", s, {d}, 1, 1});
    auto a = alloc::allocate_use_case(alloc, uc);
    if (!a) continue;
    handles.push_back(net.open_connection(a->connections[0]));
  }
  net.run_config();

  std::size_t i = 0;
  for (auto _ : state) {
    auto& h = handles[i++ % handles.size()];
    net.ni(h.conn.request.src_ni).tx_push(h.src_tx_q, 1);
    k.step();
    net.ni(h.conn.request.dst_nis[0]).rx_pop(h.dst_rx_qs[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KernelCyclesLoaded4x4);

// The disabled record() path must be branch-only — simulations run with
// tracing off by default and may not pay for instrumentation.
void BM_TracerRecordDisabled(benchmark::State& state) {
  sim::Tracer t(false);
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    t.record(cycle++, 0, sim::TraceEvent::kFlitInject, 1, 2);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerRecordDisabled);

void BM_TracerRecordEnabled(benchmark::State& state) {
  sim::Tracer t(true, 1u << 16);
  const auto c = t.intern("bench");
  std::uint64_t cycle = 0;
  for (auto _ : state) {
    t.record(cycle++, c, sim::TraceEvent::kFlitInject, 1, 2);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerRecordEnabled);

void BM_KernelCyclesLoaded4x4Traced(benchmark::State& state) {
  const auto mesh = topo::make_mesh(4, 4);
  sim::Kernel k;
  sim::Tracer tracer(true, 1u << 16);
  k.set_tracer(&tracer);
  hw::DaeliteNetwork::Options opt;
  opt.tdm = tdm::daelite_params(16);
  opt.cfg_root = mesh.ni(0, 0);
  hw::DaeliteNetwork net(k, mesh.topo, opt);
  alloc::SlotAllocator alloc(mesh.topo, opt.tdm);
  alloc::UseCase uc;
  uc.connections.push_back({"c", mesh.ni(0, 0), {mesh.ni(3, 3)}, 1, 1});
  auto a = alloc::allocate_use_case(alloc, uc);
  auto h = net.open_connection(a->connections[0]);
  net.run_config();
  for (auto _ : state) {
    net.ni(h.conn.request.src_ni).tx_push(h.src_tx_q, 1);
    k.step();
    net.ni(h.conn.request.dst_nis[0]).rx_pop(h.dst_rx_qs[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KernelCyclesLoaded4x4Traced);

// One NI queue in steady state: a push, a pop and a clock edge per
// iteration on a capacity-32 queue holding 16 words — the per-edge cost of
// the data path's queues.
void BM_FifoRegPushPopCommit(benchmark::State& state) {
  sim::FifoReg<std::uint32_t> q;
  for (std::uint32_t w = 0; w < 16; ++w) q.push(w);
  q.commit_reg();
  std::uint32_t w = 16;
  for (auto _ : state) {
    if (q.next_size() < 32) q.push(w++);
    benchmark::DoNotOptimize(q.pop());
    q.commit_reg();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FifoRegPushPopCommit);

// One word through one tx channel of an 8-channel NI: the shell's push and
// its edge, then the slot that sends it and its edge. Each edge has one
// written channel; an NI that latched all of its channels paid for 33
// registers per edge.
void BM_NiCommitOneDirtyChannel(benchmark::State& state) {
  sim::Kernel k;
  hw::Ni::Params p;
  p.tdm = tdm::daelite_params(8);
  hw::Ni ni(k, "ni", 1, p);
  ni.table().set_tx(0, 3);
  ni.set_flow_ctrl_direct(3, false);
  std::uint32_t w = 0;
  for (auto _ : state) {
    ni.tx_push(3, w++);
    ni.commit();
    ni.slot_tick(0);
    ni.commit();
  }
  benchmark::DoNotOptimize(ni.tx_stats(3).words_sent);
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * state.iterations()));
}
BENCHMARK(BM_NiCommitOneDirtyChannel);

void BM_ShortestPath8x8(benchmark::State& state) {
  const auto mesh = topo::make_mesh(8, 8);
  topo::PathFinder f(mesh.topo);
  for (auto _ : state) benchmark::DoNotOptimize(f.shortest(mesh.ni(0, 0), mesh.ni(7, 7)));
}
BENCHMARK(BM_ShortestPath8x8);

void BM_KShortest8x8(benchmark::State& state) {
  const auto mesh = topo::make_mesh(8, 8);
  topo::PathFinder f(mesh.topo);
  for (auto _ : state) benchmark::DoNotOptimize(f.k_shortest(mesh.ni(0, 0), mesh.ni(7, 7), 8));
}
BENCHMARK(BM_KShortest8x8);

void BM_AllocateRelease4x4(benchmark::State& state) {
  const auto mesh = topo::make_mesh(4, 4);
  alloc::SlotAllocator a(mesh.topo, tdm::daelite_params(16));
  alloc::ChannelSpec spec;
  spec.src_ni = mesh.ni(0, 0);
  spec.dst_nis = {mesh.ni(3, 3)};
  spec.slots_required = 2;
  for (auto _ : state) {
    auto r = a.allocate(spec);
    benchmark::DoNotOptimize(r);
    a.release(*r);
  }
}
BENCHMARK(BM_AllocateRelease4x4);

void BM_MulticastAllocate4x4(benchmark::State& state) {
  const auto mesh = topo::make_mesh(4, 4);
  alloc::SlotAllocator a(mesh.topo, tdm::daelite_params(16));
  alloc::ChannelSpec spec;
  spec.src_ni = mesh.ni(0, 0);
  spec.dst_nis = {mesh.ni(3, 0), mesh.ni(0, 3), mesh.ni(3, 3)};
  spec.slots_required = 2;
  for (auto _ : state) {
    auto r = a.allocate(spec);
    benchmark::DoNotOptimize(r);
    a.release(*r);
  }
}
BENCHMARK(BM_MulticastAllocate4x4);

// Tree growth dominates: the trunk candidates are memoized after the first
// call, and each extra destination searches from every tree router.
void BM_MulticastAllocate8x8(benchmark::State& state) {
  const auto mesh = topo::make_mesh(8, 8);
  alloc::SlotAllocator a(mesh.topo, tdm::daelite_params(32));
  alloc::ChannelSpec spec;
  spec.src_ni = mesh.ni(0, 0);
  spec.dst_nis = {mesh.ni(7, 7), mesh.ni(7, 0), mesh.ni(0, 7), mesh.ni(3, 4)};
  spec.slots_required = 2;
  for (auto _ : state) {
    auto r = a.allocate(spec);
    benchmark::DoNotOptimize(r);
    a.release(*r);
  }
}
BENCHMARK(BM_MulticastAllocate8x8);

void BM_JointAllocate4x4(benchmark::State& state) {
  const auto mesh = topo::make_mesh(4, 4);
  alloc::SlotAllocator a(mesh.topo, tdm::daelite_params(16));
  alloc::ChannelSpec spec;
  spec.src_ni = mesh.ni(0, 0);
  spec.dst_nis = {mesh.ni(3, 3)};
  spec.slots_required = 2;
  for (auto _ : state) {
    auto r = alloc::allocate_joint(a, spec);
    benchmark::DoNotOptimize(r);
    a.release(*r);
  }
}
BENCHMARK(BM_JointAllocate4x4);

} // namespace

BENCHMARK_MAIN();
