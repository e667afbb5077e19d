// Tests for the DNN workload front end: schedule compilation (multicast
// weight broadcast, per-layer DRAM-port rotation), the scenario grammar,
// hand-checked energy totals, and byte-identical workload reports across
// every execution mode.

#include <gtest/gtest.h>

#include <sstream>

#include "alloc/switching.hpp"
#include "alloc/usecase.hpp"
#include "sim/json.hpp"
#include "soc/runner.hpp"
#include "soc/scenario.hpp"
#include "topology/generators.hpp"
#include "workload/dnn.hpp"

namespace {

using namespace daelite;

const workload::CompiledConnection* find_conn(const workload::CompiledLayer& layer,
                                              const std::string& name) {
  for (const workload::CompiledConnection& c : layer.traffic)
    if (c.spec.name == name) return &c;
  return nullptr;
}

TEST(DnnCompile, WeightBroadcastAndPortRotation) {
  topo::Mesh mesh = topo::make_mesh(4, 4);
  workload::DnnSchedule s;
  s.grid_x = 1;
  s.grid_y = 0;
  s.grid_w = 2;
  s.grid_h = 2;
  s.layers = {{"l0", 101, 10, 5}, {"l1", 101, 10, 5}};
  auto wl = workload::compile(s, mesh, {{0, 0}, {0, 1}});
  ASSERT_TRUE(wl.has_value());
  EXPECT_EQ(wl->tiles.size(), 4u);
  EXPECT_EQ(wl->dram_nis.size(), 2u);
  ASSERT_EQ(wl->layers.size(), 2u);
  // 2 weight broadcasts + 4 ifmaps + 4 ofmaps per layer.
  EXPECT_EQ(wl->layers[0].traffic.size(), 10u);

  // Each port multicasts its ceil-share of the weights to EVERY tile,
  // posted (no response channel).
  const auto* w0 = find_conn(wl->layers[0], "w0");
  ASSERT_NE(w0, nullptr);
  EXPECT_EQ(w0->spec.dst_nis.size(), 4u);
  EXPECT_EQ(w0->words, 51u); // ceil(101 / 2)
  EXPECT_EQ(w0->spec.response_slots, 0u);

  // The weight broadcast is layer-invariant (a use-case switch keeps it);
  // tile 0's ifmap source ROTATES from port 0 to port 1, so the switch
  // really tears it down and sets it up.
  const auto* w0_l1 = find_conn(wl->layers[1], "w0");
  ASSERT_NE(w0_l1, nullptr);
  EXPECT_TRUE(alloc::specs_equal(w0->spec, w0_l1->spec));
  const auto* i0_l0 = find_conn(wl->layers[0], "i0");
  const auto* i0_l1 = find_conn(wl->layers[1], "i0");
  ASSERT_NE(i0_l0, nullptr);
  ASSERT_NE(i0_l1, nullptr);
  EXPECT_EQ(i0_l0->spec.src_ni, wl->dram_nis[0]);
  EXPECT_EQ(i0_l1->spec.src_ni, wl->dram_nis[1]);
  EXPECT_FALSE(alloc::specs_equal(i0_l0->spec, i0_l1->spec));
  // The ofmap direction rotates with it: tile -> interleaved port.
  const auto* o0_l1 = find_conn(wl->layers[1], "o0");
  ASSERT_NE(o0_l1, nullptr);
  EXPECT_EQ(o0_l1->spec.src_ni, wl->tiles[0]);
  EXPECT_EQ(o0_l1->spec.dst_nis[0], wl->dram_nis[1]);
}

TEST(DnnCompile, RejectsBadPlacement) {
  topo::Mesh mesh = topo::make_mesh(3, 3);
  workload::DnnSchedule s;
  s.grid_w = 2;
  s.grid_h = 2;
  s.layers = {{"l0", 8, 1, 1}};
  std::string why;
  // Grid leaving the mesh.
  s.grid_x = 2;
  EXPECT_FALSE(workload::compile(s, mesh, {{0, 2}}, &why).has_value());
  s.grid_x = 0;
  // DRAM port inside the tile grid.
  EXPECT_FALSE(workload::compile(s, mesh, {{1, 1}}, &why).has_value());
  // Duplicate DRAM port.
  EXPECT_FALSE(workload::compile(s, mesh, {{0, 2}, {0, 2}}, &why).has_value());
  // No ports at all.
  EXPECT_FALSE(workload::compile(s, mesh, {}, &why).has_value());
  // And the valid variant of the same schedule compiles.
  EXPECT_TRUE(workload::compile(s, mesh, {{0, 2}}, &why).has_value()) << why;
}

std::optional<soc::Scenario> parse(const std::string& text, std::string* error = nullptr) {
  std::istringstream in(text);
  return soc::parse_scenario(in, error);
}

TEST(DnnGrammar, ParsesAndValidates) {
  auto sc = parse("mesh 4 4\n"
                  "host 0,0\n"
                  "dram 0,1 0,2\n"
                  "energy hop 1.5 dram 10 config 2\n"
                  "dnn grid 1,0 3x3 weights 3 ifmap 2 ofmap 1\n"
                  "layer conv weights 100 ifmap 20 ofmap 10\n"
                  "run 5000\n");
  ASSERT_TRUE(sc.has_value());
  ASSERT_TRUE(sc->dnn.has_value());
  EXPECT_EQ(sc->dram.size(), 2u);
  EXPECT_TRUE(sc->energy.enabled);
  EXPECT_DOUBLE_EQ(sc->energy.hop_energy_pj, 1.5);
  EXPECT_EQ(sc->dnn->grid_w, 3);
  EXPECT_EQ(sc->dnn->weight_slots, 3u);
  ASSERT_EQ(sc->dnn->layers.size(), 1u);
  EXPECT_EQ(sc->dnn->layers[0].weight_words, 100u);

  std::string err;
  // layer before dnn.
  EXPECT_FALSE(parse("mesh 2 2\nlayer l weights 1 ifmap 0 ofmap 0\n", &err).has_value());
  // dnn mixed with explicit connections.
  EXPECT_FALSE(parse("mesh 4 4\ndram 0,0\nconnection c 0,1 1,1 100\n"
                     "dnn grid 1,0 2x2\nlayer l weights 1 ifmap 0 ofmap 0\nrun 100\n",
                     &err)
                   .has_value());
  // dnn without a dram port.
  EXPECT_FALSE(
      parse("mesh 4 4\ndnn grid 1,0 2x2\nlayer l weights 1 ifmap 0 ofmap 0\n", &err).has_value());
  // dnn without layers.
  EXPECT_FALSE(parse("mesh 4 4\ndram 0,0\ndnn grid 1,0 2x2\n", &err).has_value());
  // Strict numerics: trailing junk is a diagnostic.
  EXPECT_FALSE(parse("mesh 4 4\ndram 0,0\ndnn grid 1,0 2x2 weights 2x\n"
                     "layer l weights 1 ifmap 0 ofmap 0\n",
                     &err)
                   .has_value());
  EXPECT_FALSE(parse("mesh 2 2\nstream s 0,0 1,1 100 period 1e3 burst 4\nrun 100\n", &err)
                   .has_value());
}

TEST(DnnEnergy, HandCheckedOneLayerTotals) {
  auto sc = parse("mesh 2 2\n"
                  "slots 8\n"
                  "clock 500\n"
                  "host 0,0\n"
                  "dram 0,0\n"
                  "energy hop 2.0 dram 3.0 config 0.5\n"
                  "dnn grid 1,0 1x2 weights 2 ifmap 1 ofmap 1\n"
                  "layer l0 weights 40 ifmap 24 ofmap 16\n"
                  "run 20000\n");
  ASSERT_TRUE(sc.has_value());

  // The run's routes are exactly what the allocator hands out for the same
  // use case in the same order (seed 0 keeps compile order), so the
  // expected flit-hop total is sum(flits x route edges) per connection,
  // where a daelite flit packs words_per_slot payload words.
  topo::Mesh mesh = topo::make_mesh(2, 2);
  auto wl = workload::compile(*sc->dnn, mesh, sc->dram);
  ASSERT_TRUE(wl.has_value());
  const tdm::TdmParams params = tdm::daelite_params(8);
  alloc::SlotAllocator ref(mesh.topo, params);
  auto alloc = alloc::allocate_use_case(ref, wl->layers[0].use_case());
  ASSERT_TRUE(alloc.has_value());
  std::uint64_t expected_hops = 0;
  for (std::size_t i = 0; i < alloc->connections.size(); ++i) {
    const std::uint64_t flits =
        (wl->layers[0].traffic[i].words + params.words_per_slot - 1) / params.words_per_slot;
    expected_hops += flits * alloc->connections[i].request.edges.size();
  }

  soc::RunSpec spec;
  spec.scenario = *sc;
  analysis::NetworkReport report = soc::run_scenario(spec);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_TRUE(report.workload.enabled);
  ASSERT_EQ(report.workload.layers.size(), 1u);
  EXPECT_TRUE(report.workload.layers[0].completed);

  ASSERT_TRUE(report.energy.enabled);
  EXPECT_EQ(report.energy.link_flit_hops, expected_hops);
  // DRAM words through NI(0,0): weights 40 + ifmaps 2x24 sent, ofmaps
  // 2x16 received.
  EXPECT_EQ(report.energy.dram_words, 40u + 48u + 32u);
  EXPECT_GT(report.energy.config_words, 0u);
  EXPECT_DOUBLE_EQ(report.energy.hop_pj(), static_cast<double>(expected_hops) * 2.0);
  EXPECT_DOUBLE_EQ(report.energy.dram_pj(), 120.0 * 3.0);
  EXPECT_DOUBLE_EQ(report.energy.total_pj(),
                   report.energy.hop_pj() + report.energy.dram_pj() + report.energy.config_pj());
}

TEST(DnnRun, ByteIdenticalReportsAcrossExecutionModes) {
  auto sc = parse("mesh 3 3\n"
                  "clock 500\n"
                  "host 0,0\n"
                  "dram 0,1 0,2\n"
                  "energy\n"
                  "dnn grid 1,0 2x2 weights 2 ifmap 1 ofmap 1\n"
                  "layer conv1 weights 96 ifmap 32 ofmap 16\n"
                  "layer conv2 weights 128 ifmap 16 ofmap 16\n"
                  "run 20000\n");
  ASSERT_TRUE(sc.has_value());

  soc::RunSpec base;
  base.scenario = *sc;
  base.seed = 5; // exercise the per-layer traffic shuffle too

  const std::string reference = soc::run_scenario(base).to_json().dump(2);
  ASSERT_NE(reference.find("\"workload\""), std::string::npos);
  ASSERT_NE(reference.find("\"completed\": true"), std::string::npos);

  soc::RunSpec sharded = base;
  sharded.shards = 4;
  EXPECT_EQ(soc::run_scenario(sharded).to_json().dump(2), reference);

  soc::RunSpec two_shards = base;
  two_shards.shards = 2;
  EXPECT_EQ(soc::run_scenario(two_shards).to_json().dump(2), reference);

  soc::RunSpec oracle = base;
  oracle.scheduler = sim::Scheduler::kReference;
  EXPECT_EQ(soc::run_scenario(oracle).to_json().dump(2), reference);
}

TEST(DnnRun, SwitchKeepsWeightBroadcastsAndChurnsFeatureMaps) {
  auto sc = parse("mesh 3 3\n"
                  "host 0,0\n"
                  "dram 0,1 0,2\n"
                  "dnn grid 1,0 2x2\n"
                  "layer l0 weights 64 ifmap 16 ofmap 8\n"
                  "layer l1 weights 64 ifmap 16 ofmap 8\n"
                  "run 20000\n");
  ASSERT_TRUE(sc.has_value());
  soc::RunSpec spec;
  spec.scenario = *sc;
  analysis::NetworkReport report = soc::run_scenario(spec);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.workload.layers.size(), 2u);
  const analysis::WorkloadLayerOutcome& l1 = report.workload.layers[1];
  // The 2 weight broadcasts ride through the switch; all 8 rotating
  // ifmap/ofmap connections are torn down and re-set-up.
  EXPECT_EQ(l1.kept, 2u);
  EXPECT_EQ(l1.torn_down, 8u);
  EXPECT_EQ(l1.set_up, 8u);
  EXPECT_GT(l1.switch_cycles, 0u);
  EXPECT_TRUE(l1.completed);
}

} // namespace
