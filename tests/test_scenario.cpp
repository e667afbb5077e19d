// Tests for the scenario front end: grammar, diagnostics, coordinate
// resolution, and integration with the dimensioning flow.

#include <gtest/gtest.h>

#include <sstream>

#include "alloc/dimension.hpp"
#include "soc/scenario.hpp"

namespace {

using namespace daelite;
using namespace daelite::soc;

std::optional<Scenario> parse(const std::string& text, std::string* err = nullptr) {
  std::istringstream is(text);
  return parse_scenario(is, err);
}

TEST(Scenario, ParsesFullGrammar) {
  auto sc = parse(R"(
# comment line
mesh 3 3
slots 16
clock 400
host 1,1
connection a 0,0 2,2 300 latency 200 resp 50
multicast m 1,1 0,0 2,0 bw 80
run 5000
)");
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(sc->width, 3);
  EXPECT_EQ(sc->height, 3);
  ASSERT_TRUE(sc->slots.has_value());
  EXPECT_EQ(*sc->slots, 16u);
  EXPECT_DOUBLE_EQ(sc->clock_mhz, 400.0);
  EXPECT_EQ(sc->host, (std::pair<int, int>{1, 1}));
  EXPECT_EQ(sc->run_cycles, 5000u);
  ASSERT_EQ(sc->raw.size(), 2u);
  EXPECT_EQ(sc->raw[0].name, "a");
  EXPECT_DOUBLE_EQ(sc->raw[0].bandwidth, 300.0);
  EXPECT_DOUBLE_EQ(sc->raw[0].max_latency_ns, 200.0);
  EXPECT_DOUBLE_EQ(sc->raw[0].response_bandwidth, 50.0);
  EXPECT_EQ(sc->raw[1].dsts.size(), 2u);
}

TEST(Scenario, DefaultsWhenDirectivesOmitted) {
  auto sc = parse("mesh 2 2\nconnection a 0,0 1,1 100\n");
  ASSERT_TRUE(sc.has_value());
  EXPECT_FALSE(sc->slots.has_value()); // dimensioning will search
  EXPECT_DOUBLE_EQ(sc->clock_mhz, 500.0);
  EXPECT_EQ(sc->run_cycles, 10000u);
}

TEST(Scenario, RingAndTorus) {
  auto ring = parse("ring 6\nconnection a 0,0 3,0 100\n");
  ASSERT_TRUE(ring.has_value());
  EXPECT_EQ(ring->kind, Scenario::TopologyKind::kRing);

  auto torus = parse("mesh 4 4 torus\nconnection a 0,0 3,3 100\n");
  ASSERT_TRUE(torus.has_value());
  EXPECT_EQ(torus->kind, Scenario::TopologyKind::kTorus);
}

TEST(Scenario, DiagnosticsCarryLineNumbers) {
  std::string err;
  EXPECT_FALSE(parse("mesh 2 2\nbogus 1 2\n", &err).has_value());
  EXPECT_NE(err.find("line 2"), std::string::npos);
  EXPECT_NE(err.find("bogus"), std::string::npos);

  EXPECT_FALSE(parse("mesh 2\n", &err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos);

  EXPECT_FALSE(parse("mesh 2 2\nconnection a 0,0 1,1 100 latency\n", &err).has_value());
  EXPECT_NE(err.find("needs a value"), std::string::npos);

  EXPECT_FALSE(parse("mesh 2 2\nmulticast m 0,0 1,1 bw 50\n", &err).has_value());
  EXPECT_NE(err.find("at least 2"), std::string::npos);

  EXPECT_FALSE(parse("mesh 2 2\n", &err).has_value()); // no connections
  EXPECT_NE(err.find("no connections"), std::string::npos);

  // The original directives are as strict as the newer ones: every number
  // is a whole finite token, and the wheel holds at most 64 slots. Each
  // bad line sits on line 3 after a valid mesh and connection.
  for (const char* bad : {"run -5", "run 3000cycles", "mesh 3 3x", "host 1,1x",
                          "connection b 0,0 2,2 100MB", "slots 65", "slots 0", "clock nan",
                          "connection b 0,0 2,2 inf", "connection b 0,0 2,2 100 latency 1e999",
                          "multicast m 0,0 1,1 2,2 bw 50 extra", "mesh 3 3 torus extra",
                          "ring 4x"}) {
    err.clear();
    EXPECT_FALSE(parse(std::string("mesh 3 3\nconnection a 0,0 2,2 100\n") + bad + "\n", &err))
        << bad;
    EXPECT_NE(err.find("line 3"), std::string::npos) << bad << " -> " << err;
  }
}

TEST(Scenario, AcceptsWellFormedNumbersInEveryForm) {
  // 64 slots is the largest wheel; scientific bandwidths are finite decimals.
  auto sc = parse("mesh 3 3 torus\nslots 64\nclock 2.5e2\nconnection a 0,0 2,2 1e2\nrun 0\n");
  ASSERT_TRUE(sc.has_value());
  EXPECT_EQ(*sc->slots, 64u);
  EXPECT_DOUBLE_EQ(sc->clock_mhz, 250.0);
  EXPECT_DOUBLE_EQ(sc->raw[0].bandwidth, 100.0);
  EXPECT_EQ(sc->run_cycles, 0u);
}

TEST(Scenario, StressScenarioIsCornerUnicastsPlusHostMulticast) {
  const Scenario sc = stress_scenario(4, 3, /*torus=*/true);
  EXPECT_EQ(sc.kind, Scenario::TopologyKind::kTorus);
  EXPECT_EQ(sc.host, std::make_pair(2, 1));
  EXPECT_EQ(sc.run_cycles, 5000u);
  ASSERT_EQ(sc.raw.size(), 5u);
  EXPECT_EQ(sc.raw[0].src, std::make_pair(0, 0));
  EXPECT_EQ(sc.raw[0].dsts[0], std::make_pair(3, 2));
  EXPECT_EQ(sc.raw[4].name, "bcast");
  EXPECT_EQ(sc.raw[4].dsts.size(), 4u); // the host is no corner here
}

TEST(Scenario, BuildResolvesCoordinatesToNis) {
  auto sc = parse("mesh 3 3\nconnection a 0,0 2,1 100\n");
  ASSERT_TRUE(sc.has_value());
  const topo::Mesh mesh = sc->build();
  ASSERT_EQ(sc->connections.size(), 1u);
  EXPECT_EQ(sc->connections[0].src_ni, mesh.ni(0, 0));
  EXPECT_EQ(sc->connections[0].dst_nis[0], mesh.ni(2, 1));
}

TEST(Scenario, EndToEndThroughDimensioning) {
  auto sc = parse(R"(
mesh 3 3
clock 500
connection a 0,0 2,2 400
connection b 2,0 0,2 250 resp 60
)");
  ASSERT_TRUE(sc.has_value());
  topo::Mesh mesh = sc->build();
  const alloc::NocClocking clk{sc->clock_mhz, 4};
  auto dim = alloc::dimension_network(mesh.topo, sc->connections, clk);
  ASSERT_TRUE(dim.has_value());
  EXPECT_GE(dim->connections[0].achieved_mbytes_per_s, 400.0);
  EXPECT_GE(dim->connections[1].achieved_mbytes_per_s, 250.0);
}

} // namespace
