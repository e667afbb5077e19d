// Self-tests of the benchmark's generators and checks.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   ctest --test-dir .bench_build/perfbench

#include <gtest/gtest.h>

#include <algorithm>

#include "checks.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

TEST(PerfbenchInputs, SameSeedGivesIdenticalInputs) {
  for (Workload w : {Workload::kSimSaturated, Workload::kSimRecovery}) {
    for (std::uint64_t seed : {kDefaultSeed, kHeldOutSeed, std::uint64_t{0}}) {
      const SimInputs a = make_sim_inputs(w, seed);
      const SimInputs b = make_sim_inputs(w, seed);
      EXPECT_EQ(a.scenario_text, b.scenario_text);
      EXPECT_EQ(a.fault_plan_text, b.fault_plan_text);
      EXPECT_EQ(a.kill_links, b.kill_links);
    }
    EXPECT_NE(make_sim_inputs(w, 1).scenario_text, make_sim_inputs(w, 2).scenario_text);
  }
  const auto a = make_churn_options(kDefaultSeed);
  const auto b = make_churn_options(kDefaultSeed);
  EXPECT_EQ(a.workload.seed, b.workload.seed);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_NE(make_churn_options(1).workload.seed, make_churn_options(2).workload.seed);
}

TEST(PerfbenchInputs, EveryInputParsesIntoARunSpec) {
  for (Workload w : {Workload::kSimSaturated, Workload::kSimRecovery}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      std::string error;
      const SimInputs in = make_sim_inputs(w, seed);
      ASSERT_TRUE(make_run_spec(w, in, true, &error).has_value()) << error;
      ASSERT_TRUE(make_run_spec(w, in, false, &error).has_value()) << error;
    }
  }
}

TEST(PerfbenchInputs, KillTargetsAreAlwaysRoutedLinks) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const SimInputs in = make_sim_inputs(Workload::kSimRecovery, seed);
    const auto routed = routed_links(in.scenario_text);
    ASSERT_GE(in.kill_links.size(), 4u) << "seed " << seed;
    for (auto l : in.kill_links)
      EXPECT_TRUE(std::binary_search(routed.begin(), routed.end(), l))
          << "seed " << seed << " kills unrouted link " << l;
    auto sorted = in.kill_links;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
  EXPECT_TRUE(make_sim_inputs(Workload::kSimSaturated, 1).kill_links.empty());
}

TEST(PerfbenchChecks, WrongRecordedDigestCountsAsFailure) {
  DigestTable table;
  std::string error;
  ASSERT_TRUE(table.parse("# comment\nsim_saturated 1 0x00000000000000ff\n", &error)) << error;
  Tally t;
  std::string why;
  EXPECT_TRUE(t.check(t.digest_matches("run", 0xff, table.find("sim_saturated", 1), &why), why));
  EXPECT_FALSE(t.check(t.digest_matches("run", 0xfe, table.find("sim_saturated", 1), &why), why));
  EXPECT_EQ(t.attempted(), 2u);
  EXPECT_EQ(t.failed(), 1u);
  EXPECT_NE(result_json(t, {}).find("\"correct\": false"), std::string::npos);
}

TEST(PerfbenchChecks, RunToRunDigestDriftCountsAsFailure) {
  Tally t;
  std::string why;
  t.check(t.digest_matches("run", 1, std::nullopt, &why), why);
  t.check(t.digest_matches("run", 2, std::nullopt, &why), why);
  EXPECT_EQ(t.failed(), 1u);
}

TEST(PerfbenchChecks, MalformedDigestTableIsRejected) {
  DigestTable table;
  std::string error;
  EXPECT_FALSE(table.parse("sim_saturated one 0x12\n", &error));
  EXPECT_FALSE(table.parse("sim_saturated 1 12\n", &error));
  EXPECT_FALSE(table.parse("sim_saturated 1 0x12 extra\n", &error));
}

} // namespace
