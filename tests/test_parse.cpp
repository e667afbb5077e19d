// Tests for the one input front end: the whole-token parsers every
// scenario, fault plan and tool flag goes through (sim/parse.hpp), the
// RunSpec flag grammar daelite_sim and daelite_batch share, and the one
// job path they both run (soc/runner.hpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/parse.hpp"
#include "soc/runner.hpp"

namespace {

using namespace daelite;

TEST(ParseToken, IntegersMustBeTheWholeToken) {
  std::uint32_t u = 7;
  EXPECT_TRUE(sim::parse_int("12", &u));
  EXPECT_EQ(u, 12u);
  for (const char* bad : {"", "12x", " 12", "0x12", "+1", "-1", "4294967296", "1.0"})
    EXPECT_FALSE(sim::parse_int(bad, &u)) << bad;
  EXPECT_EQ(u, 12u); // untouched on failure
  int i = 0;
  EXPECT_TRUE(sim::parse_int("-3", &i));
  EXPECT_EQ(i, -3);
}

TEST(ParseToken, NumbersAreFiniteDecimals) {
  double d = 0.0;
  EXPECT_TRUE(sim::parse_number("0.5", &d));
  EXPECT_DOUBLE_EQ(d, 0.5);
  EXPECT_TRUE(sim::parse_number("1e-3", &d));
  EXPECT_DOUBLE_EQ(d, 1e-3);
  EXPECT_TRUE(sim::parse_number("-2", &d));
  EXPECT_DOUBLE_EQ(d, -2.0);
  for (const char* bad : {"", "nan", "inf", "-inf", "infinity", "1e999", "0x1p3", "0.5x", "1,5"})
    EXPECT_FALSE(sim::parse_number(bad, &d)) << bad;
  EXPECT_DOUBLE_EQ(d, -2.0);
}

TEST(ParseToken, CoordinatesExtentsAndWheelSizes) {
  std::pair<int, int> c;
  EXPECT_TRUE(sim::parse_coord("3,0", &c));
  EXPECT_EQ(c, std::make_pair(3, 0));
  for (const char* bad : {"3", "3,", ",1", "1,-2", "1,1x", "1,1,1"})
    EXPECT_FALSE(sim::parse_coord(bad, &c)) << bad;

  int w = 0, h = 0;
  bool torus = false;
  EXPECT_TRUE(sim::parse_extent("3x4", &w, &h));
  EXPECT_EQ(w, 3);
  EXPECT_EQ(h, 4);
  EXPECT_FALSE(sim::parse_extent("4x4t", &w, &h)); // no torus suffix unless asked
  EXPECT_TRUE(sim::parse_extent("4x5t", &w, &h, &torus));
  EXPECT_TRUE(torus);
  EXPECT_EQ(h, 5);
  EXPECT_TRUE(sim::parse_extent("2x2", &w, &h, &torus));
  EXPECT_FALSE(torus);
  for (const char* bad : {"4x4garbage", "4x", "x4", "0x4", "4", "4x4tt"})
    EXPECT_FALSE(sim::parse_extent(bad, &w, &h, &torus)) << bad;

  std::uint32_t s = 0;
  EXPECT_TRUE(sim::parse_slots("1", &s));
  EXPECT_TRUE(sim::parse_slots("64", &s));
  EXPECT_EQ(s, 64u);
  for (const char* bad : {"0", "65", "16x", "-1"}) EXPECT_FALSE(sim::parse_slots(bad, &s)) << bad;
}

/// Offer every argument of `argv` to parse_run_flag; the statuses in order.
std::vector<soc::RunFlag> offer(std::vector<std::string> argv, soc::RunSpec* spec) {
  argv.insert(argv.begin(), "tool");
  std::vector<char*> ptrs;
  for (std::string& a : argv) ptrs.push_back(a.data());
  sim::Args args("tool", static_cast<int>(ptrs.size()), ptrs.data());
  std::vector<soc::RunFlag> out;
  while (args.next()) out.push_back(soc::parse_run_flag(args, spec));
  return out;
}

TEST(RunFlags, ParseStraightIntoRunSpec) {
  soc::RunSpec spec;
  const auto st = offer({"--scheduler", "reference", "--shards", "4", "--fault-seed", "9",
                         "--fault-rate", "2.5e-1", "--recover", "--preempt", "--compact",
                         "--watchdog-retries", "0", "--watchdog-timeout-mult", "1.5"},
                        &spec);
  // Nine of the ten flags; --fault-plan reads a file (see the reject test).
  EXPECT_EQ(st, std::vector<soc::RunFlag>(9, soc::RunFlag::kTaken));
  EXPECT_EQ(spec.scheduler, sim::Scheduler::kReference);
  EXPECT_EQ(spec.shards, 4u);
  EXPECT_EQ(spec.fault_plan.seed, 9u);
  EXPECT_DOUBLE_EQ(spec.fault_plan.rate, 0.25);
  EXPECT_TRUE(spec.recovery.enabled);
  EXPECT_TRUE(spec.recovery.preempt_best_effort);
  EXPECT_TRUE(spec.recovery.compact_after_recovery);
  ASSERT_TRUE(spec.watchdog_retries.has_value());
  EXPECT_EQ(*spec.watchdog_retries, 0u);
  EXPECT_DOUBLE_EQ(spec.watchdog_timeout_mult, 1.5);
}

TEST(RunFlags, RejectsMalformedValuesAndLeavesOtherFlagsAlone) {
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{"--shards", "0"}, {"--shards", "4x"}, {"--fault-rate", "nan"},
        {"--fault-rate", "1.5"}, {"--watchdog-timeout-mult", "inf"},
        {"--watchdog-timeout-mult", "0"}, {"--watchdog-retries", "-1"}, {"--scheduler", "fast"},
        {"--fault-plan", "/nonexistent/plan"}, {"--fault-seed"}}) {
    soc::RunSpec spec;
    EXPECT_EQ(offer(bad, &spec).front(), soc::RunFlag::kBad) << bad[0];
    EXPECT_EQ(spec.shards, 1u);
    EXPECT_DOUBLE_EQ(spec.fault_plan.rate, 0.0);
    EXPECT_DOUBLE_EQ(spec.watchdog_timeout_mult, 1.0);
  }
  soc::RunSpec spec;
  EXPECT_EQ(offer({"--jobs"}, &spec).front(), soc::RunFlag::kNotMine);
  // The slot engine is the only stride data path; there is no --soa to
  // select it, so the tools reject it as an unknown flag.
  EXPECT_EQ(offer({"--soa"}, &spec).front(), soc::RunFlag::kNotMine);
  EXPECT_EQ(offer({"scenario.txt"}, &spec).front(), soc::RunFlag::kNotMine);
}

TEST(RunJob, ReportsAnUnwritableTraceWithoutLosingTheReport) {
  soc::RunSpec spec;
  spec.label = "job";
  spec.scenario = soc::stress_scenario(2, 2);
  spec.scenario.run_cycles = 2000;
  std::string trace_error;
  const analysis::NetworkReport r =
      soc::run_job(spec, "/nonexistent-dir/job.trace.json", &trace_error);
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.label, "job");
  EXPECT_NE(trace_error.find("/nonexistent-dir/job.trace.json"), std::string::npos);
}

} // namespace
