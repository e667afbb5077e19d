#pragma once
// Seeded inputs of the three benchmark workloads. The benchmark owns the
// seed; the program under test only ever sees what is generated here — a
// scenario text, a fault plan, or churn options — so the same seed always
// hands the program byte-identical inputs.
//
// Why these three, and which layer each loads or bypasses:
//
//  sim_saturated  8x8 mesh, 28 unicast + 4 multicast saturated connections,
//                 200k cycles. The kernel, the data path (routers, NIs) and
//                 the runner's per-cycle NI pump do nearly all the work; the
//                 allocator runs one dimensioning pass. Data-path, pump and
//                 kernel-dispatch changes show here; allocator changes must
//                 not.
//  sim_recovery   The same generator with guaranteed / standard /
//                 best-effort classes and timed `kill data@L` faults on
//                 router-to-router links the dimensioned allocation routes
//                 guaranteed traffic over, so every kill forces a repair.
//                 Recovery, preemption and compaction are on. Adds the fault
//                 injector and health monitor to the serial set, config-tree
//                 streams under traffic, and the live allocator mid-run. A
//                 speed-up of the clean path that costs the recovery path
//                 shows here.
//  churn_qos      run_churn on an 8x8 mesh, 32 slots, 100k requests:
//                 Poisson arrivals at 0.003/cycle, gt 0.2 / be 0.5 class
//                 mix, preemption on, compaction every 5000 requests,
//                 incremental allocator. Path search, slot search,
//                 admission, plan_preemption and compaction do all the work;
//                 no simulation kernel runs. Allocator changes show here;
//                 data-path changes must not.
//
// The sim generators keep the amount of work independent of the seed: every
// seed draws the same number of connections with the same hop-distance
// multiset and the same bandwidths, so host time differs between seeds only
// by where traffic lands, not by how much there is.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/churn.hpp"
#include "sim/fault.hpp"
#include "soc/runner.hpp"
#include "topology/graph.hpp"

namespace perfbench {

enum class Workload { kSimSaturated, kSimRecovery, kChurnQos };

std::optional<Workload> parse_workload(std::string_view name);
std::string_view workload_name(Workload w);
inline bool is_sim(Workload w) { return w != Workload::kChurnQos; }

/// The seed later claims are measured on, and a held-out seed they must
/// also hold on (never used while tuning a change).
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7919;

/// Generated inputs of a sim workload.
struct SimInputs {
  std::string scenario_text;                   ///< a scenario file (soc/scenario.hpp grammar)
  std::string fault_plan_text;                 ///< a fault-plan file; empty for sim_saturated
  std::vector<daelite::topo::LinkId> kill_links; ///< targets of the plan's kill directives
};

SimInputs make_sim_inputs(Workload w, std::uint64_t seed);

/// Parse generated inputs into the RunSpec the benchmark hands to
/// soc::run_scenario. Every RunSpec option not set by the workload keeps
/// its default (stride scheduler, no shards, no SoA, no tracer).
/// `with_faults = false` drops the fault plan and recovery — the
/// fault-free twin of sim_recovery the recovery overhead is measured
/// against. Returns nullopt (and the diagnostic) on a generator bug.
std::optional<daelite::soc::RunSpec> make_run_spec(Workload w, const SimInputs& in,
                                                   bool with_faults, std::string* error);

/// churn_qos: topology and wheel, and the run options for a seed.
inline constexpr int kChurnMeshSide = 8;
inline constexpr std::uint32_t kChurnSlots = 32;
daelite::alloc::ChurnRunOptions make_churn_options(std::uint64_t seed);

/// Links the dimensioned allocation of a scenario routes data over
/// (request and response routes), ascending — the kill-target universe,
/// and what the self-tests check every target against.
std::vector<daelite::topo::LinkId> routed_links(const std::string& scenario_text);

} // namespace perfbench
