#pragma once
// End-to-end scenario execution as a library call.
//
// Everything tools/daelite_sim.cpp used to do inline — dimension,
// instantiate, configure through the broadcast tree, drive saturated
// traffic, measure — factored out so the batch runner (tools/
// daelite_batch.cpp) can execute many RunSpecs concurrently, one Kernel
// per job. A RunSpec is a Scenario plus the sweep axes a batch varies:
// slot-table size, allocation-order seed, and run length.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "analysis/network_report.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "soc/scenario.hpp"

namespace daelite::hw {
class DaeliteNetwork;
}

namespace daelite::sim {
class Args;
class Tracer;
} // namespace daelite::sim

namespace daelite::soc {

/// Self-healing configuration for run_scenario. When enabled, the runner
/// attaches a HealthMonitor (src/soc/health.hpp) behind the fault
/// injector, quarantines links the monitor declares dead, and repairs the
/// affected connections mid-run: drain, tear down, re-allocate around the
/// quarantine, re-set up through the broadcast tree while traffic keeps
/// flowing, and time detection-to-restored in cycles. Every reservation
/// change goes through one alloc::ChurnService over the live allocator —
/// the runner is its second caller, next to run_churn. Results land in
/// the report's `recovery` section; disabled runs are byte-identical to a
/// build without recovery support.
struct RecoveryOptions {
  bool enabled = false;
  /// HealthMonitor epoch in cycles (0: one TDM wheel) and verdict
  /// thresholds on cumulative per-link evidence (missing flits + on-wire
  /// parity errors).
  std::uint32_t epoch_cycles = 0;
  std::uint64_t suspect_threshold = 1;
  std::uint64_t dead_threshold = 3;
  /// A connection whose destinations accumulate this many corrupt + lost
  /// words is repaired even without a dead-link verdict, provided the
  /// monitor can localize a suspect link on its route to quarantine.
  std::uint64_t integrity_threshold = 64;
  /// Give up on a repair whose tear-down/set-up stream has not drained
  /// after this many cycles (or when the config watchdog aborts it).
  sim::Cycle reconfig_timeout = 100000;
  /// Preemptive healing: when re-allocation around a quarantine finds no
  /// capacity for a guaranteed connection, tear down best-effort
  /// connections along a min-victims candidate path and retry, instead of
  /// declaring the guaranteed connection dead — ChurnService::reroute
  /// under AdmissionControl::preempt_best_effort. Victims are counted per
  /// class in the report's `service` section; each preempting repair is
  /// one preemption event, traced as one kPreemptBegin.
  bool preempt_best_effort = false;
  /// Slot compaction after every recovery wave: one ChurnService::compact
  /// pass re-packs live non-guaranteed connections onto lower injection
  /// slots, and each accepted move is retired and reopened like a repair.
  /// Traced as kCompactionPass with the runner's move digest.
  bool compact_after_recovery = false;
};

struct RunSpec {
  std::string label;  ///< job name carried into the report ("" -> scenario summary)
  Scenario scenario;
  std::optional<std::uint32_t> slots_override;   ///< pin the wheel size
  std::optional<sim::Cycle> run_cycles_override; ///< shorten/lengthen the run
  /// seed != 0 shuffles the order connections are presented to the
  /// allocator (deterministically) — slot assignment is order-dependent,
  /// so seeds explore the allocation design space. seed == 0 keeps file
  /// order.
  std::uint64_t seed = 0;
  /// Cycle-loop implementation for the job's kernel. The stride scheduler
  /// and the per-cycle reference produce byte-identical reports and traces
  /// (a ctest diffs them); kReference exists as the oracle for that check.
  sim::Scheduler scheduler = sim::Scheduler::kStride;
  /// Shard count for single-run parallelism (stride scheduler only):
  /// > 1 partitions the mesh's routers and NIs into contiguous node bands
  /// whose slot engines tick/commit concurrently inside this one kernel
  /// (DaeliteNetwork::Options::shards). Reports and traces are
  /// byte-identical for every value and under kReference — the shard
  /// count is deliberately NOT recorded in the report, so CI can diff
  /// --shards N against --scheduler reference outputs.
  std::uint32_t shards = 1;
  /// Invoked once the network exists, before configuration — attach VCD
  /// probes or extra instrumentation here. Objects the hook creates must
  /// outlive the run_scenario() call.
  std::function<void(sim::Kernel&, hw::DaeliteNetwork&)> on_network;
  /// Non-null: attach this tracer to the job's kernel. Every hardware
  /// element records into it and the runner adds configure/traffic phase
  /// spans; export with sim::write_chrome_trace(). Must outlive the call.
  sim::Tracer* tracer = nullptr;
  /// Enabled: the runner builds a per-job FaultInjector over every data and
  /// configuration link, appends one verification read per connection (so
  /// the response path and watchdog are exercised), and fills the report's
  /// `health` section. Each job owns its injector, so fault streams are
  /// reproducible across --jobs counts.
  sim::FaultPlan fault_plan;
  /// Self-healing: see RecoveryOptions.
  RecoveryOptions recovery;
  /// ConfigModule watchdog overrides (daelite/network.hpp Options): the
  /// retry budget for a timed-out request, and a scale on the
  /// depth-derived response timeout. Defaults keep the network's own
  /// derivation, so existing runs are untouched.
  std::optional<std::uint32_t> watchdog_retries;
  double watchdog_timeout_mult = 1.0;
};

/// Execute one spec to completion. Never throws on scenario-level problems:
/// dimensioning or build failures come back as a report with `ok == false`
/// and the diagnostic in `error`.
analysis::NetworkReport run_scenario(const RunSpec& spec);

/// One job end to end, the path daelite_sim and every daelite_batch job
/// share: run_scenario with the job's own tracer when `trace_path` is
/// non-empty, an exception folded into `report.error`, and the Chrome
/// trace written to `trace_path`. A trace file that cannot be written
/// sets `*trace_error`; the report stands either way.
analysis::NetworkReport run_job(RunSpec spec, const std::string& trace_path,
                                std::string* trace_error);

/// The command-line grammar of RunSpec, shared by daelite_sim and
/// daelite_batch (usage text: kRunFlagUsage):
///   --scheduler stride|reference   --shards N (>= 1)
///   --fault-seed N   --fault-rate R (in [0,1])   --fault-plan FILE
///   --recover   --preempt   --compact
///   --watchdog-retries N   --watchdog-timeout-mult X (> 0)
/// A --fault-plan file replaces the whole plan, so --fault-seed and
/// --fault-rate count only when given after it. kNotMine: the current
/// argument is none of these flags; kBad: a diagnostic is on stderr.
enum class RunFlag { kNotMine, kTaken, kBad };
RunFlag parse_run_flag(sim::Args& args, RunSpec* spec);
extern const char* const kRunFlagUsage;

} // namespace daelite::soc
