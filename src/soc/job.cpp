// The tools' shared front end for one RunSpec: its flag grammar and the
// one path that runs a job (see soc/runner.hpp).

#include <exception>
#include <memory>

#include "sim/parse.hpp"
#include "sim/trace.hpp"
#include "sim/trace_sink.hpp"
#include "soc/runner.hpp"

namespace daelite::soc {

analysis::NetworkReport run_job(RunSpec spec, const std::string& trace_path,
                                std::string* trace_error) {
  std::unique_ptr<sim::Tracer> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<sim::Tracer>();
    spec.tracer = tracer.get();
  }
  analysis::NetworkReport report;
  try {
    report = run_scenario(spec);
  } catch (const std::exception& e) {
    report.label = spec.label;
    report.error = std::string("exception: ") + e.what();
  }
  if (tracer != nullptr && !sim::write_chrome_trace_file(trace_path, *tracer))
    *trace_error = "cannot write " + trace_path;
  return report;
}

const char* const kRunFlagUsage =
    "  --scheduler S    kernel cycle loop: stride (default) | reference\n"
    "  --shards N       shard threads inside the simulation (>= 1)\n"
    "  --fault-seed N   seed for fault injection (with --fault-rate/plan)\n"
    "  --fault-rate R   per-word fault probability in [0,1] on every link\n"
    "  --fault-plan F   fault-plan file (see src/sim/fault.hpp)\n"
    "  --recover        arm the self-healing subsystem\n"
    "  --preempt        let guaranteed repairs preempt best-effort connections\n"
    "  --compact        re-pack non-guaranteed slots after every recovery wave\n"
    "  --watchdog-retries N       config-watchdog retry budget\n"
    "  --watchdog-timeout-mult X  scale on the derived watchdog timeout (> 0)\n";

RunFlag parse_run_flag(sim::Args& args, RunSpec* spec) {
  bool ok = true;
  if (args.is("--scheduler")) {
    const char* v = args.value();
    if (v == nullptr) return RunFlag::kBad;
    const std::string_view s = v;
    if (s == "stride" || s == "reference")
      spec->scheduler = s == "stride" ? sim::Scheduler::kStride : sim::Scheduler::kReference;
    else
      ok = args.bad("stride|reference", s);
  } else if (args.is("--shards")) {
    ok = args.value(&spec->shards, "an integer >= 1", [](std::uint32_t n) { return n >= 1; });
  } else if (args.is("--fault-seed")) {
    ok = args.value(&spec->fault_plan.seed, "an integer");
  } else if (args.is("--fault-rate")) {
    ok = args.value(&spec->fault_plan.rate, "a number in [0,1]",
                    [](double r) { return r >= 0.0 && r <= 1.0; });
  } else if (args.is("--fault-plan")) {
    const char* v = args.value();
    std::string err;
    ok = v != nullptr &&
         (sim::FaultPlan::parse_file(v, &spec->fault_plan, &err) || args.fail(err));
  } else if (args.is("--recover")) {
    spec->recovery.enabled = true;
  } else if (args.is("--preempt")) {
    spec->recovery.preempt_best_effort = true;
  } else if (args.is("--compact")) {
    spec->recovery.compact_after_recovery = true;
  } else if (args.is("--watchdog-retries")) {
    std::uint32_t n = 0;
    ok = args.value(&n, "an integer >= 0");
    if (ok) spec->watchdog_retries = n;
  } else if (args.is("--watchdog-timeout-mult")) {
    ok = args.value(&spec->watchdog_timeout_mult, "a number > 0",
                    [](double x) { return x > 0.0; });
  } else {
    return RunFlag::kNotMine;
  }
  return ok ? RunFlag::kTaken : RunFlag::kBad;
}

} // namespace daelite::soc
