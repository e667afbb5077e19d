// daelite_sim — command-line scenario driver.
//
//   daelite_sim <scenario file> [--vcd out.vcd] [--json out.json]
//               [--trace out.trace.json] [--per-connection] [--quiet]
//               [RunSpec flags]
//
// A batch of one: the scenario runs through soc::run_job, the path every
// daelite_batch job takes — dimension (choosing the wheel size unless the
// scenario pins one), instantiate the daelite network, configure every
// connection through the broadcast tree, drive traffic, measure — and the
// bandwidth / latency report plus schedule utilization is printed. Exit 0
// when every contract is met and nothing dropped, 1 otherwise, 2 on usage
// or input errors. --json writes the metrics document daelite_batch emits
// per job, --trace a Chrome trace_event file (chrome://tracing or
// Perfetto), --vcd waveforms, --per-connection the per-connection latency
// quantile table. The RunSpec flags (--scheduler, --shards, the
// --fault-*, --recover/--preempt/--compact and --watchdog-* flags) are
// the grammar daelite_batch shares: soc::parse_run_flag in
// src/soc/runner.hpp, with the flag table in docs/ci.md.

#include <fstream>
#include <iostream>
#include <memory>

#include "daelite/vcd_probes.hpp"
#include "sim/json.hpp"
#include "sim/parse.hpp"
#include "soc/runner.hpp"

using namespace daelite;

namespace {

int usage() {
  std::cerr << "usage: daelite_sim <scenario file> [--vcd out.vcd] [--json out.json]\n"
               "                   [--trace out.trace.json] [--per-connection] [--quiet]\n"
               "                   [RunSpec flags]\n"
            << soc::kRunFlagUsage
            << "see src/soc/scenario.hpp for the scenario grammar and\n"
               "src/sim/fault.hpp for the fault-plan grammar\n";
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  std::string scenario_path;
  std::string vcd_path;
  std::string json_path;
  std::string trace_path;
  bool per_connection = false;
  bool quiet = false;
  soc::RunSpec spec;
  sim::Args args("daelite_sim", argc, argv);
  while (args.next()) {
    const soc::RunFlag shared = soc::parse_run_flag(args, &spec);
    if (shared == soc::RunFlag::kBad) return 2;
    if (shared == soc::RunFlag::kTaken) continue;
    std::string* path = args.is("--vcd")     ? &vcd_path
                        : args.is("--json")  ? &json_path
                        : args.is("--trace") ? &trace_path
                                             : nullptr;
    if (path != nullptr) {
      const char* v = args.value();
      if (v == nullptr) return 2;
      *path = v;
    } else if (args.is("--per-connection")) {
      per_connection = true;
    } else if (args.is("--quiet")) {
      quiet = true;
    } else if (args.arg().starts_with('-')) {
      return usage();
    } else if (!scenario_path.empty()) {
      args.fail("one scenario file per run, got '" + scenario_path + "' and '" +
                std::string(args.arg()) + "' (daelite_batch runs several)");
      return 2;
    } else {
      scenario_path = args.arg();
    }
  }
  if (scenario_path.empty()) return usage();

  std::string error;
  auto scenario = soc::parse_scenario_file(scenario_path, &error);
  if (!scenario) {
    std::cerr << "daelite_sim: " << error << "\n";
    return 2;
  }
  spec.label = scenario_path;
  spec.scenario = std::move(*scenario);

  // VCD probes attach once the network exists; the writer and sampler live
  // here so they survive until the run finishes.
  std::ofstream vcd_os;
  std::unique_ptr<sim::VcdWriter> vcd;
  std::unique_ptr<hw::VcdSampler> sampler;
  if (!vcd_path.empty()) {
    vcd_os.open(vcd_path);
    if (!vcd_os) {
      std::cerr << "daelite_sim: cannot open " << vcd_path << "\n";
      return 2;
    }
    spec.on_network = [&](sim::Kernel& kernel, hw::DaeliteNetwork& net) {
      vcd = std::make_unique<sim::VcdWriter>(vcd_os);
      hw::attach_network_probes(*vcd, net);
      sampler = std::make_unique<hw::VcdSampler>(kernel, *vcd);
    };
  }

  std::string trace_error;
  const analysis::NetworkReport report = soc::run_job(std::move(spec), trace_path, &trace_error);
  if (!report.error.empty()) {
    std::cerr << "daelite_sim: " << report.error << "\n";
    return 1;
  }
  if (!quiet) analysis::print_report(std::cout, report);
  if (per_connection) analysis::print_connection_latency(std::cout, report);

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "daelite_sim: cannot open " << json_path << "\n";
      return 2;
    }
    os << report.to_json().dump(2) << "\n";
  }
  if (!trace_error.empty()) {
    std::cerr << "daelite_sim: " << trace_error << "\n";
    return 2;
  }
  return report.ok ? 0 : 1;
}
