// daelite_batch — parallel batch experiment runner.
//
//   daelite_batch [options] [RunSpec flags] <scenario file>...
//
//   --jobs N           worker threads (default: hardware concurrency)
//   --out FILE         write the JSON results document (default: results.json)
//   --slots A,B,C      sweep wheel sizes (each in [1,64]): run every
//                      scenario once per value
//   --seeds K          sweep allocation-order seeds 1..K (default: one run, seed 0)
//   --mesh WxHs,...    add synthetic corner-stress scenarios on these mesh
//                      sizes (e.g. 3x3,4x4; suffix 't' for torus: 4x4t)
//   --run-cycles C     override the run length of every job
//   --trace DIR        write one Chrome trace_event file per job into DIR
//   --per-connection   print per-job connection latency tables on stderr
//   --list             print the expanded job list and exit
//   --quiet            suppress per-job progress lines on stderr
//
// The RunSpec flags (--scheduler, --shards, the --fault-*,
// --recover/--preempt/--compact and --watchdog-* flags) are the grammar
// daelite_sim shares — soc::parse_run_flag in src/soc/runner.hpp, flag
// table in docs/ci.md — and apply to every job. --shards composes with
// --jobs (N shard workers inside each concurrently running job); like
// --scheduler it leaves the output byte-identical.
//
// The cross product of {scenarios + synthetic meshes} x {slots} x {seeds}
// expands into independent jobs, each run by soc::run_job (the path
// daelite_sim takes) on its own Kernel in the sim::ThreadPool. Job order —
// and therefore the emitted document — is fixed at expansion time, so
// `--jobs 8` output is byte-identical to `--jobs 1` (wall-clock timing
// goes to stderr only, never into the JSON).
// Exit status: 0 if every job met its contracts, 1 otherwise, 2 on usage
// or spec errors.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <vector>

#include "sim/json.hpp"
#include "sim/parallel.hpp"
#include "sim/parse.hpp"
#include "soc/runner.hpp"

using namespace daelite;

namespace {

int usage() {
  std::cerr << "usage: daelite_batch [options] [RunSpec flags] <scenario file>...\n"
               "  --jobs N         worker threads (default: hardware concurrency)\n"
               "  --out FILE       JSON results document (default: results.json)\n"
               "  --slots A,B,C    sweep wheel sizes (each in [1,64]) across every scenario\n"
               "  --seeds K        sweep allocation-order seeds 1..K\n"
               "  --mesh WxH[t],.. add synthetic corner-stress scenarios (t = torus)\n"
               "  --run-cycles C   override run length for every job\n"
               "  --trace DIR      one Chrome trace_event file per job in DIR\n"
               "  --per-connection per-job connection latency tables on stderr\n"
               "  --list           print the expanded job list and exit\n"
               "  --quiet          no per-job progress on stderr\n"
               "RunSpec flags, applied to every job:\n"
            << soc::kRunFlagUsage;
  return 2;
}

/// Job label -> file name: anything outside [A-Za-z0-9._-] becomes '_', so
/// "video[slots=16]" maps to the same file at any --jobs value.
std::string trace_file_name(const std::string& label) {
  std::string s = label;
  for (char& c : s)
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' && c != '_' && c != '.')
      c = '_';
  return s + ".trace.json";
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ','))
    if (!tok.empty()) out.push_back(tok);
  return out;
}

std::string base_name(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string b = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = b.find_last_of('.');
  if (dot != std::string::npos && dot > 0) b = b.substr(0, dot);
  return b;
}

} // namespace

int main(int argc, char** argv) {
  struct Base {
    std::string name;
    soc::Scenario scenario;
  };
  std::size_t jobs = sim::default_job_count();
  std::string out_path = "results.json";
  std::vector<std::uint32_t> slot_sweep;
  std::uint64_t seeds = 0;
  std::vector<Base> meshes;
  std::optional<sim::Cycle> run_cycles;
  soc::RunSpec shared; ///< the RunSpec flags, copied into every job
  std::string trace_dir;
  bool per_connection = false;
  bool list_only = false;
  bool quiet = false;
  std::vector<std::string> scenario_paths;

  sim::Args args("daelite_batch", argc, argv);
  while (args.next()) {
    const soc::RunFlag flag = soc::parse_run_flag(args, &shared);
    if (flag == soc::RunFlag::kBad) return 2;
    if (flag == soc::RunFlag::kTaken) continue;
    bool ok = true;
    if (args.is("--jobs")) {
      ok = args.value(&jobs, "an integer");
      jobs = std::max<std::size_t>(jobs, 1);
    } else if (args.is("--out") || args.is("--trace")) {
      const char* v = args.value();
      if (v == nullptr) return 2;
      (args.is("--out") ? out_path : trace_dir) = v;
    } else if (args.is("--slots")) {
      const char* v = args.value();
      if (v == nullptr) return 2;
      for (const std::string& tok : split_csv(v)) {
        std::uint32_t s = 0;
        if (!sim::parse_slots(tok, &s)) {
          args.bad("wheel sizes in [1,64]", tok);
          return 2;
        }
        slot_sweep.push_back(s);
      }
    } else if (args.is("--seeds")) {
      ok = args.value(&seeds, "an integer");
    } else if (args.is("--mesh")) {
      const char* v = args.value();
      if (v == nullptr) return 2;
      for (const std::string& m : split_csv(v)) {
        int w = 0, h = 0;
        bool torus = false;
        if (!sim::parse_extent(m, &w, &h, &torus) || w < 2 || h < 2) {
          args.bad("WxH[t] with W,H >= 2", m);
          return 2;
        }
        meshes.push_back({"stress_" + m, soc::stress_scenario(w, h, torus)});
      }
    } else if (args.is("--run-cycles")) {
      sim::Cycle c = 0;
      ok = args.value(&c, "an integer");
      run_cycles = c;
    } else if (args.is("--per-connection")) {
      per_connection = true;
    } else if (args.is("--list")) {
      list_only = true;
    } else if (args.is("--quiet")) {
      quiet = true;
    } else if (args.arg().starts_with('-')) {
      return usage();
    } else {
      scenario_paths.emplace_back(args.arg());
    }
    if (!ok) return 2;
  }
  if (scenario_paths.empty() && meshes.empty()) return usage();

  // --- Expand the job matrix (deterministic order) ---------------------------
  std::vector<Base> bases;
  for (const std::string& path : scenario_paths) {
    std::string error;
    auto sc = soc::parse_scenario_file(path, &error);
    if (!sc) {
      std::cerr << "daelite_batch: " << error << "\n";
      return 2;
    }
    bases.push_back({base_name(path), std::move(*sc)});
  }
  bases.insert(bases.end(), meshes.begin(), meshes.end());

  std::vector<std::optional<std::uint32_t>> slot_list(slot_sweep.begin(), slot_sweep.end());
  if (slot_list.empty()) slot_list.push_back(std::nullopt);
  std::vector<std::uint64_t> seed_list;
  for (std::uint64_t k = 1; k <= seeds; ++k) seed_list.push_back(k);
  if (seed_list.empty()) seed_list.push_back(0);
  std::vector<soc::RunSpec> specs;
  for (const Base& b : bases) {
    for (const auto& slots : slot_list) {
      for (std::uint64_t seed : seed_list) {
        soc::RunSpec spec = shared;
        spec.scenario = b.scenario;
        spec.slots_override = slots;
        spec.run_cycles_override = run_cycles;
        spec.seed = seed;
        std::string label = b.name;
        if (slots) label += "[slots=" + std::to_string(*slots) + "]";
        if (seed) label += "[seed=" + std::to_string(seed) + "]";
        spec.label = std::move(label);
        specs.push_back(std::move(spec));
      }
    }
  }

  if (list_only) {
    for (const auto& s : specs) std::cout << s.label << "\n";
    return 0;
  }

  // --- Run -------------------------------------------------------------------
  if (!trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    if (ec) {
      std::cerr << "daelite_batch: cannot create " << trace_dir << ": " << ec.message() << "\n";
      return 2;
    }
  }
  std::mutex progress_mu;
  std::size_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = sim::parallel_map<analysis::NetworkReport>(
      specs.size(), jobs, [&](std::size_t i) {
        // Each job writes its own trace file, named by its label, so trace
        // output is identical at any --jobs value.
        const soc::RunSpec& spec = specs[i];
        std::string trace_error;
        analysis::NetworkReport r = soc::run_job(
            spec, trace_dir.empty() ? "" : trace_dir + "/" + trace_file_name(spec.label),
            &trace_error);
        if (!trace_error.empty()) {
          std::lock_guard<std::mutex> lock(progress_mu);
          std::cerr << "daelite_batch: " << trace_error << "\n";
        }
        if (!quiet || per_connection) {
          std::lock_guard<std::mutex> lock(progress_mu);
          if (!quiet)
            std::cerr << "[" << ++done << "/" << specs.size() << "] " << r.label << ": "
                      << (r.ok ? "ok" : r.error.empty() ? "CONTRACT VIOLATED" : r.error) << "\n";
          if (per_connection && r.error.empty()) analysis::print_connection_latency(std::cerr, r);
        }
        return r;
      });
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0);

  // --- Emit (job order == expansion order: independent of --jobs) ------------
  std::size_t ok_count = 0;
  sim::JsonValue doc = sim::JsonValue::object();
  doc["tool"] = "daelite_batch";
  doc["schema_version"] = 1;
  sim::JsonValue jruns = sim::JsonValue::array();
  for (const auto& r : results) {
    if (r.ok) ++ok_count;
    jruns.push_back(r.to_json());
  }
  doc["runs"] = std::move(jruns);
  sim::JsonValue summary = sim::JsonValue::object();
  summary["total"] = results.size();
  summary["ok"] = ok_count;
  summary["failed"] = results.size() - ok_count;
  doc["summary"] = std::move(summary);

  std::ofstream os(out_path);
  if (!os) {
    std::cerr << "daelite_batch: cannot open " << out_path << "\n";
    return 2;
  }
  os << doc.dump(2) << "\n";

  if (!quiet)
    std::cerr << "daelite_batch: " << ok_count << "/" << results.size() << " ok, " << jobs
              << " workers, " << elapsed.count() << " ms -> " << out_path << "\n";
  return ok_count == results.size() ? 0 : 1;
}
