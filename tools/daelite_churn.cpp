// daelite_churn — drive the online allocation service (alloc/churn.hpp)
// with an open-loop set-up / tear-down / modify stream and emit a
// deterministic JSON report.
//
//   daelite_churn [options]
//   --mesh WxH[t]      topology (t = torus), default 8x8
//   --slots S          TDM wheel size in [1,64], default 32
//   --requests N       operations to field, default 100000
//   --seed X           workload seed, default 1
//   --arrival-rate R   set-ups per simulated cycle, default 0.001
//   --hold C           mean connection lifetime in cycles, default 200000
//   --modify-frac F    fraction of arrivals that modify, default 0.1
//   --multicast-frac F fraction of set-ups with >1 destination, default 0.1
//   --min-slots / --max-slots   requested bandwidth range, default 1..4
//   --max-hops H       admission: longest admissible route (0 = none)
//   --max-latency C    admission: worst-case latency bound (0 = none)
//   --max-util U       admission: refuse set-ups past this utilization
//   --mode M           incremental | scratch | both (default incremental);
//                      `both` replays the same stream against a fresh
//                      from-scratch allocator and fails (exit 1) unless the
//                      decision digests match — the equivalence oracle.
//   --json PATH        write the report document to PATH
//   --quick            small preset (4x4, 5000 requests) for CI smoke;
//                      explicit --mesh / --requests override it
//   --quiet            suppress the text summary
//
// QoS / graceful-degradation options (any of these marks the report
// qos_enabled and adds the per-class sections):
//   --gt-frac F        fraction of set-ups that are guaranteed, default 0
//   --be-frac F        fraction of set-ups that are best-effort, default 0
//   --preempt          guaranteed set-ups may preempt best-effort victims
//   --quota C:N[:U]    per-class quota (C = guaranteed|standard|best_effort,
//                      N = max live, 0 = unbounded; U = max utilization);
//                      repeatable, one class per flag
//   --overload         arm the bounded retry queue for rejected set-ups
//   --pending N        retry-queue capacity, default 64
//   --max-attempts N   total tries per set-up including the first, default 3
//   --backoff C        first retry delay in cycles, default 2000
//   --jitter F         uniform extra fraction of the delay, default 0.5
//   --compact-every N  background compaction pass every N requests (0 = off)
//   --compact-moves N  move budget per compaction pass, default 256
//   --quarantine A:L   quarantine link L before request index A; repeatable.
//                      `--quarantine A:clear` clears the whole set at A.
//
// Values parse whole-token through sim/parse.hpp and the shared
// sim::Args diagnostics (the daelite_sim / daelite_batch front end): a
// malformed, out-of-range or non-finite value is exit 2.
//
// The report contains no wall-clock data: the same invocation is
// byte-identical run to run (CI pins this with cmp), and identical
// between --mode incremental and --mode scratch.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "alloc/churn.hpp"
#include "sim/json.hpp"
#include "sim/parse.hpp"
#include "topology/generators.hpp"

namespace {

using namespace daelite;

int usage() {
  std::cerr << "usage: daelite_churn [--mesh WxH[t]] [--slots S] [--requests N] [--seed X]\n"
               "                     [--arrival-rate R] [--hold C] [--modify-frac F]\n"
               "                     [--multicast-frac F] [--min-slots A] [--max-slots B]\n"
               "                     [--max-hops H] [--max-latency C] [--max-util U]\n"
               "                     [--mode incremental|scratch|both] [--json PATH]\n"
               "                     [--gt-frac F] [--be-frac F] [--preempt] [--quota C:N[:U]]\n"
               "                     [--overload] [--pending N] [--max-attempts N]\n"
               "                     [--backoff C] [--jitter F]\n"
               "                     [--compact-every N] [--compact-moves N]\n"
               "                     [--quarantine A:L | --quarantine A:clear]\n"
               "                     [--quick] [--quiet]\n";
  return 2;
}

struct MeshSpec {
  int w = 8, h = 8;
  bool torus = false;
};

/// `C:N[:U]` — class, max live, optional max utilization.
bool parse_quota(std::string_view spec, alloc::AdmissionControl* admission) {
  const auto c1 = spec.find(':');
  alloc::ServiceClass cls;
  if (c1 == std::string_view::npos || !alloc::parse_service_class(spec.substr(0, c1), &cls))
    return false;
  const std::string_view rest = spec.substr(c1 + 1);
  const auto c2 = rest.find(':');
  auto& q = admission->quota[static_cast<std::size_t>(cls)];
  if (!sim::parse_int(rest.substr(0, c2), &q.max_live)) return false;
  return c2 == std::string_view::npos ||
         (sim::parse_number(rest.substr(c2 + 1), &q.max_utilization) &&
          q.max_utilization > 0.0 && q.max_utilization <= 1.0);
}

/// `A:L` (quarantine link L before request A) or `A:clear`.
bool parse_quarantine(std::string_view spec, alloc::QuarantineEvent* out) {
  const auto c = spec.find(':');
  if (c == std::string_view::npos || !sim::parse_int(spec.substr(0, c), &out->at_request))
    return false;
  const std::string_view rest = spec.substr(c + 1);
  out->clear = rest == "clear";
  out->link = 0;
  return out->clear || sim::parse_int(rest, &out->link);
}

sim::JsonValue report_to_json(const alloc::ChurnReport& r) {
  sim::JsonValue doc = sim::JsonValue::object();
  sim::JsonValue m = sim::JsonValue::object();
  m["setups"] = r.metrics.setups.value();
  m["admitted"] = r.metrics.admitted.value();
  m["rejected_admission"] = r.metrics.rejected_admission.value();
  m["rejected_no_route"] = r.metrics.rejected_no_route.value();
  m["rejected_fragmentation"] = r.metrics.rejected_fragmentation.value();
  m["teardowns"] = r.metrics.teardowns.value();
  m["modifies"] = r.metrics.modifies.value();
  m["modify_failed_restored"] = r.metrics.modify_failed_restored.value();
  m["rollback_failures"] = r.metrics.rollback_failures.value();
  m["utilization"] = to_json(r.metrics.utilization);
  m["fragmentation"] = to_json(r.metrics.fragmentation);
  m["admitted_hops"] = to_json(r.metrics.admitted_hops);
  doc["metrics"] = m;
  // Hex so the digest survives JSON number-precision round trips.
  char digest[19];
  std::snprintf(digest, sizeof digest, "0x%016llx",
                static_cast<unsigned long long>(r.decision_digest));
  doc["decision_digest"] = std::string(digest);
  doc["final_utilization"] = r.final_utilization;
  doc["final_live"] = static_cast<std::uint64_t>(r.final_live);
  doc["channel_id_watermark"] = static_cast<std::uint64_t>(r.channel_id_watermark);
  sim::JsonValue timeline = sim::JsonValue::array();
  for (const alloc::FragSample& s : r.frag_timeline) {
    sim::JsonValue e = sim::JsonValue::object();
    e["at_request"] = s.at_request;
    e["utilization"] = s.utilization;
    e["fragmentation"] = s.fragmentation;
    timeline.push_back(std::move(e));
  }
  doc["frag_timeline"] = std::move(timeline);
  // QoS sections only when a QoS feature shaped the run, so legacy
  // invocations keep byte-identical documents.
  if (r.qos_enabled) {
    sim::JsonValue svc = sim::JsonValue::object();
    svc["shed_total"] = r.shed_total;
    svc["retry_attempts"] = r.retry_attempts;
    svc["preempted_connections"] = r.preempted_connections;
    svc["compaction_passes"] = r.compaction_passes;
    svc["compaction_moves"] = r.compaction_moves;
    char cdigest[19];
    std::snprintf(cdigest, sizeof cdigest, "0x%016llx",
                  static_cast<unsigned long long>(r.compaction_digest));
    svc["compaction_digest"] = std::string(cdigest);
    sim::JsonValue classes = sim::JsonValue::object();
    for (std::size_t c = 0; c < alloc::kServiceClassCount; ++c) {
      const alloc::ClassStats& s = r.per_class[c];
      sim::JsonValue jc = sim::JsonValue::object();
      jc["setups"] = s.setups;
      jc["admitted"] = s.admitted;
      jc["rejected_admission"] = s.rejected_admission;
      jc["rejected_no_route"] = s.rejected_no_route;
      jc["shed"] = s.shed;
      jc["retries"] = s.retries;
      jc["preempted"] = s.preempted;
      jc["latency_cycles"] = to_json(s.latency_cycles);
      classes[std::string(alloc::service_class_name(static_cast<alloc::ServiceClass>(c)))] =
          std::move(jc);
    }
    svc["per_class"] = std::move(classes);
    doc["service"] = std::move(svc);
  }
  return doc;
}

} // namespace

int main(int argc, char** argv) {
  MeshSpec mesh;
  std::uint32_t slots = 32;
  alloc::ChurnRunOptions run;
  alloc::AdmissionControl admission;
  std::string mode = "incremental";
  std::string json_path;
  bool quiet = false;

  // The --quick preset applies first, so explicit flags override it.
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--quick") continue;
    mesh = {4, 4, false};
    run.requests = 5000;
    run.fragmentation_samples = 16;
  }
  const auto fraction = [](double f) { return f >= 0.0 && f <= 1.0; };
  const auto positive = [](auto v) { return v > 0; };
  sim::Args args("daelite_churn", argc, argv);
  while (args.next()) {
    auto& wl = run.workload;
    bool ok = true;
    if (args.is("--mesh")) {
      ok = args.parse_value("WxH[t] with W,H >= 2", [&](std::string_view v) {
        return sim::parse_extent(v, &mesh.w, &mesh.h, &mesh.torus) && mesh.w >= 2 && mesh.h >= 2;
      });
    } else if (args.is("--slots")) {
      ok = args.parse_value("an integer in [1,64]",
                            [&](std::string_view v) { return sim::parse_slots(v, &slots); });
    } else if (args.is("--quota")) {
      ok = args.parse_value("guaranteed|standard|best_effort:N[:U]",
                            [&](std::string_view v) { return parse_quota(v, &admission); });
    } else if (args.is("--quarantine")) {
      ok = args.parse_value("A:L or A:clear", [&](std::string_view v) {
        alloc::QuarantineEvent qe;
        if (!parse_quarantine(v, &qe)) return false;
        run.quarantine_events.push_back(qe);
        return true;
      });
    } else if (args.is("--mode")) {
      ok = args.parse_value("incremental|scratch|both", [&](std::string_view v) {
        mode = v;
        return mode == "incremental" || mode == "scratch" || mode == "both";
      });
    } else if (args.is("--json")) {
      const char* v = args.value();
      ok = v != nullptr;
      if (ok) json_path = v;
    } else if (args.is("--requests")) {
      ok = args.value(&run.requests, "an integer");
    } else if (args.is("--seed")) {
      ok = args.value(&wl.seed, "an integer");
    } else if (args.is("--arrival-rate")) {
      ok = args.value(&wl.arrival_rate, "a positive number", positive);
    } else if (args.is("--hold")) {
      ok = args.value(&wl.mean_hold_cycles, "a positive number", positive);
    } else if (args.is("--modify-frac")) {
      ok = args.value(&wl.modify_fraction, "a number in [0,1]", fraction);
    } else if (args.is("--multicast-frac")) {
      ok = args.value(&wl.multicast_fraction, "a number in [0,1]", fraction);
    } else if (args.is("--min-slots")) {
      ok = args.value(&wl.min_slots, "a positive integer", positive);
    } else if (args.is("--max-slots")) {
      ok = args.value(&wl.max_slots, "a positive integer", positive);
    } else if (args.is("--max-hops")) {
      ok = args.value(&admission.max_path_hops, "an integer");
    } else if (args.is("--max-latency")) {
      ok = args.value(&admission.max_latency_cycles, "an integer");
    } else if (args.is("--max-util")) {
      ok = args.value(&admission.max_utilization, "a number in (0,1]",
                      [](double u) { return u > 0.0 && u <= 1.0; });
    } else if (args.is("--gt-frac")) {
      ok = args.value(&wl.guaranteed_fraction, "a number in [0,1]", fraction);
    } else if (args.is("--be-frac")) {
      ok = args.value(&wl.best_effort_fraction, "a number in [0,1]", fraction);
    } else if (args.is("--preempt")) {
      admission.preempt_best_effort = true;
    } else if (args.is("--overload")) {
      run.overload.enabled = true;
    } else if (args.is("--pending")) {
      ok = args.value(&run.overload.pending_capacity, "a positive integer", positive);
    } else if (args.is("--max-attempts")) {
      ok = args.value(&run.overload.max_attempts, "a positive integer", positive);
    } else if (args.is("--backoff")) {
      ok = args.value(&run.overload.backoff_cycles, "a positive number", positive);
    } else if (args.is("--jitter")) {
      ok = args.value(&run.overload.jitter, "a number >= 0", [](double j) { return j >= 0.0; });
    } else if (args.is("--compact-every")) {
      ok = args.value(&run.compaction.every, "an integer");
    } else if (args.is("--compact-moves")) {
      ok = args.value(&run.compaction.max_moves, "a positive integer", positive);
    } else if (args.is("--quiet")) {
      quiet = true;
    } else if (!args.is("--quick")) {
      std::cerr << "daelite_churn: unknown argument '" << args.arg() << "'\n";
      return usage();
    }
    if (!ok) return 2;
  }
  if (run.workload.min_slots > run.workload.max_slots) {
    std::cerr << "daelite_churn: --min-slots must be <= --max-slots\n";
    return 2;
  }
  if (run.workload.guaranteed_fraction + run.workload.best_effort_fraction > 1.0) {
    std::cerr << "daelite_churn: --gt-frac + --be-frac must be <= 1\n";
    return 2;
  }
  run.admission = admission;

  const topo::Mesh m = topo::make_mesh(mesh.w, mesh.h, 1, mesh.torus);
  const tdm::TdmParams params = tdm::daelite_params(slots);

  const auto run_mode = [&](bool incremental) {
    alloc::AllocatorOptions ao;
    ao.incremental = incremental;
    alloc::SlotAllocator sa(m.topo, params, ao);
    return alloc::run_churn(sa, run);
  };

  alloc::ChurnReport report = run_mode(mode != "scratch");
  if (mode == "both") {
    const alloc::ChurnReport scratch = run_mode(false);
    if (scratch.decision_digest != report.decision_digest) {
      std::cerr << "daelite_churn: decision digest mismatch between incremental and scratch "
                   "allocators — the modes are supposed to be decision-identical\n";
      return 1;
    }
  }

  if (!quiet) {
    const auto& mm = report.metrics;
    std::cout << "churn: " << run.requests << " ops on " << mesh.w << "x" << mesh.h
              << (mesh.torus ? " torus" : " mesh") << ", " << slots << " slots, mode " << mode
              << "\n  setups " << mm.setups.value() << " (admitted " << mm.admitted.value()
              << ", admission-reject " << mm.rejected_admission.value() << ", no-route "
              << mm.rejected_no_route.value() << " of which fragmentation "
              << mm.rejected_fragmentation.value() << ")\n  teardowns " << mm.teardowns.value()
              << ", modifies " << mm.modifies.value() << " (restored-after-failure "
              << mm.modify_failed_restored.value() << ", rollback failures "
              << mm.rollback_failures.value() << ")\n  final util " << report.final_utilization
              << ", live " << report.final_live << ", id watermark "
              << report.channel_id_watermark << ", fragmentation last "
              << mm.fragmentation.last() << " mean " << mm.fragmentation.mean() << "\n";
    if (report.qos_enabled) {
      std::cout << "  qos: shed " << report.shed_total << ", retries " << report.retry_attempts
                << ", preempted " << report.preempted_connections << ", compaction "
                << report.compaction_moves << " moves in " << report.compaction_passes
                << " passes\n";
      for (std::size_t c = 0; c < alloc::kServiceClassCount; ++c) {
        const alloc::ClassStats& s = report.per_class[c];
        if (s.setups == 0 && s.admitted == 0 && s.shed == 0 && s.preempted == 0) continue;
        std::cout << "    " << alloc::service_class_name(static_cast<alloc::ServiceClass>(c))
                  << ": setups " << s.setups << ", admitted " << s.admitted
                  << ", admission-reject " << s.rejected_admission << ", no-route "
                  << s.rejected_no_route << ", shed " << s.shed << ", retries " << s.retries
                  << ", preempted " << s.preempted << "\n";
      }
    }
  }

  if (!json_path.empty()) {
    sim::JsonValue doc = report_to_json(report);
    doc["tool"] = "daelite_churn";
    doc["mode"] = mode;
    doc["requests"] = run.requests;
    doc["seed"] = run.workload.seed;
    doc["slots"] = slots;
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "daelite_churn: cannot open " << json_path << "\n";
      return 1;
    }
    os << doc.dump(2) << "\n";
  }
  return 0;
}
