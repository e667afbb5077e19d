// daelite_perfbench — the repository benchmark driver.
//
//   daelite_perfbench --workload sim_saturated|sim_recovery|churn_qos
//                     --seed N --seconds S --trace 0|1 [--digests FILE]
//   daelite_perfbench --workload W --seed N --record
//
// --trace 0 times the program's own entry points with tracing off and every
// option at its default: soc::run_scenario (what daelite_sim runs) for the
// sim workloads, alloc::run_churn (what daelite_churn runs) for churn_qos.
// It prints the end-to-end metrics. --trace 1 runs the traced pass
// (traced.hpp) next to an untraced reference and prints the per-layer
// metrics. Either way every timed output is checked (recorded digest,
// run-to-run digest, workload invariants) and the last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}. --record
// prints the digest-table line of one run instead.
//
// "op" in ops_per_s / op_p50_us / op_p99_us is what the workload's user
// waits on: for churn_qos one set-up / tear-down / modify request (its
// latency timed call by call in a second pass over the stream); for the
// sim workloads ops_per_s counts simulated cycles and the op latencies are
// those of one whole use-case set-up (parse, validate, dimension, build,
// configure through the tree), the paper's connection set-up as the
// platform sees it.
//
// Within one invocation the operation is repeated for --seconds and each
// timing is the best repetition (the fastest run, or the lowest per-run
// percentile): on a shared host noise only adds time, and the host
// alternates between fast and slow spells that outlast a repetition, so a
// median of one window lands in whichever spell dominated it. setup_s is
// the median of every set-up sample.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "checks.hpp"
#include "sim/json.hpp"
#include "soc/scenario.hpp"
#include "topology/generators.hpp"
#include "traced.hpp"
#include "workloads.hpp"

using namespace daelite;
using namespace perfbench;

namespace {

struct Args {
  Workload workload = Workload::kSimSaturated;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool record = false;
  std::string digests;
};

int usage(const char* why) {
  std::cerr << "daelite_perfbench: " << why
            << "\nusage: daelite_perfbench --workload sim_saturated|sim_recovery|churn_qos "
               "--seed N --seconds S --trace 0|1 [--digests FILE] [--record]\n";
  return 2;
}

template <typename T>
bool parse_number(const char* s, T* out) {
  const char* end = s + std::strlen(s);
  const auto r = std::from_chars(s, end, *out);
  return r.ec == std::errc{} && r.ptr == end;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Call `once` at least once, and again while the next call, judged by the
/// previous one, would end within `seconds` of the first.
template <typename Once>
void repeat_within(double seconds, Once&& once) {
  const auto start = Clock::now();
  for (;;) {
    const auto t0 = Clock::now();
    once();
    const double last = seconds_since(t0);
    if (seconds_since(start) + last > seconds) return;
  }
}

/// Share of the measured window spent on set-up samples. A sim set-up is
/// also the sim workloads' op, so it gets enough samples for a p99.
constexpr double kSimSetupShare = 0.3;
constexpr double kChurnSetupShare = 0.05;
constexpr std::size_t kMinSetups = 5;

/// Alternate rounds of set-up samples with full runs for `seconds` (at
/// least kMinSetups set-ups and one run), keeping set-up time at `share` of
/// the elapsed time. A run that would end past the window, judged by the
/// previous one, is not started. Interleaving spreads both kinds of sample
/// over the whole window, so a slow spell of the host weighs on both alike.
/// Appends one vector of set-up durations per round.
template <typename SetUp, typename Run>
void interleave(double seconds, double share, SetUp&& setup_once, Run&& run_once,
                std::vector<std::vector<double>>* rounds) {
  const auto start = Clock::now();
  double setup_total = 0.0;
  std::size_t setups = 0;
  double last_run = -1.0; // duration of the previous run; < 0 before the first
  for (;;) {
    rounds->emplace_back();
    while (setups < kMinSetups || setup_total < share * seconds_since(start)) {
      const auto t0 = Clock::now();
      setup_once();
      rounds->back().push_back(seconds_since(t0));
      setup_total += rounds->back().back();
      ++setups;
    }
    if (rounds->back().empty()) rounds->pop_back();
    if (last_run >= 0.0 && seconds_since(start) + last_run > seconds) return;
    const auto t0 = Clock::now();
    run_once();
    last_run = seconds_since(t0);
  }
}

// --- End-to-end metrics --------------------------------------------------------

struct EndToEnd {
  std::vector<double> wall_s, ops_per_s;
  std::vector<std::vector<double>> setup_rounds; ///< set-up durations, per round
  std::vector<double> op_p50_us, op_p99_us;      ///< per repetition (round or run)
  double admit_ratio = 0.0;
  /// Taken after the first full run: later runs only add heap
  /// fragmentation of the benchmark's own making.
  double peak_rss_mb = 0.0;
  /// Simulated outcomes of the last full run (sim workloads), printed with
  /// the end-to-end table; the traced run reports them as per-layer metrics.
  std::vector<Metric> simulated;
};

std::uint64_t report_digest(const analysis::NetworkReport& r) {
  return fnv1a(r.to_json().dump());
}

std::uint64_t restore_cycles_max(const analysis::NetworkReport& r) {
  std::uint64_t worst = 0;
  for (const analysis::RecoveryEvent& e : r.recovery.events)
    worst = std::max<std::uint64_t>(worst, e.latency_cycles());
  return worst;
}

/// Connections still carried at the end of a sim run, over those declared.
double sim_admit_ratio(const analysis::NetworkReport& r) {
  if (r.connections.empty()) return 0.0;
  std::uint64_t dead = 0;
  for (const analysis::ServiceClassOutcome& c : r.service.per_class) dead += c.dead;
  return 1.0 - static_cast<double>(dead) / static_cast<double>(r.connections.size());
}

/// Invariants of one full sim run beyond its digest.
bool sim_run_ok(Workload w, const SimInputs& in, const analysis::NetworkReport& r,
                std::string* why) {
  if (!r.error.empty()) {
    *why = r.error;
    return false;
  }
  if (w == Workload::kSimSaturated) {
    if (!r.ok || r.router_drops != 0 || r.ni_drops != 0 || r.rx_overflow != 0) {
      *why = "saturated run missed a contract or dropped words";
      return false;
    }
    return true;
  }
  if (in.kill_links.empty()) {
    *why = "no kill targets were generated";
    return false;
  }
  for (topo::LinkId l : in.kill_links) {
    if (std::find(r.recovery.quarantined.begin(), r.recovery.quarantined.end(), l) ==
        r.recovery.quarantined.end()) {
      *why = "kill of link " + std::to_string(l) + " triggered no repair";
      return false;
    }
  }
  return true;
}

std::optional<soc::Scenario> parse_text(const std::string& text) {
  std::istringstream is(text);
  return soc::parse_scenario(is, nullptr);
}

bool run_sim_end_to_end(const Args& a, const DigestTable& table, Tally* tally, EndToEnd* e) {
  const SimInputs in = make_sim_inputs(a.workload, a.seed);
  std::string error;
  const auto spec = make_run_spec(a.workload, in, true, &error);
  if (!spec) {
    std::cerr << "daelite_perfbench: " << error << "\n";
    return false;
  }
  const std::string key = std::string(workload_name(a.workload));

  // Set-up: parse, then the same RunSpec with the run length overridden to 0.
  soc::RunSpec setup = *spec;
  setup.run_cycles_override = 0;
  const auto setup_once = [&] {
    auto sc = parse_text(in.scenario_text);
    std::string why = "scenario does not parse";
    if (sc) {
      setup.scenario = std::move(*sc);
      const analysis::NetworkReport r = soc::run_scenario(setup);
      why = r.error;
      tally->check(r.error.empty() && r.cfg_cycles > 0 &&
                       tally->digest_matches(key + " set-up", report_digest(r), std::nullopt,
                                             &why),
                   key + " set-up: " + why);
    } else {
      tally->check(false, key + " set-up: " + why);
    }
  };

  analysis::NetworkReport last;
  const auto run_once = [&] {
    const auto t0 = Clock::now();
    analysis::NetworkReport r = soc::run_scenario(*spec);
    const double s = seconds_since(t0);
    e->wall_s.push_back(s);
    e->ops_per_s.push_back(static_cast<double>(r.run_cycles) / s);
    if (e->peak_rss_mb == 0.0) e->peak_rss_mb = peak_rss_mb();
    std::string why;
    tally->check(sim_run_ok(a.workload, in, r, &why) &&
                     tally->digest_matches(key + " run", report_digest(r), table.find(key, a.seed),
                                           &why),
                 key + " run: " + why);
    last = std::move(r);
  };
  interleave(a.seconds, kSimSetupShare, setup_once, run_once, &e->setup_rounds);

  for (const std::vector<double>& round : e->setup_rounds) {
    e->op_p50_us.push_back(median(round) * 1e6);
    e->op_p99_us.push_back(quantile(round, 0.99) * 1e6);
  }
  e->admit_ratio = sim_admit_ratio(last);
  e->simulated = {
      {"sim_cfg_cycles", static_cast<double>(last.cfg_cycles), "cycles"},
      {"sim_words_delivered", static_cast<double>(last.health.words_delivered), "words"},
      {"sim_restore_cycles_max", static_cast<double>(restore_cycles_max(last)), "cycles"},
      {"soc.recovery_events", static_cast<double>(last.recovery.events.size()), "count"},
  };
  return true;
}

/// churn_qos set-up: the topology, allocator and service.
bool churn_setup_once(const alloc::ChurnRunOptions& o) {
  const topo::Mesh mesh = topo::make_mesh(kChurnMeshSide, kChurnMeshSide);
  alloc::SlotAllocator sa(mesh.topo, tdm::daelite_params(kChurnSlots), churn_allocator_options());
  const alloc::ChurnService service(sa, o.admission);
  return service.live_connections() == 0 && sa.utilization() == 0.0;
}

alloc::ChurnReport churn_once(const alloc::ChurnRunOptions& o, double* wall_s) {
  const topo::Mesh mesh = topo::make_mesh(kChurnMeshSide, kChurnMeshSide);
  alloc::SlotAllocator sa(mesh.topo, tdm::daelite_params(kChurnSlots), churn_allocator_options());
  const auto t0 = Clock::now();
  alloc::ChurnReport r = alloc::run_churn(sa, o);
  *wall_s = seconds_since(t0);
  return r;
}

bool churn_run_ok(const alloc::ChurnReport& r) {
  return r.metrics.rollback_failures.value() == 0 && r.metrics.setups.value() > 0;
}

/// One checked churn repetition: a run_churn stream, then the same stream
/// driven call by call (trace_churn), whose counts must match it.
struct ChurnPass {
  double wall_s = 0.0;
  alloc::ChurnReport report;
  TracedChurn traced;
};

ChurnPass churn_pass(const Args& a, const alloc::ChurnRunOptions& o, const DigestTable& table,
                     Tally* tally) {
  const std::string key = std::string(workload_name(a.workload));
  ChurnPass p;
  p.report = churn_once(o, &p.wall_s);
  const alloc::ChurnReport& r = p.report;
  std::string why = "rollback failures";
  tally->check(churn_run_ok(r) && tally->digest_matches(key + " run", r.decision_digest,
                                                        table.find(key, a.seed), &why),
               key + " run: " + why);

  p.traced = trace_churn(o);
  const TracedChurn& t = p.traced;
  const auto& m = t.metrics;
  tally->check(t.error.empty() && m.setups.value() == r.metrics.setups.value() &&
                   m.admitted.value() == r.metrics.admitted.value() &&
                   m.teardowns.value() == r.metrics.teardowns.value() &&
                   m.modifies.value() == r.metrics.modifies.value() &&
                   m.preemptions.value() == r.metrics.preemptions.value(),
               key + " call-by-call pass: " +
                   (t.error.empty() ? "churn counts differ from the run_churn stream" : t.error));
  return p;
}

bool run_churn_end_to_end(const Args& a, const DigestTable& table, Tally* tally, EndToEnd* e) {
  const alloc::ChurnRunOptions o = make_churn_options(a.seed);
  const std::string key = std::string(workload_name(a.workload));
  const auto setup_once = [&] { tally->check(churn_setup_once(o), key + " set-up"); };
  const auto run_once = [&] {
    const ChurnPass p = churn_pass(a, o, table, tally);
    e->wall_s.push_back(p.wall_s);
    e->ops_per_s.push_back(static_cast<double>(o.requests) / p.wall_s);
    if (e->peak_rss_mb == 0.0) e->peak_rss_mb = peak_rss_mb();
    // Request latency is the service call alone, as run_churn's
    // measure_latency times it, but kept sample by sample: that histogram
    // stops at 2^20 ns, and about 1 % of this stream's requests take longer,
    // so its p99 would read the slowest request instead.
    std::vector<double> us = p.traced.setup.us;
    us.insert(us.end(), p.traced.teardown.us.begin(), p.traced.teardown.us.end());
    us.insert(us.end(), p.traced.modify.us.begin(), p.traced.modify.us.end());
    e->op_p50_us.push_back(quantile(us, 0.50));
    e->op_p99_us.push_back(quantile(us, 0.99));
    e->admit_ratio = static_cast<double>(p.report.metrics.admitted.value()) /
                     static_cast<double>(p.report.metrics.setups.value());
  };
  interleave(a.seconds, kChurnSetupShare, setup_once, run_once, &e->setup_rounds);
  return true;
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}
double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::vector<double> flatten(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> all;
  for (const std::vector<double>& r : rounds) all.insert(all.end(), r.begin(), r.end());
  return all;
}

/// Timings are the best repetition of the window: on a shared host noise
/// only ever adds time, and the host's slow spells outlast a repetition.
/// setup_s is the median of every set-up sample.
std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  const std::vector<double> setups = flatten(e.setup_rounds);
  return {
      {"wall_s", min_of(e.wall_s), "s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", e.peak_rss_mb, "MB"},
      {"ops_per_s", max_of(e.ops_per_s), "1/s"},
      {"op_p50_us", min_of(e.op_p50_us), "us"},
      {"op_p99_us", min_of(e.op_p99_us), "us"},
      {"admit_ratio", e.admit_ratio, "ratio"},
  };
}

// --- Per-layer metrics ---------------------------------------------------------

struct LayerDef {
  const char* name;
  const char* unit;
  const char* moves; ///< the end-to-end metric it should move, and where
};

// Every per-layer metric, in print order. A layer a workload does not run
// reports 0 there.
constexpr LayerDef kLayers[] = {
    {"soc.parse_ms", "ms", "setup_s (sim_*)"},
    {"alloc.dimension_ms", "ms", "setup_s (sim_*)"},
    {"daelite.build_ms", "ms", "setup_s, peak_rss_mb (sim_*)"},
    {"daelite.configure_ms", "ms", "setup_s (sim_*)"},
    {"daelite.cfg_words", "count", "setup_s (sim_*)"},
    {"daelite.configure_ns_per_word", "ns", "setup_s (sim_*)"},
    {"sim.steps", "count", "wall_s (sim_saturated, sim_recovery)"},
    {"sim.step_ms", "ms", "wall_s (sim_saturated, sim_recovery)"},
    {"sim.step_slot_ms", "ms", "wall_s (sim_saturated, sim_recovery)"},
    {"sim.step_mid_ms", "ms", "wall_s (sim_saturated, sim_recovery)"},
    {"soc.pump_ms", "ms", "wall_s (sim_saturated, sim_recovery)"},
    {"daelite.ni.tx_push_calls", "count", "wall_s (sim_saturated, sim_recovery)"},
    {"daelite.ni.tx_push_accept_ratio", "ratio", "wall_s (sim_saturated, sim_recovery)"},
    {"daelite.ni.rx_pop_calls", "count", "wall_s (sim_saturated, sim_recovery)"},
    {"daelite.ni.rx_pop_hit_ratio", "ratio", "wall_s (sim_saturated, sim_recovery)"},
    {"daelite.ni_lookups", "count", "wall_s (sim_saturated, sim_recovery)"},
    {"analysis.report_ms", "ms", "wall_s (sim_*)"},
    {"soc.recovery_overhead_ms", "ms", "wall_s, sim_restore_cycles_max (sim_recovery)"},
    {"soc.recovery_events", "count", "wall_s, sim_restore_cycles_max (sim_recovery)"},
    {"daelite.cfg_words_recovery", "count", "wall_s, sim_restore_cycles_max (sim_recovery)"},
    {"alloc.quarantined_links", "count", "wall_s, sim_restore_cycles_max (sim_recovery)"},
    {"alloc.setup_us_p50", "us", "op_p50_us, op_p99_us, ops_per_s (churn_qos)"},
    {"alloc.setup_us_p99", "us", "op_p50_us, op_p99_us, ops_per_s (churn_qos)"},
    {"alloc.setup_calls", "count", "op_p50_us, op_p99_us, ops_per_s (churn_qos)"},
    {"alloc.teardown_us_p50", "us", "op_p50_us, op_p99_us, ops_per_s (churn_qos)"},
    {"alloc.teardown_us_p99", "us", "op_p50_us, op_p99_us, ops_per_s (churn_qos)"},
    {"alloc.teardown_calls", "count", "op_p50_us, op_p99_us, ops_per_s (churn_qos)"},
    {"alloc.modify_us_p50", "us", "op_p50_us, op_p99_us, ops_per_s (churn_qos)"},
    {"alloc.modify_us_p99", "us", "op_p50_us, op_p99_us, ops_per_s (churn_qos)"},
    {"alloc.modify_calls", "count", "op_p50_us, op_p99_us, ops_per_s (churn_qos)"},
    {"alloc.modify_restored_ratio", "ratio", "op_p50_us, op_p99_us, ops_per_s (churn_qos)"},
    {"alloc.compact_ms", "ms", "op_p99_us (churn_qos)"},
    {"alloc.compact_move_ratio", "ratio", "op_p99_us (churn_qos)"},
    {"alloc.preemptions", "count", "admit_ratio (churn_qos)"},
    {"alloc.frag_reject_ratio", "ratio", "admit_ratio (churn_qos)"},
    {"alloc.frag_sample_ms", "ms", "ops_per_s (churn_qos)"},
    {"alloc.workload_next_ms", "ms", "none: the generator's own cost (churn_qos)"},
    {"sim_cfg_cycles", "cycles", "simulated set-up time (sim_*)"},
    {"sim_words_delivered", "words", "simulated delivery (sim_*)"},
    {"sim_restore_cycles_max", "cycles", "simulated repair time (sim_recovery)"},
    {"trace.overhead_ratio", "ratio", "traced wall over untraced wall_s"},
    {"trace.unaccounted_ratio", "ratio", "share of traced wall no span covers"},
};

using Values = std::map<std::string, std::vector<double>>;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool run_sim_traced(const Args& a, const DigestTable& table, Tally* tally, Values* v) {
  const SimInputs in = make_sim_inputs(a.workload, a.seed);
  std::string error;
  const auto spec = make_run_spec(a.workload, in, true, &error);
  const auto clean = make_run_spec(a.workload, in, false, &error);
  if (!spec || !clean) {
    std::cerr << "daelite_perfbench: " << error << "\n";
    return false;
  }
  const bool recovery = a.workload == Workload::kSimRecovery;
  const std::string key = std::string(workload_name(a.workload));

  // Config words the initial set-up streams; what a full run streams
  // beyond them went into repairs.
  soc::RunSpec setup = *spec;
  setup.run_cycles_override = 0;
  const analysis::NetworkReport setup_report = soc::run_scenario(setup);
  tally->check(setup_report.error.empty(), key + " set-up");

  repeat_within(a.seconds, [&] {
    auto t0 = Clock::now();
    const analysis::NetworkReport r = soc::run_scenario(*spec);
    const double wall = seconds_since(t0);
    std::string why;
    tally->check(sim_run_ok(a.workload, in, r, &why) &&
                     tally->digest_matches(key + " run", report_digest(r), table.find(key, a.seed),
                                           &why),
                 key + " run: " + why);

    // The fault-free twin (sim_recovery) is what the traced pass replays.
    analysis::NetworkReport twin;
    double twin_wall = wall;
    if (recovery) {
      t0 = Clock::now();
      twin = soc::run_scenario(*clean);
      twin_wall = seconds_since(t0);
      why = twin.error;
      tally->check(twin.error.empty() && tally->digest_matches(key + " fault-free run",
                                                               report_digest(twin), std::nullopt,
                                                               &why),
                   key + " fault-free run: " + why);
    }
    const analysis::NetworkReport& ref = recovery ? twin : r;

    const TracedSim t = trace_sim(in.scenario_text, *clean);
    tally->check(t.error.empty() && t.words_delivered == ref.health.words_delivered &&
                     t.cfg_cycles == ref.cfg_cycles,
                 key + " traced pass: " +
                     (t.error.empty() ? "delivered words or cfg_cycles differ from the untraced run"
                                      : t.error));

    const SpanLog& s = t.spans;
    const double step_ms = t.step_slot.ms() + t.step_mid.ms();
    (*v)["soc.parse_ms"].push_back(s.total_ms("soc.parse"));
    (*v)["alloc.dimension_ms"].push_back(s.total_ms("alloc.dimension"));
    (*v)["daelite.build_ms"].push_back(s.total_ms("daelite.build"));
    (*v)["daelite.configure_ms"].push_back(s.total_ms("daelite.configure"));
    (*v)["daelite.cfg_words"].push_back(static_cast<double>(t.cfg_words));
    (*v)["daelite.configure_ns_per_word"].push_back(
        ratio(s.total_ms("daelite.configure") * 1e6, static_cast<double>(t.cfg_words)));
    (*v)["sim.steps"].push_back(static_cast<double>(t.step_slot.calls + t.step_mid.calls));
    (*v)["sim.step_ms"].push_back(step_ms);
    (*v)["sim.step_slot_ms"].push_back(t.step_slot.ms());
    (*v)["sim.step_mid_ms"].push_back(t.step_mid.ms());
    (*v)["soc.pump_ms"].push_back(t.pump.ms());
    (*v)["daelite.ni.tx_push_calls"].push_back(static_cast<double>(t.tx_push_calls));
    (*v)["daelite.ni.tx_push_accept_ratio"].push_back(
        ratio(static_cast<double>(t.tx_push_accepted), static_cast<double>(t.tx_push_calls)));
    (*v)["daelite.ni.rx_pop_calls"].push_back(static_cast<double>(t.rx_pop_calls));
    (*v)["daelite.ni.rx_pop_hit_ratio"].push_back(
        ratio(static_cast<double>(t.rx_pop_hits), static_cast<double>(t.rx_pop_calls)));
    (*v)["daelite.ni_lookups"].push_back(static_cast<double>(t.ni_lookups));
    (*v)["analysis.report_ms"].push_back(s.total_ms("analysis.report"));
    if (recovery) {
      (*v)["soc.recovery_overhead_ms"].push_back((wall - twin_wall) * 1e3);
      (*v)["soc.recovery_events"].push_back(static_cast<double>(r.recovery.events.size()));
      (*v)["daelite.cfg_words_recovery"].push_back(
          static_cast<double>(r.energy.config_words - setup_report.energy.config_words));
      (*v)["alloc.quarantined_links"].push_back(static_cast<double>(r.recovery.quarantined.size()));
    }
    (*v)["sim_cfg_cycles"].push_back(static_cast<double>(r.cfg_cycles));
    (*v)["sim_words_delivered"].push_back(static_cast<double>(r.health.words_delivered));
    (*v)["sim_restore_cycles_max"].push_back(static_cast<double>(restore_cycles_max(r)));
    const double covered_ms = s.total_ms("soc.parse") + s.total_ms("alloc.dimension") +
                              s.total_ms("daelite.build") + s.total_ms("daelite.configure") +
                              t.pump.ms() + step_ms + s.total_ms("analysis.report");
    (*v)["trace.overhead_ratio"].push_back(ratio(t.wall_s, twin_wall));
    (*v)["trace.unaccounted_ratio"].push_back(1.0 - ratio(covered_ms, t.wall_s * 1e3));
  });
  return true;
}

bool run_churn_traced(const Args& a, const DigestTable& table, Tally* tally, Values* v) {
  const alloc::ChurnRunOptions o = make_churn_options(a.seed);
  repeat_within(a.seconds, [&] {
    const ChurnPass p = churn_pass(a, o, table, tally);
    const TracedChurn& t = p.traced;
    const auto& m = t.metrics;

    const auto calls = [&](const char* name, const CallLatencies& c) {
      const std::string n = std::string("alloc.") + name;
      (*v)[n + "_us_p50"].push_back(quantile(c.us, 0.50));
      (*v)[n + "_us_p99"].push_back(quantile(c.us, 0.99));
      (*v)[n + "_calls"].push_back(static_cast<double>(c.us.size()));
    };
    calls("setup", t.setup);
    calls("teardown", t.teardown);
    calls("modify", t.modify);
    (*v)["alloc.modify_restored_ratio"].push_back(
        ratio(static_cast<double>(m.modify_failed_restored.value()),
              static_cast<double>(t.modify_failed)));
    (*v)["alloc.compact_ms"].push_back(t.compact.ms());
    (*v)["alloc.compact_move_ratio"].push_back(
        ratio(static_cast<double>(t.compact_moved), static_cast<double>(t.compact_examined)));
    (*v)["alloc.preemptions"].push_back(static_cast<double>(m.preemptions.value()));
    (*v)["alloc.frag_reject_ratio"].push_back(
        ratio(static_cast<double>(m.rejected_fragmentation.value()),
              static_cast<double>(m.rejected_no_route.value())));
    (*v)["alloc.frag_sample_ms"].push_back(t.frag_sample.ms());
    (*v)["alloc.workload_next_ms"].push_back(t.workload_next.ms());
    const double covered_ms = t.setup.ms() + t.teardown.ms() + t.modify.ms() + t.compact.ms() +
                              t.frag_sample.ms() + t.workload_next.ms();
    (*v)["trace.overhead_ratio"].push_back(ratio(t.wall_s, p.wall_s));
    (*v)["trace.unaccounted_ratio"].push_back(1.0 - ratio(covered_ms, t.wall_s * 1e3));
  });
  return true;
}

// --- Output --------------------------------------------------------------------

void print_fingerprint(const Fingerprint& f) {
  std::cout << "host: " << f.hardware_threads << " hardware threads, compiler " << f.compiler
            << ", build type " << f.build_type << (f.optimized ? "" : " (NOT optimized)") << "\n";
}

void print_table(const std::string& title, const std::vector<Metric>& metrics,
                 const std::map<std::string, std::string>& notes) {
  std::cout << title << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right << std::setw(16)
              << std::setprecision(6) << m.value << " " << std::left << std::setw(6) << m.unit;
    if (const auto it = notes.find(m.name); it != notes.end()) std::cout << "  " << it->second;
    std::cout << std::right << "\n";
  }
}

int record(const Args& a) {
  const std::string key = std::string(workload_name(a.workload));
  std::uint64_t digest = 0;
  if (is_sim(a.workload)) {
    const SimInputs in = make_sim_inputs(a.workload, a.seed);
    std::string error;
    const auto spec = make_run_spec(a.workload, in, true, &error);
    if (!spec) return usage(error.c_str());
    const analysis::NetworkReport r = soc::run_scenario(*spec);
    std::string why;
    if (!sim_run_ok(a.workload, in, r, &why)) {
      std::cerr << "daelite_perfbench: refusing to record a failing run: " << why << "\n";
      return 1;
    }
    digest = report_digest(r);
  } else {
    double wall = 0.0;
    const alloc::ChurnReport r = churn_once(make_churn_options(a.seed), &wall);
    if (!churn_run_ok(r)) return 1;
    digest = r.decision_digest;
  }
  std::cout << key << " " << a.seed << " " << hex_digest(digest) << "\n";
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) return usage("unknown workload");
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_number(v, &a.seed)) return usage("--seed wants an unsigned integer");
    } else if (flag == "--seconds") {
      if (!parse_number(v, &a.seconds) || !(a.seconds > 0.0) || a.seconds > 600.0)
        return usage("--seconds wants a number in (0, 600]");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return usage("--trace wants 0 or 1");
      a.trace = v[0] == '1';
    } else if (flag == "--digests") {
      a.digests = v;
    } else {
      return usage(("unknown argument " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  const Fingerprint fp = host_fingerprint();
  print_fingerprint(fp);
  if (!fp.optimized) {
    std::cerr << "daelite_perfbench: refusing to time a build without optimization\n";
    return 3;
  }
  if (a.record) return record(a);

  DigestTable table;
  std::string error;
  if (!a.digests.empty() && !table.load(a.digests, &error)) return usage(error.c_str());
  const std::string name = std::string(workload_name(a.workload));
  std::cout << "workload " << name << ", seed " << a.seed << ", "
            << (table.find(name, a.seed) ? "digest recorded for this seed"
                                         : "no digest recorded for this seed: checked run to run")
            << "\n";

  Tally tally;
  std::vector<Metric> metrics;
  if (!a.trace) {
    EndToEnd e;
    const bool ran = is_sim(a.workload) ? run_sim_end_to_end(a, table, &tally, &e)
                                        : run_churn_end_to_end(a, table, &tally, &e);
    if (!ran) return 1;
    metrics = end_to_end_metrics(e);
    std::vector<Metric> shown = metrics;
    shown.insert(shown.end(), e.simulated.begin(), e.simulated.end());
    print_table("end to end (" + name + ", " + std::to_string(e.wall_s.size()) + " runs, " +
                    std::to_string(flatten(e.setup_rounds).size()) + " set-ups):",
                shown, {});
    std::cout << "  wall_s per run:";
    for (double s : e.wall_s) std::cout << " " << s;
    std::cout << "\n";
  } else {
    Values v;
    const bool ran = is_sim(a.workload) ? run_sim_traced(a, table, &tally, &v)
                                        : run_churn_traced(a, table, &tally, &v);
    if (!ran) return 1;
    std::map<std::string, std::string> notes;
    for (const LayerDef& l : kLayers) {
      const auto it = v.find(l.name);
      metrics.push_back({l.name, it == v.end() ? 0.0 : median(it->second), l.unit});
      notes[l.name] = std::string("-> ") + l.moves;
    }
    print_table("per layer (" + name + ", traced pass, medians over " +
                    std::to_string(v["trace.overhead_ratio"].size()) + " passes):",
                metrics, notes);
  }
  std::cout << result_json(tally, metrics) << std::endl;
  return 0;
}
