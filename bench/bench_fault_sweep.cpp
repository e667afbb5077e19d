// bench_fault_sweep — resilience under deterministic link faults.
//
// Three sweeps over the background fault rate (per-word corruption
// probability, see src/sim/fault.hpp):
//
//  1. daelite end-to-end: soc::stress_scenario (corner unicasts + one
//     multicast, what daelite_batch --mesh runs) through
//     soc::run_scenario() with a FaultInjector over every data and
//     configuration link. Measures delivered-word degradation, set-up-time
//     inflation (the runner appends one verification read per connection,
//     so dropped config responses cost watchdog timeouts + retries), and
//     the watchdog / detection counters from the report's `health` section.
//  2. aelite set-up: AeliteConfigHost with the same per-response loss
//     rate — confirmation reads time out one wheel after the expected
//     arrival and are re-issued, so set-up time inflates with rate.
//  3. aelite data streaming: one channel with a FaultInjector on the
//     aelite links; dropped flits also strand credits, so throughput
//     decays faster than the raw drop rate.
//
// All sweeps use a fixed seed (42): every row is reproducible bit for
// bit, and the zero-rate rows must match a fault-free build exactly —
// the bench exits nonzero if the zero-rate rows show any fault, retry,
// or missed contract.

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "aelite/config_model.hpp"
#include "analysis/report.hpp"
#include "common.hpp"
#include "sim/fault.hpp"
#include "sim/json.hpp"
#include "soc/runner.hpp"

using namespace daelite;
using namespace daelite::bench;
using analysis::TextTable;
using analysis::fmt;
using analysis::pct;
using sim::JsonValue;

namespace {

constexpr std::uint64_t kFaultSeed = 42;

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const std::vector<double> rates = quick ? std::vector<double>{0.0, 1e-3, 1e-2}
                                          : std::vector<double>{0.0, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2};
  const sim::Cycle run_cycles = quick ? 2000 : 5000;
  bool bad = false;

  // -- 1. daelite end-to-end under injected link faults ---------------------
  TextTable dt("daelite stress scenario vs fault rate (seed 42, 4x4 mesh)");
  // "rx/tx": multicast destinations each count a delivery, so the clean
  // ratio sits above 100% — the column tracks relative degradation.
  dt.set_header({"rate", "cfg cycles", "rx/tx words", "timeouts", "retries", "aborted",
                 "injected", "ok"});
  JsonValue drows = JsonValue::array();
  std::uint64_t base_cfg_cycles = 0;
  for (double rate : rates) {
    soc::RunSpec spec;
    spec.label = "fault_sweep";
    spec.scenario = soc::stress_scenario(4, 4);
    spec.scenario.run_cycles = run_cycles;
    spec.fault_plan.seed = kFaultSeed;
    spec.fault_plan.rate = rate;
    const analysis::NetworkReport r = soc::run_scenario(spec);
    if (!r.error.empty()) {
      std::cerr << "bench_fault_sweep: daelite run failed: " << r.error << "\n";
      return 1;
    }
    if (rate == 0.0) base_cfg_cycles = r.cfg_cycles;
    const double ratio = r.health.words_sent == 0
                             ? 0.0
                             : static_cast<double>(r.health.words_delivered) /
                                   static_cast<double>(r.health.words_sent);
    dt.add_row({fmt(rate, 4), std::to_string(r.cfg_cycles),
                std::to_string(r.health.words_delivered) + "/" +
                    std::to_string(r.health.words_sent) + " (" + pct(ratio) + ")",
                std::to_string(r.health.timeouts), std::to_string(r.health.retries),
                std::to_string(r.health.aborted), std::to_string(r.health.faults_injected),
                r.ok ? "ok" : "DEGRADED"});
    JsonValue row = JsonValue::object();
    row["rate"] = rate;
    row["cfg_cycles"] = r.cfg_cycles;
    row["cfg_inflation"] = base_cfg_cycles == 0
                               ? 0.0
                               : static_cast<double>(r.cfg_cycles) /
                                     static_cast<double>(base_cfg_cycles);
    row["words_sent"] = r.health.words_sent;
    row["words_delivered"] = r.health.words_delivered;
    row["delivered_ratio"] = ratio;
    row["timeouts"] = r.health.timeouts;
    row["retries"] = r.health.retries;
    row["aborted"] = r.health.aborted;
    row["faults_injected"] = r.health.faults_injected;
    row["words_dropped"] = r.health.words_dropped;
    row["words_flipped"] = r.health.words_flipped;
    row["protocol_errors"] = r.health.protocol_errors;
    row["ok"] = r.ok;
    drows.push_back(std::move(row));
    if (rate == 0.0 &&
        (!r.ok || r.health.faults_injected != 0 || r.health.timeouts != 0 ||
         r.health.retries != 0 || r.health.aborted != 0)) {
      std::cerr << "bench_fault_sweep: zero-rate daelite row shows faults\n";
      bad = true;
    }
  }
  dt.print(std::cout);
  std::cout << "\n";

  // -- 2. aelite set-up time vs response loss rate --------------------------
  TextTable at("aelite connection set-up vs response loss rate (4x4 mesh, S=16)");
  at.set_header({"rate", "setup cycles", "inflation", "timeouts", "retries", "aborted"});
  JsonValue arows = JsonValue::array();
  sim::Cycle base_setup = 0;
  for (double rate : rates) {
    topo::Mesh mesh = topo::make_mesh(4, 4);
    sim::Kernel k;
    aelite::AeliteConfigHost::Params p;
    p.tdm = tdm::aelite_params(16);
    // The daelite sweep's rate is per word-link traversal; an aelite read
    // response occupies roughly one wheel of traversals on its way back,
    // so the equivalent per-response loss probability is amplified
    // accordingly (1 - (1-rate)^wheel_cycles).
    p.response_loss_rate = 1.0 - std::pow(1.0 - rate, static_cast<double>(p.tdm.wheel_cycles()));
    p.fault_seed = kFaultSeed;
    aelite::AeliteConfigHost host(k, "ahost", mesh.topo, mesh.ni(2, 2), p);
    // One connection from the host to every other NI — the "open the whole
    // chip" bring-up the paper's Table III argues about.
    std::vector<std::uint32_t> ids;
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        if (x == 2 && y == 2) continue;
        aelite::AeliteConfigHost::SetupRequest req;
        req.src_ni = mesh.ni(2, 2);
        req.dst_ni = mesh.ni(x, y);
        req.request_slots = 4;
        ids.push_back(host.post_setup(req));
      }
    }
    if (!k.run_until([&] { return host.idle(); }, 10'000'000)) {
      std::cerr << "bench_fault_sweep: aelite set-up did not complete at rate " << rate << "\n";
      return 1;
    }
    sim::Cycle done = 0;
    for (auto id : ids) done = std::max(done, host.completion_cycle(id));
    if (rate == 0.0) base_setup = done;
    const double inflation =
        base_setup == 0 ? 0.0 : static_cast<double>(done) / static_cast<double>(base_setup);
    at.add_row({fmt(rate, 4), std::to_string(done), fmt(inflation, 2) + "x",
                std::to_string(host.timeouts()), std::to_string(host.retries()),
                std::to_string(host.aborted())});
    JsonValue row = JsonValue::object();
    row["rate"] = rate;
    row["setup_cycles"] = done;
    row["inflation"] = inflation;
    row["timeouts"] = host.timeouts();
    row["retries"] = host.retries();
    row["aborted"] = host.aborted();
    arows.push_back(std::move(row));
    if (rate == 0.0 && (host.timeouts() != 0 || host.aborted() != 0)) {
      std::cerr << "bench_fault_sweep: zero-rate aelite set-up row shows timeouts\n";
      bad = true;
    }
  }
  at.print(std::cout);
  std::cout << "\n";

  // -- 3. aelite streamed throughput under injected flit faults -------------
  // Fixed window, saturated source; dropped flits also strand credits, so
  // throughput decays faster than the raw drop rate.
  const sim::Cycle window = quick ? 5000 : 20000;
  TextTable st("aelite streamed words in a fixed window vs fault rate (3x3 mesh)");
  st.set_header({"rate", "delivered", "words/cycle", "vs clean", "injected"});
  JsonValue srows = JsonValue::array();
  std::size_t base_words = 0;
  for (double rate : rates) {
    AeliteRig rig(3, 3, 16);
    const auto conn = rig.connect(rig.mesh.ni(0, 0), rig.mesh.ni(2, 1), 4, 1);
    const auto h = rig.net->open_connection(conn);
    sim::FaultPlan plan;
    plan.seed = kFaultSeed;
    plan.rate = rate;
    // Constructed after the rig so it commits last each cycle.
    std::optional<sim::FaultInjector> injector;
    if (plan.enabled()) {
      injector.emplace(rig.kernel, "fault", plan);
      rig.net->attach_fault_lines(*injector);
    }
    aelite::Ni& src = rig.net->ni(h.conn.request.src_ni);
    aelite::Ni& dst = rig.net->ni(h.conn.request.dst_nis[0]);
    std::size_t pushed = 0, got = 0;
    for (sim::Cycle c = 0; c < window; ++c) {
      if (src.tx_push(h.src_tx_q, static_cast<std::uint32_t>(pushed))) ++pushed;
      rig.kernel.step();
      while (dst.rx_pop(h.dst_rx_q)) ++got;
    }
    if (rate == 0.0) base_words = got;
    const double ratio =
        base_words == 0 ? 0.0 : static_cast<double>(got) / static_cast<double>(base_words);
    const std::uint64_t injected = injector ? injector->counters().injected : 0;
    st.add_row({fmt(rate, 4), std::to_string(got),
                fmt(static_cast<double>(got) / static_cast<double>(window), 3), pct(ratio),
                std::to_string(injected)});
    JsonValue row = JsonValue::object();
    row["rate"] = rate;
    row["window_cycles"] = window;
    row["words_delivered"] = static_cast<std::uint64_t>(got);
    row["words_per_cycle"] = static_cast<double>(got) / static_cast<double>(window);
    row["vs_clean"] = ratio;
    row["faults_injected"] = injected;
    srows.push_back(std::move(row));
    if (rate == 0.0 && injected != 0) {
      std::cerr << "bench_fault_sweep: zero-rate aelite stream row shows faults\n";
      bad = true;
    }
  }
  st.print(std::cout);

  const std::string json_path = json_out_path(argc, argv, "fault");
  if (!json_path.empty()) {
    JsonValue doc = JsonValue::object();
    doc["fault_seed"] = kFaultSeed;
    doc["quick"] = quick;
    doc["daelite"] = std::move(drows);
    doc["aelite_setup"] = std::move(arows);
    doc["aelite_stream"] = std::move(srows);
    if (!write_bench_json(json_path, "fault", std::move(doc))) {
      std::cerr << "bench_fault_sweep: cannot write " << json_path << "\n";
      return 2;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return bad ? 1 : 0;
}
