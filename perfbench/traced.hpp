#pragma once
// The traced passes: the benchmark drives each layer's public calls itself,
// in the order soc::run_scenario and alloc::run_churn make them, and times
// the calls from the outside. Phase-level calls become spans (name, parent,
// start, end) kept in memory; per-cycle and per-request calls are too many
// to keep one by one and are folded into per-layer accumulators instead.
// Nothing inside the program is instrumented.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc/churn.hpp"
#include "soc/runner.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Wall-clock spans of one traced pass, each with the span it ran under.
class SpanLog {
 public:
  static constexpr std::uint32_t kRoot = 0xFFFFFFFFu;
  struct Span {
    std::string name;
    std::uint32_t parent = kRoot;
    Clock::time_point start;
    Clock::time_point end;
    double ms() const { return std::chrono::duration<double, std::milli>(end - start).count(); }
  };

  std::uint32_t begin(std::string name, std::uint32_t parent = kRoot) {
    spans_.push_back({std::move(name), parent, Clock::now(), {}});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void end(std::uint32_t id) { spans_[id].end = Clock::now(); }

  /// Summed duration of every span called `name`.
  double total_ms(const std::string& name) const;

 private:
  std::vector<Span> spans_;
};

/// Time and call count of one hot call site.
struct Accumulator {
  Clock::duration total{};
  std::uint64_t calls = 0;

  double ms() const { return std::chrono::duration<double, std::milli>(total).count(); }
};

/// The traced sim pass: run_scenario's fault-free flow, call by call.
struct TracedSim {
  SpanLog spans;
  double wall_s = 0.0;
  std::uint64_t cfg_cycles = 0;
  std::uint64_t cfg_words = 0;
  std::uint64_t words_delivered = 0; ///< the report's health.words_delivered
  Accumulator step_slot;             ///< Kernel::step on slot-boundary cycles
  Accumulator step_mid;              ///< Kernel::step on mid-slot cycles
  Accumulator pump;                  ///< the per-cycle NI pump, one block per cycle
  std::uint64_t tx_push_calls = 0, tx_push_accepted = 0;
  std::uint64_t rx_pop_calls = 0, rx_pop_hits = 0;
  std::uint64_t ni_lookups = 0;
  std::string error;
};

/// Trace the scenario in `scenario_text` run as `spec` describes (which
/// must carry no fault plan and no recovery).
TracedSim trace_sim(const std::string& scenario_text, const daelite::soc::RunSpec& spec);

/// Per-call latencies of one ChurnService entry point.
struct CallLatencies {
  std::vector<double> us;
  Clock::duration total{};
  void add(Clock::duration d);
  double ms() const { return std::chrono::duration<double, std::milli>(total).count(); }
};

/// The traced churn pass: run_churn's request loop, call by call.
struct TracedChurn {
  double wall_s = 0.0;
  CallLatencies setup, teardown, modify;
  Accumulator compact, frag_sample, workload_next;
  std::uint64_t compact_examined = 0, compact_moved = 0;
  std::uint64_t modify_failed = 0;
  daelite::alloc::ChurnMetrics metrics; ///< the service's counters after the stream
  std::string error;
};

/// Trace a churn stream. `options` must not use overload control or
/// quarantine events (the workload uses neither).
TracedChurn trace_churn(const daelite::alloc::ChurnRunOptions& options);

/// The churn workload's allocator, exactly as daelite_churn builds it.
daelite::alloc::AllocatorOptions churn_allocator_options();

} // namespace perfbench
