#pragma once
// Scenario description files — the text front end of the toolflow.
//
// A scenario names a topology, the TDM parameters, the clock, a set of
// connections with physical bandwidth demands, and a run length; the CLI
// driver (tools/daelite_sim.cpp) executes it end to end: dimensioning (if
// no explicit wheel size fits), hardware configuration through the
// broadcast tree, saturated or CBR traffic, and a report.
//
// Grammar (one directive per line; '#' starts a comment):
//   mesh <width> <height> [torus]
//   ring <routers>
//   slots <S>                      # 1..64; omit to let the tool search 8/16/32
//   clock <MHz>
//   host <x,y>                     # NI of the configuration host
//   connection <name> <src x,y> <dst x,y> <MB/s> [latency <ns>] [resp <MB/s>]
//              [class guaranteed|standard|best_effort]
//   multicast  <name> <src x,y> <dst x,y> <dst x,y>... bw <MB/s>
//   stream <name> <src x,y> <dst x,y> <MB/s> period <cycles> burst <words>
//          [bursty <seed>] [resp <MB/s>] [class guaranteed|standard|best_effort]
//   dram <x,y> [<x,y>...]          # DRAM-port NIs (energy accounting, dnn)
//   energy [hop <pJ>] [dram <pJ>] [config <pJ>]   # enable the energy model
//   dnn grid <x,y> <WxH> [weights <slots>] [ifmap <slots>] [ofmap <slots>]
//   layer <name> weights <words> ifmap <words> ofmap <words>
//   run <cycles>                   # dnn: per-layer streaming budget
//
// Coordinates are NI grid positions. A `dnn` scenario (tile grid + layer
// lines, fed from the `dram` ports) generates its own traffic and cannot
// also declare connection/multicast/stream lines. Every directive is
// strict: each number is a whole token parsed by sim/parse.hpp (integers
// base 10, rates and bandwidths finite decimals), a directive takes no
// tokens past its grammar, and the wheel holds at most 64 slots (the
// 64-bit slot masks of tdm::TdmParams::kMaxSlots). Trailing junk, a sign
// on a count, `inf`/`nan` or `slots 65` is a "line N" diagnostic, never
// a silently different experiment.

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc/dimension.hpp"
#include "analysis/energy.hpp"
#include "topology/generators.hpp"
#include "workload/dnn.hpp"

namespace daelite::soc {

struct Scenario {
  enum class TopologyKind { kMesh, kTorus, kRing };
  TopologyKind kind = TopologyKind::kMesh;
  int width = 2;
  int height = 2;
  std::optional<std::uint32_t> slots; ///< empty: dimensioning searches
  double clock_mhz = 500.0;
  std::pair<int, int> host{0, 0};
  std::vector<alloc::PhysicalConnectionSpec> connections; ///< filled after build()
  sim::Cycle run_cycles = 10000;

  /// DRAM-port NIs (`dram` directive): the nodes whose word traffic is
  /// priced as DRAM accesses by the energy model, and the feed points of a
  /// `dnn` schedule.
  std::vector<std::pair<int, int>> dram;
  /// Energy model (`energy` directive); disabled unless declared, so
  /// reports without it are byte-identical to older builds.
  analysis::EnergyModel energy;
  /// DNN workload (`dnn` + `layer` directives). When set, the runner
  /// compiles the schedule into per-layer traffic instead of driving the
  /// declared connections.
  std::optional<workload::DnnSchedule> dnn;

  // Raw (coordinate) form, resolved against the topology by build().
  struct RawConnection {
    std::string name;
    std::pair<int, int> src;
    std::vector<std::pair<int, int>> dsts;
    double bandwidth = 100.0;
    double response_bandwidth = 0.0;
    double max_latency_ns = std::numeric_limits<double>::infinity();
    // Traffic shape (`stream` lines); see PhysicalConnectionSpec.
    std::uint32_t stream_period = 0;
    std::uint32_t stream_burst = 1;
    std::uint64_t bursty_seed = 0;
    alloc::ServiceClass service_class = alloc::ServiceClass::kStandard;
  };
  std::vector<RawConnection> raw;

  /// Instantiate the topology and resolve coordinates into NI node ids
  /// (fills `connections`).
  topo::Mesh build();
};

/// Parse a scenario; returns nullopt with a "line N: message" diagnostic
/// in `error` on malformed input.
std::optional<Scenario> parse_scenario(std::istream& in, std::string* error = nullptr);
std::optional<Scenario> parse_scenario_file(const std::string& path, std::string* error = nullptr);

/// Synthetic corner-stress design point: four corner-to-opposite-corner
/// unicasts plus a host-to-corners multicast, run for 5000 cycles. Enough
/// contention to exercise the allocator at any size; daelite_batch --mesh
/// and bench_fault_sweep run it.
Scenario stress_scenario(int width, int height, bool torus = false);

} // namespace daelite::soc
