#include "soc/scenario.hpp"

#include <fstream>
#include <sstream>

#include "sim/parse.hpp"
#include "tdm/params.hpp"

namespace daelite::soc {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream is(line);
  std::string t;
  while (is >> t) {
    if (t[0] == '#') break;
    toks.push_back(t);
  }
  return toks;
}

} // namespace

std::optional<Scenario> parse_scenario(std::istream& in, std::string* error) {
  Scenario sc;
  std::string line;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    if (error) *error = "line " + std::to_string(lineno) + ": " + msg;
    return std::nullopt;
  };

  while (std::getline(in, line)) {
    ++lineno;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string& cmd = toks[0];

    if (cmd == "mesh") {
      const bool torus = toks.size() == 4 && toks[3] == "torus";
      if (toks.size() != 3 && !torus) return fail("mesh needs <width> <height> [torus]");
      if (!sim::parse_int(toks[1], &sc.width) || !sim::parse_int(toks[2], &sc.height))
        return fail("bad mesh dimensions '" + toks[1] + " " + toks[2] + "'");
      if (sc.width < 1 || sc.height < 1) return fail("mesh dimensions must be positive");
      sc.kind = torus ? Scenario::TopologyKind::kTorus : Scenario::TopologyKind::kMesh;
    } else if (cmd == "ring") {
      if (toks.size() != 2) return fail("ring needs <routers>");
      if (!sim::parse_int(toks[1], &sc.width) || sc.width < 2)
        return fail("bad ring size '" + toks[1] + "' (want at least 2 routers)");
      sc.kind = Scenario::TopologyKind::kRing;
      sc.height = 1;
    } else if (cmd == "slots") {
      std::uint32_t s = 0;
      if (toks.size() != 2) return fail("slots needs <S>");
      if (!sim::parse_slots(toks[1], &s))
        return fail("bad slot count '" + toks[1] + "' (want an integer in [1," +
                    std::to_string(tdm::TdmParams::kMaxSlots) + "])");
      sc.slots = s;
    } else if (cmd == "clock") {
      if (toks.size() != 2) return fail("clock needs <MHz>");
      if (!sim::parse_number(toks[1], &sc.clock_mhz) || sc.clock_mhz <= 0.0)
        return fail("bad clock '" + toks[1] + "'");
    } else if (cmd == "host") {
      if (toks.size() != 2 || !sim::parse_coord(toks[1], &sc.host)) return fail("host needs <x,y>");
    } else if (cmd == "run") {
      if (toks.size() != 2) return fail("run needs <cycles>");
      if (!sim::parse_int(toks[1], &sc.run_cycles))
        return fail("bad run length '" + toks[1] + "'");
    } else if (cmd == "connection" || cmd == "stream") {
      // connection <name> <src> <dst> <MB/s> [latency <ns>] [resp <MB/s>] [class C]
      // stream <name> <src> <dst> <MB/s> period <cycles> burst <words>
      //        [bursty <seed>] [resp <MB/s>] [class C]
      const bool stream = cmd == "stream";
      if (toks.size() < 5) return fail(cmd + " needs <name> <src> <dst> <MB/s>");
      Scenario::RawConnection c;
      c.name = toks[1];
      std::pair<int, int> dst;
      if (!sim::parse_coord(toks[2], &c.src) || !sim::parse_coord(toks[3], &dst))
        return fail("bad coordinates in " + cmd);
      c.dsts.push_back(dst);
      if (!sim::parse_number(toks[4], &c.bandwidth) || c.bandwidth <= 0.0)
        return fail("bad " + cmd + " bandwidth '" + toks[4] + "'");
      bool saw_period = false;
      bool saw_burst = false;
      for (std::size_t i = 5; i < toks.size(); i += 2) {
        if (i + 1 >= toks.size()) return fail(toks[i] + " needs a value");
        const std::string& opt = toks[i];
        const std::string& val = toks[i + 1];
        bool ok = false;
        if (opt == "resp") {
          ok = sim::parse_number(val, &c.response_bandwidth) && c.response_bandwidth >= 0.0;
        } else if (opt == "class") {
          if (!alloc::parse_service_class(val, &c.service_class))
            return fail("unknown service class '" + val +
                        "' (want guaranteed|standard|best_effort)");
          ok = true;
        } else if (!stream && opt == "latency") {
          ok = sim::parse_number(val, &c.max_latency_ns) && c.max_latency_ns > 0.0;
        } else if (stream && opt == "period") {
          ok = saw_period = sim::parse_int(val, &c.stream_period) && c.stream_period > 0;
        } else if (stream && opt == "burst") {
          ok = saw_burst = sim::parse_int(val, &c.stream_burst) && c.stream_burst > 0;
        } else if (stream && opt == "bursty") {
          ok = sim::parse_int(val, &c.bursty_seed) && c.bursty_seed != 0;
        } else {
          return fail("unknown " + cmd + " option '" + opt + "'");
        }
        if (!ok) return fail("bad " + cmd + " " + opt + " '" + val + "'");
      }
      if (stream && (!saw_period || !saw_burst))
        return fail("stream needs period <cycles> and burst <words>");
      sc.raw.push_back(std::move(c));
    } else if (cmd == "multicast") {
      // multicast <name> <src> <dst>... bw <MB/s>
      if (toks.size() < 6) return fail("multicast needs <name> <src> <dst>... bw <MB/s>");
      Scenario::RawConnection c;
      c.name = toks[1];
      if (!sim::parse_coord(toks[2], &c.src)) return fail("bad multicast source");
      std::size_t i = 3;
      for (; i < toks.size() && toks[i] != "bw"; ++i) {
        std::pair<int, int> d;
        if (!sim::parse_coord(toks[i], &d))
          return fail("bad multicast destination '" + toks[i] + "'");
        c.dsts.push_back(d);
      }
      if (c.dsts.size() < 2) return fail("multicast needs at least 2 destinations");
      if (i + 2 != toks.size()) return fail("multicast needs bw <MB/s>");
      if (!sim::parse_number(toks[i + 1], &c.bandwidth) || c.bandwidth <= 0.0)
        return fail("bad multicast bandwidth '" + toks[i + 1] + "'");
      sc.raw.push_back(std::move(c));
    } else if (cmd == "dram") {
      if (toks.size() < 2) return fail("dram needs at least one <x,y>");
      for (std::size_t i = 1; i < toks.size(); ++i) {
        std::pair<int, int> p;
        if (!sim::parse_coord(toks[i], &p)) return fail("bad dram port '" + toks[i] + "'");
        sc.dram.push_back(p);
      }
    } else if (cmd == "energy") {
      sc.energy.enabled = true;
      std::size_t i = 1;
      while (i < toks.size()) {
        if (i + 1 >= toks.size()) return fail(toks[i] + " needs a value");
        double* slot = nullptr;
        if (toks[i] == "hop") slot = &sc.energy.hop_energy_pj;
        else if (toks[i] == "dram") slot = &sc.energy.dram_access_energy_pj;
        else if (toks[i] == "config") slot = &sc.energy.config_energy_pj;
        else return fail("unknown energy option '" + toks[i] + "'");
        if (!sim::parse_number(toks[i + 1], slot) || *slot < 0.0)
          return fail("bad energy value '" + toks[i + 1] + "'");
        i += 2;
      }
    } else if (cmd == "dnn") {
      // dnn grid <x,y> <WxH> [weights <slots>] [ifmap <slots>] [ofmap <slots>]
      if (sc.dnn) return fail("duplicate dnn directive");
      if (toks.size() < 4 || toks[1] != "grid") return fail("dnn needs grid <x,y> <WxH>");
      workload::DnnSchedule d;
      std::pair<int, int> origin;
      if (!sim::parse_coord(toks[2], &origin)) return fail("bad dnn grid origin '" + toks[2] + "'");
      d.grid_x = origin.first;
      d.grid_y = origin.second;
      if (!sim::parse_extent(toks[3], &d.grid_w, &d.grid_h))
        return fail("bad dnn grid extent '" + toks[3] + "' (want WxH)");
      std::size_t i = 4;
      while (i < toks.size()) {
        if (i + 1 >= toks.size()) return fail(toks[i] + " needs a value");
        std::uint32_t* slot = nullptr;
        if (toks[i] == "weights") slot = &d.weight_slots;
        else if (toks[i] == "ifmap") slot = &d.ifmap_slots;
        else if (toks[i] == "ofmap") slot = &d.ofmap_slots;
        else return fail("unknown dnn option '" + toks[i] + "'");
        if (!sim::parse_int(toks[i + 1], slot) || *slot == 0)
          return fail("bad dnn slot count '" + toks[i + 1] + "'");
        i += 2;
      }
      sc.dnn = std::move(d);
    } else if (cmd == "layer") {
      // layer <name> weights <words> ifmap <words> ofmap <words>
      if (!sc.dnn) return fail("layer before dnn directive");
      if (toks.size() != 8 || toks[2] != "weights" || toks[4] != "ifmap" || toks[6] != "ofmap")
        return fail("layer needs <name> weights <words> ifmap <words> ofmap <words>");
      workload::LayerSpec l;
      l.name = toks[1];
      if (!sim::parse_int(toks[3], &l.weight_words) || l.weight_words == 0)
        return fail("bad layer weight words '" + toks[3] + "'");
      if (!sim::parse_int(toks[5], &l.ifmap_words))
        return fail("bad layer ifmap words '" + toks[5] + "'");
      if (!sim::parse_int(toks[7], &l.ofmap_words))
        return fail("bad layer ofmap words '" + toks[7] + "'");
      sc.dnn->layers.push_back(std::move(l));
    } else {
      return fail("unknown directive '" + cmd + "'");
    }
  }
  if (sc.dnn) {
    if (!sc.raw.empty()) {
      if (error) *error = "dnn scenario cannot also declare connection/multicast/stream lines";
      return std::nullopt;
    }
    if (sc.dnn->layers.empty()) {
      if (error) *error = "dnn scenario declares no layers";
      return std::nullopt;
    }
    if (sc.dram.empty()) {
      if (error) *error = "dnn scenario needs at least one dram port";
      return std::nullopt;
    }
  } else if (sc.raw.empty()) {
    if (error) *error = "scenario declares no connections";
    return std::nullopt;
  }
  return sc;
}

std::optional<Scenario> parse_scenario_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  return parse_scenario(in, error);
}

Scenario stress_scenario(int width, int height, bool torus) {
  Scenario sc;
  sc.kind = torus ? Scenario::TopologyKind::kTorus : Scenario::TopologyKind::kMesh;
  sc.width = width;
  sc.height = height;
  sc.host = {width / 2, height / 2};
  sc.run_cycles = 5000;
  const int mx = width - 1, my = height - 1;
  const std::pair<int, int> corners[4] = {{0, 0}, {mx, 0}, {0, my}, {mx, my}};
  for (int i = 0; i < 4; ++i) {
    Scenario::RawConnection c;
    c.name = "corner" + std::to_string(i);
    c.src = corners[i];
    c.dsts.push_back(corners[3 - i]);
    c.bandwidth = 150.0;
    sc.raw.push_back(std::move(c));
  }
  Scenario::RawConnection mc;
  mc.name = "bcast";
  mc.src = sc.host;
  for (const auto& c : corners)
    if (c != sc.host) mc.dsts.push_back(c);
  mc.bandwidth = 40.0;
  sc.raw.push_back(std::move(mc));
  return sc;
}

topo::Mesh Scenario::build() {
  topo::Mesh mesh;
  switch (kind) {
    case TopologyKind::kMesh:
      mesh = topo::make_mesh(width, height);
      break;
    case TopologyKind::kTorus:
      mesh = topo::make_mesh(width, height, 1, /*wrap=*/true);
      break;
    case TopologyKind::kRing:
      mesh = topo::make_ring(width);
      break;
  }
  connections.clear();
  for (const RawConnection& c : raw) {
    alloc::PhysicalConnectionSpec p;
    p.name = c.name;
    p.src_ni = mesh.ni(c.src.first, c.src.second);
    for (const auto& d : c.dsts) p.dst_nis.push_back(mesh.ni(d.first, d.second));
    p.bandwidth_mbytes_per_s = c.bandwidth;
    p.response_bandwidth_mbytes_per_s = c.response_bandwidth;
    p.max_latency_ns = c.max_latency_ns;
    p.stream_period = c.stream_period;
    p.stream_burst = c.stream_burst;
    p.bursty_seed = c.bursty_seed;
    p.service_class = c.service_class;
    connections.push_back(std::move(p));
  }
  return mesh;
}

} // namespace daelite::soc
