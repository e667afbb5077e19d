#pragma once
// Shared scaffolding for the bench binaries: assembled daelite / aelite
// networks with allocators, and streaming helpers that drive words
// through a connection while popping at the destination.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "aelite/network.hpp"
#include "alloc/allocator.hpp"
#include "alloc/usecase.hpp"
#include "daelite/network.hpp"
#include "sim/json.hpp"
#include "topology/generators.hpp"

namespace daelite::bench {

/// `--json [dir]` support for the bench binaries: when the flag is present,
/// returns "<dir>/BENCH_<name>.json" (dir defaults to the working
/// directory), else "". The text tables remain the primary output; the
/// JSON document is the machine-readable mirror CI archives and diffs.
inline std::string json_out_path(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") != 0) continue;
    std::string dir = ".";
    if (i + 1 < argc && argv[i + 1][0] != '-') dir = argv[i + 1];
    return dir + "/BENCH_" + name + ".json";
  }
  return {};
}

/// Write a bench document ({"bench": name, ...fields}) to `path`.
/// Returns false (with a note on stderr) if the file cannot be written.
inline bool write_bench_json(const std::string& path, const std::string& name,
                             sim::JsonValue doc) {
  sim::JsonValue root = sim::JsonValue::object();
  root["bench"] = name;
  root["schema_version"] = 1;
  for (auto& [k, v] : doc.members()) root[k] = v;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bench: cannot open %s\n", path.c_str());
    return false;
  }
  os << root.dump(2) << "\n";
  std::fprintf(stderr, "bench: wrote %s\n", path.c_str());
  return true;
}

struct DaeliteRig {
  topo::Mesh mesh;
  sim::Kernel kernel;
  std::unique_ptr<hw::DaeliteNetwork> net;
  std::unique_ptr<alloc::SlotAllocator> alloc;

  DaeliteRig(int w, int h, std::uint32_t slots,
             alloc::SlotPolicy policy = alloc::SlotPolicy::kSpread,
             std::size_t queue_cap = 32,
             sim::Scheduler scheduler = sim::Scheduler::kStride, std::uint32_t shards = 1)
      : kernel(scheduler) {
    mesh = topo::make_mesh(w, h);
    hw::DaeliteNetwork::Options opt;
    opt.tdm = tdm::daelite_params(slots);
    opt.cfg_root = mesh.ni(0, 0);
    opt.ni_queue_capacity = queue_cap;
    opt.shards = shards;
    net = std::make_unique<hw::DaeliteNetwork>(kernel, mesh.topo, opt);
    alloc::AllocatorOptions ao;
    ao.slot_policy = policy;
    alloc = std::make_unique<alloc::SlotAllocator>(mesh.topo, opt.tdm, ao);
  }

  alloc::AllocatedConnection connect(topo::NodeId src, std::vector<topo::NodeId> dsts,
                                     std::uint32_t req_slots, std::uint32_t resp_slots = 1) {
    alloc::UseCase uc;
    uc.connections.push_back({"c", src, std::move(dsts), req_slots, resp_slots});
    auto a = alloc::allocate_use_case(*alloc, uc);
    if (!a) {
      std::fprintf(stderr, "bench: allocation failed\n");
      std::abort();
    }
    return a->connections[0];
  }

  /// Stream n words src -> dst (popping as we go). Returns words received.
  std::size_t stream(const hw::ConnectionHandle& h, std::size_t n) {
    hw::Ni& src = net->ni(h.conn.request.src_ni);
    hw::Ni& dst = net->ni(h.conn.request.dst_nis[0]);
    std::size_t pushed = 0, got = 0;
    for (long guard = 0; guard < 4'000'000 && got < n; ++guard) {
      if (pushed < n && src.tx_push(h.src_tx_q, static_cast<std::uint32_t>(pushed))) ++pushed;
      kernel.step();
      while (dst.rx_pop(h.dst_rx_qs[0])) ++got;
    }
    return got;
  }
};

struct AeliteRig {
  topo::Mesh mesh;
  sim::Kernel kernel;
  std::unique_ptr<aelite::AeliteNetwork> net;
  std::unique_ptr<alloc::SlotAllocator> alloc;

  AeliteRig(int w, int h, std::uint32_t slots,
            alloc::SlotPolicy policy = alloc::SlotPolicy::kSpread, bool reserve_cfg = true) {
    mesh = topo::make_mesh(w, h);
    aelite::AeliteNetwork::Options opt;
    opt.tdm = tdm::aelite_params(slots);
    net = std::make_unique<aelite::AeliteNetwork>(kernel, mesh.topo, opt);
    alloc::AllocatorOptions ao;
    ao.slot_policy = policy;
    alloc = std::make_unique<alloc::SlotAllocator>(mesh.topo, opt.tdm, ao);
    if (reserve_cfg) aelite::AeliteNetwork::reserve_config_slots(*alloc);
  }

  alloc::AllocatedConnection connect(topo::NodeId src, topo::NodeId dst, std::uint32_t req_slots,
                                     std::uint32_t resp_slots = 1) {
    alloc::UseCase uc;
    uc.connections.push_back({"c", src, {dst}, req_slots, resp_slots});
    auto a = alloc::allocate_use_case(*alloc, uc);
    if (!a) {
      std::fprintf(stderr, "bench: aelite allocation failed\n");
      std::abort();
    }
    return a->connections[0];
  }

  std::size_t stream(const aelite::AeliteConnectionHandle& h, std::size_t n) {
    aelite::Ni& src = net->ni(h.conn.request.src_ni);
    aelite::Ni& dst = net->ni(h.conn.request.dst_nis[0]);
    std::size_t pushed = 0, got = 0;
    for (long guard = 0; guard < 4'000'000 && got < n; ++guard) {
      if (pushed < n && src.tx_push(h.src_tx_q, static_cast<std::uint32_t>(pushed))) ++pushed;
      kernel.step();
      while (dst.rx_pop(h.dst_rx_q)) ++got;
    }
    return got;
  }
};

} // namespace daelite::bench
