#include "daelite/router.hpp"

#include <bit>
#include <cassert>

#include "sim/log.hpp"

namespace daelite::hw {

Router::Router(sim::Kernel& k, std::string name, std::uint16_t cfg_id, std::size_t num_inputs,
               std::size_t num_outputs, tdm::TdmParams params)
    // The router only acts on slot boundaries, so it registers a tick
    // stride of words_per_slot; the guard in tick() stays for the
    // reference scheduler, which dispatches every cycle.
    : sim::Component(k, name, sim::Cadence{params.words_per_slot, 0}),
      cfg_id_(cfg_id),
      params_(params),
      table_(num_outputs, params.num_slots),
      inputs_(num_inputs, nullptr),
      outputs_(num_outputs),
      cfg_agent_(k, name + ".cfg", *this, params) {
  assert(params_.valid());
  // The hardware model advances flits one element per slot, i.e. the
  // per-hop latency equals one slot. This holds for the paper's
  // configurations (2-word slots / 2-cycle hops); 1-word slots (shift 2)
  // are supported by the allocator and analytics only.
  assert(params_.slot_shift_per_hop() == 1 && "hardware model requires hop_cycles == words_per_slot");
  assert(num_inputs <= 8 && num_outputs <= 8 && "port ids are 3 bits in config words");
  forwarded_per_out_.resize(num_outputs, 0); // the outputs latch through dirty_, not own()
}

void Router::tick() {
  if (!params_.is_slot_start(now())) return;
  forward(params_.slot_of_cycle(now()));
}

void Router::forward(tdm::Slot slot) {
  std::uint8_t present = 0;
  for (std::size_t i = 0; i < inputs_.size(); ++i)
    if (inputs_[i] != nullptr && inputs_[i]->get().valid) present |= 1u << i;
  std::uint8_t consumed = 0;
  std::uint8_t valid_out = 0;
  for (unsigned m = table_.out_mask(slot); m != 0; m &= m - 1) {
    const auto o = static_cast<std::size_t>(std::countr_zero(m));
    const tdm::PortIndex in = table_.input_for(o, slot);
    if (in >= inputs_.size() || ((present >> in) & 1u) == 0) continue;
    outputs_[o].set(inputs_[in]->get());
    consumed |= 1u << in;
    valid_out |= 1u << o;
    ++stats_.flits_forwarded;
    ++forwarded_per_out_[o];
    trace(sim::TraceEvent::kFlitForward, o, in);
  }
  const std::uint8_t stale = latched_ & ~valid_out;
  for (unsigned m = stale; m != 0; m &= m - 1) outputs_[std::countr_zero(m)].next().valid = false;
  dirty_ = valid_out | stale;
  latched_ = valid_out;
  stats_.flits_in += static_cast<std::uint64_t>(std::popcount(present));
  for (unsigned m = present & ~consumed; m != 0; m &= m - 1) {
    const int i = std::countr_zero(m);
    ++stats_.flits_dropped;
    trace(sim::TraceEvent::kFlitDrop, slot, i);
    sim::log_debug(name(), "dropped flit at input ", i, " slot ", slot, " (no slot-table entry)");
  }
}

void Router::commit() {
  for (unsigned m = dirty_; m != 0; m &= m - 1) outputs_[std::countr_zero(m)].commit_reg();
  dirty_ = 0;
  assert(outputs_latched() && "an output was written without its dirty bit");
}

bool Router::outputs_latched() const {
  for (const sim::Reg<Flit>& o : outputs_)
    if (o.next() != o.get()) return false;
  return true;
}

bool Router::quiescent() const {
  for (const sim::Reg<Flit>* in : inputs_) {
    if (in != nullptr && in->get().valid) return false;
  }
  for (const sim::Reg<Flit>& o : outputs_) {
    if (o.get().valid) return false;
  }
  return true;
}

void Router::cfg_apply_path(std::uint64_t slot_mask, std::uint8_t port_word, bool setup) {
  const std::uint8_t in = router_in_port(port_word);
  const std::uint8_t out = router_out_port(port_word);
  // The 3-bit port fields can decode to ports this router does not have
  // (a corrupted word, or a packet for a differently-shaped router whose
  // id matched after corruption). A real decoder has no wires past its
  // port count; reject and count instead of indexing past the table.
  if (out >= outputs_.size() || in >= inputs_.size()) {
    ++stats_.cfg_errors;
    trace(sim::TraceEvent::kCfgError, port_word);
    return;
  }
  trace(sim::TraceEvent::kTableWrite, slot_mask, port_word | (setup ? 0x100u : 0u));
  for (tdm::Slot s = 0; s < params_.num_slots; ++s) {
    if ((slot_mask & (1ull << s)) == 0) continue;
    if (setup) {
      table_.set(out, s, in);
    } else {
      table_.clear(out, s);
    }
    ++stats_.table_writes;
  }
}

} // namespace daelite::hw
