#include "daelite/slot_engine.hpp"

#include <algorithm>
#include <cassert>

namespace daelite::hw {

SlotEngine::SlotEngine(sim::Kernel& k, std::string name, tdm::TdmParams params)
    : sim::Component(k, std::move(name), sim::Cadence{params.words_per_slot, 0}),
      params_(params) {
  assert(params_.valid());
}

void SlotEngine::add_router(Router& r) {
  assert(!finalized_);
  assert(r.params_.num_slots == params_.num_slots &&
         r.params_.words_per_slot == params_.words_per_slot);
  assert(r.quiescent() && r.latched_ == 0 && "the router starts with no output latched valid");
  items_.push_back({&r, nullptr});
}

void SlotEngine::add_ni(Ni& n) {
  assert(!finalized_);
  assert(n.params().tdm.num_slots == params_.num_slots);
  items_.push_back({nullptr, &n});
}

void SlotEngine::finalize(std::uint32_t shard) {
  assert(!finalized_);
  finalized_ = true;
  for (const Item& it : items_) kernel().suspend(it.element());
  kernel().set_dispatch_weight(*this, static_cast<std::uint32_t>(items_.size()));
  kernel().assign_shard(*this, shard);
  ticked_.reserve(items_.size());
}

void SlotEngine::tick() {
  if (!params_.is_slot_start(now())) return; // kReference never dispatches us; belt and braces
  const tdm::Slot slot = params_.slot_of_cycle(now());
  ticked_.clear();
  for (Item& it : items_) {
    if (it.ni != nullptr) {
      if (it.ni->slot_quiet(slot)) continue;
      kernel().set_stage_key(*it.ni); // its trace() records merge at its own index
      it.ni->slot_tick(slot);
    } else {
      const auto& ins = it.router->inputs_;
      const bool any_in = std::any_of(ins.begin(), ins.end(), [](const sim::Reg<Flit>* in) {
        return in != nullptr && in->get().valid;
      });
      if (!any_in && it.router->latched_ == 0) continue; // idle neighbourhood: skip whole element
      kernel().set_stage_key(*it.router);
      it.router->forward(slot);
    }
    ticked_.push_back(&it.element());
  }
}

void SlotEngine::commit() {
  sim::Component::commit(); // the engine owns no registers; kept for symmetry
  for (sim::Component* c : ticked_) commit_on_behalf(*c);
  ticked_.clear();
}

bool SlotEngine::quiescent() const {
  for (const Item& it : items_) {
    if (!it.element().quiescent()) return false;
  }
  return true;
}

} // namespace daelite::hw
