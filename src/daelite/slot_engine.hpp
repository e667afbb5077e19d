#pragma once
// Batched slot dispatch: the stride scheduler's data path.
//
// Routers and NIs act only on slot boundaries, and in most slots most of
// them have nothing to do. Dispatched one Component at a time, every one
// of them still pays a virtual tick(), a slot re-derivation and a commit
// of every output register, even when its whole neighbourhood is idle.
//
// A SlotEngine dispatches one band of elements (routers + NIs in
// ascending node-id order; DaeliteNetwork builds one engine per shard
// band). At finalize() it suspends the elements (Kernel::suspend): the
// engine, a single Component with the same words_per_slot cadence, ticks
// and commits on their behalf. It enters the kernel's staged dispatch
// path (Kernel::assign_shard + set_dispatch_weight), which runs
// shard-assigned work before the serial set — preserving the
// element-before-config-agent tick order the serial loop has — and keys
// each element's trace records by its own registration index
// (Kernel::set_stage_key), so they merge back exactly where a serial run
// records them.
//
// Forwarding itself is Router::forward, the one rule Router::tick runs
// under the reference scheduler; NIs run their own slot_tick. The win is
// skipping: an element whose links are provably idle this slot — no
// valid flit on any input, no valid flit latched on any output (tracked
// as a per-router uint8 `valid_out` superset; fault injection can only
// clear valid bits, never set them), and for NIs nothing queued and no
// credits owed (Ni::slot_quiet) — is skipped entirely, tick AND commit.
// Skipping is exact for everything observable (registers' valid bits,
// counters, traces, reports): the only divergence is the payload bytes of
// stale *invalid* flits left in output registers, which every consumer
// gates on `valid` before reading. The VCD probes (vcd_probes.hpp) are
// the exception: they sample NI payloads ungated, and a ctest
// (cli_vcd_scheduler_identity) pins their output against the reference
// on the shipped scenarios. External queue writes
// to skipped NIs still commit through the kernel's touched pass, which
// the engine leaves untouched for elements it did not tick.
//
// The reference scheduler ignores suspension, so DaeliteNetwork builds no
// engine under kReference: there every element ticks itself, and the
// reference remains the byte-identity oracle for this path.

#include <cstdint>
#include <string>
#include <vector>

#include "daelite/ni.hpp"
#include "daelite/router.hpp"
#include "sim/component.hpp"
#include "tdm/params.hpp"

namespace daelite::hw {

class SlotEngine final : public sim::Component {
 public:
  SlotEngine(sim::Kernel& k, std::string name, tdm::TdmParams params);

  /// Add elements in ascending kernel-registration order (ascending node
  /// id): trace records stage under each element's registration index,
  /// and the staged buffer must stay ascending for the kernel's k-way
  /// merge. Call before finalize(); elements must be fully wired and
  /// carry no valid flit yet.
  void add_router(Router& r);
  void add_ni(Ni& n);

  /// Suspend every added element and enter the kernel's staged dispatch
  /// path on `shard`. Call once, before the simulation runs.
  void finalize(std::uint32_t shard);

  std::size_t element_count() const { return items_.size(); }

  void tick() override;
  /// Latches exactly the elements tick() dispatched this slot (clearing
  /// their pending external-write marks, as the kernel's own due-list
  /// commit would); skipped elements have nothing to latch.
  void commit() override;
  /// Quiescent iff every covered element is — the engine answers the
  /// kernel's whole-network fast-forward for its suspended band.
  bool quiescent() const override;

 private:
  /// One dispatch slot, in element registration order; exactly one of
  /// router / ni is set.
  struct Item {
    Router* router = nullptr;
    Ni* ni = nullptr;
    std::uint8_t valid_out = 0; ///< router: superset of its valid committed outputs
    sim::Component& element() const {
      return router != nullptr ? static_cast<sim::Component&>(*router) : *ni;
    }
  };

  tdm::TdmParams params_;
  std::vector<Item> items_;
  std::vector<sim::Component*> ticked_; ///< elements dispatched this slot
  bool finalized_ = false;
};

} // namespace daelite::hw
