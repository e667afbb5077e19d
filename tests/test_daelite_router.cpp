// Unit tests for the daelite router: blind slot-table forwarding, 2-cycle
// hop latency, multicast duplication, drop accounting, config application.

#include <gtest/gtest.h>

#include <tuple>

#include "daelite/router.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace daelite;
using namespace daelite::hw;

/// Drives a Reg<Flit> from test code; clears it after one slot unless
/// re-driven (so stale values never linger, like a real upstream element).
class FlitStub : public sim::Component {
 public:
  FlitStub(sim::Kernel& k, std::string name, tdm::TdmParams p)
      : sim::Component(k, std::move(name)), params_(p) {
    own(out_);
  }
  const sim::Reg<Flit>& out() const { return out_; }

  /// Schedule `f` to appear on the output register at the next slot start.
  void drive(const Flit& f) { pending_ = f; }

  void tick() override {
    if (!params_.is_slot_start(now())) return;
    out_.set(pending_);
    pending_ = Flit{};
  }

 private:
  tdm::TdmParams params_;
  sim::Reg<Flit> out_;
  Flit pending_;
};

Flit make_flit(std::uint32_t word, std::uint8_t num_words = 2) {
  Flit f;
  f.valid = true;
  f.num_words = num_words;
  f.data[0] = word;
  f.data_valid[0] = true;
  return f;
}

class RouterTest : public ::testing::Test {
 protected:
  tdm::TdmParams params = tdm::daelite_params(4); // wheel = 8 cycles
  sim::Kernel k;
  FlitStub in0{k, "in0", params};
  FlitStub in1{k, "in1", params};
  Router r{k, "R", /*cfg_id=*/1, /*in=*/2, /*out=*/2, params};

  void SetUp() override {
    r.connect_input(0, &in0.out());
    r.connect_input(1, &in1.out());
  }

  /// Run to the first cycle of the next occurrence of `slot`.
  void run_to_slot(tdm::Slot slot) {
    while (!(params.is_slot_start(k.now()) && params.slot_of_cycle(k.now()) == slot)) k.step();
  }
};

TEST_F(RouterTest, ForwardsPerSlotTableWithOneSlotDelay) {
  // The stub (upstream element) acts in slot 1, so the router acts on the
  // flit in slot 2: the table entry lives at slot 2.
  r.table().set(1, 2, 0);

  run_to_slot(1);
  in0.drive(make_flit(0xABCD)); // stub emits during slot 1
  const bool seen = k.run_until([&] { return r.output_reg(1).get().valid; }, 64);
  ASSERT_TRUE(seen);
  EXPECT_EQ(r.output_reg(1).get().data[0], 0xABCDu);
  EXPECT_EQ(r.stats().flits_forwarded, 1u);
  EXPECT_EQ(r.stats().flits_dropped, 0u);
}

TEST_F(RouterTest, HopLatencyIsExactlyOneSlot) {
  // Program every slot so timing is easy to observe: out 0 <- in 0 always.
  for (tdm::Slot s = 0; s < params.num_slots; ++s) r.table().set(0, s, 0);

  run_to_slot(0);
  in0.drive(make_flit(42)); // stub emits at slot 1's start
  // The stub's output register holds the flit during slot 1; the router
  // reads it at slot 2's start and its output holds it during slot 2.
  sim::Cycle emitted = sim::kNoCycle, forwarded = sim::kNoCycle;
  for (int i = 0; i < 16; ++i) {
    k.step();
    if (emitted == sim::kNoCycle && in0.out().get().valid) emitted = k.now();
    if (forwarded == sim::kNoCycle && r.output_reg(0).get().valid) forwarded = k.now();
  }
  ASSERT_NE(emitted, sim::kNoCycle);
  ASSERT_NE(forwarded, sim::kNoCycle);
  EXPECT_EQ(forwarded - emitted, params.hop_cycles); // 2 cycles per hop
}

TEST_F(RouterTest, UnconfiguredSlotDropsFlit) {
  // No table entry anywhere: a valid arrival must be counted as dropped.
  run_to_slot(0);
  in0.drive(make_flit(7));
  k.run(params.wheel_cycles());
  EXPECT_EQ(r.stats().flits_in, 1u);
  EXPECT_EQ(r.stats().flits_dropped, 1u);
  EXPECT_EQ(r.stats().flits_forwarded, 0u);
}

TEST_F(RouterTest, MulticastDuplicatesToBothOutputs) {
  for (tdm::Slot s = 0; s < params.num_slots; ++s) {
    r.table().set(0, s, 1);
    r.table().set(1, s, 1);
  }
  run_to_slot(0);
  in1.drive(make_flit(99));
  bool both = k.run_until(
      [&] { return r.output_reg(0).get().valid && r.output_reg(1).get().valid; }, 32);
  ASSERT_TRUE(both);
  EXPECT_EQ(r.output_reg(0).get().data[0], 99u);
  EXPECT_EQ(r.output_reg(1).get().data[0], 99u);
  EXPECT_EQ(r.stats().flits_forwarded, 2u); // one per copy
  EXPECT_EQ(r.stats().flits_dropped, 0u);
  EXPECT_EQ(r.stats().flits_in, 1u);
}

TEST_F(RouterTest, InvalidFlitsAreNotCountedOrForwardedAsTraffic) {
  r.table().set(0, 1, 0);
  k.run(4 * params.wheel_cycles()); // idle network
  EXPECT_EQ(r.stats().flits_in, 0u);
  EXPECT_EQ(r.stats().flits_forwarded, 0u);
  EXPECT_FALSE(r.output_reg(0).get().valid);
}

TEST_F(RouterTest, StaleOutputClearsOneSlotLaterAndIdleForwardLatchesNothing) {
  r.table().set(0, 2, 0); // slot 2: out 0 <- in 0; out 1 is scheduled nowhere
  run_to_slot(1);
  in0.drive(make_flit(5)); // on in 0 during slot 1, forwarded in slot 2
  in1.drive(make_flit(6)); // on in 1 during slot 1: no output takes it
  run_to_slot(2);
  k.step();
  ASSERT_TRUE(r.output_reg(0).get().valid);
  EXPECT_FALSE(r.output_reg(1).get().valid);
  EXPECT_EQ(r.stats().flits_dropped, 1u);
  EXPECT_TRUE(r.outputs_latched());

  // The next slot forwards nothing onto out 0: it reads invalid exactly
  // one slot after it latched, keeping its stale payload.
  run_to_slot(3);
  EXPECT_TRUE(r.output_reg(0).get().valid);
  k.step();
  EXPECT_FALSE(r.output_reg(0).get().valid);
  EXPECT_EQ(r.output_reg(0).get().data[0], 5u);

  // From here every forward is idle: it writes nothing for the next
  // commit to latch, and counts nothing.
  for (sim::Cycle i = 0; i < 3 * params.wheel_cycles(); ++i) {
    r.tick();
    EXPECT_TRUE(r.outputs_latched()) << "cycle " << k.now();
    k.step();
  }
  EXPECT_EQ(r.stats().flits_forwarded, 1u);
  EXPECT_EQ(r.stats().flits_in, 2u);
  EXPECT_EQ(r.stats().flits_dropped, 1u); // the unscheduled valid input, counted once
}

TEST_F(RouterTest, CfgApplyPathSetsAndClearsMaskedSlots) {
  // slots {1,3}: out 1 <- in 0.
  const std::uint64_t mask = (1u << 1) | (1u << 3);
  r.cfg_apply_path(mask, encode_router_ports(0, 1), /*setup=*/true);
  EXPECT_EQ(r.table().input_for(1, 1), 0);
  EXPECT_EQ(r.table().input_for(1, 3), 0);
  EXPECT_EQ(r.table().input_for(1, 0), tdm::kUnusedPort);
  EXPECT_EQ(r.stats().table_writes, 2u);

  r.cfg_apply_path(mask, encode_router_ports(0, 1), /*setup=*/false);
  EXPECT_TRUE(r.table().empty());
}

TEST_F(RouterTest, NiOnlyConfigOpsCountAsErrors) {
  r.cfg_write_credit(0, 5);
  r.cfg_set_pair(0, 1);
  EXPECT_EQ(r.stats().cfg_errors, 2u);
}

TEST(RouterScheduler, MulticastIdenticalUnderStrideAndReference) {
  // Two outputs read the same input port in the same slot (multicast):
  // both copies must be forwarded, and the per-output counters must be
  // identical between the stride scheduler and the per-cycle reference.
  const auto run = [](sim::Scheduler sched) {
    const tdm::TdmParams params = tdm::daelite_params(4);
    sim::Kernel k(sched);
    FlitStub in0{k, "in0", params};
    FlitStub in1{k, "in1", params};
    Router r{k, "R", /*cfg_id=*/1, /*in=*/2, /*out=*/2, params};
    r.connect_input(0, &in0.out());
    r.connect_input(1, &in1.out());
    for (tdm::Slot s = 0; s < params.num_slots; ++s) {
      r.table().set(0, s, 1);
      r.table().set(1, s, 1);
    }
    for (std::uint32_t i = 0; i < 5; ++i) {
      in1.drive(make_flit(100 + i));
      k.run(params.wheel_cycles()); // one flit per wheel
    }
    k.run(4 * params.wheel_cycles()); // idle tail: counters must freeze
    return std::tuple{r.forwarded_on(0), r.forwarded_on(1), r.stats().flits_forwarded,
                      r.stats().flits_in, r.stats().flits_dropped};
  };
  const auto stride = run(sim::Scheduler::kStride);
  const auto reference = run(sim::Scheduler::kReference);
  EXPECT_EQ(stride, reference);
  EXPECT_EQ(std::get<0>(stride), 5u); // every copy forwarded, per output
  EXPECT_EQ(std::get<1>(stride), 5u);
  EXPECT_EQ(std::get<2>(stride), 10u);
  EXPECT_EQ(std::get<4>(stride), 0u);
}

TEST(RouterPorts, EncodingRoundTrips) {
  for (std::uint8_t in = 0; in < 8; ++in) {
    for (std::uint8_t out = 0; out < 8; ++out) {
      const std::uint8_t w = encode_router_ports(in, out);
      EXPECT_LT(w, 0x40); // bit 6 clear: distinguishable from NI tx words
      EXPECT_EQ(router_in_port(w), in);
      EXPECT_EQ(router_out_port(w), out);
    }
  }
}

} // namespace
