// Unit tests for the simulation kernel: two-phase semantics, registers,
// FIFOs, counters, RNG determinism, statistics.

#include <gtest/gtest.h>

#include "sim/component.hpp"
#include "sim/fifo.hpp"
#include "sim/kernel.hpp"
#include "sim/log.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/vcd.hpp"

#include <deque>
#include <memory>
#include <sstream>
#include <vector>

namespace {

using namespace daelite::sim;

/// A counter that increments its register every cycle.
class Counter : public Component {
 public:
  Counter(Kernel& k, std::string name) : Component(k, std::move(name)) { own(value_); }
  void tick() override { value_.set(value_.get() + 1); }
  const Reg<int>& value() const { return value_; }

 private:
  Reg<int> value_;
};

/// Copies its input register into its output (1-cycle pipeline stage).
class Stage : public Component {
 public:
  Stage(Kernel& k, std::string name) : Component(k, std::move(name)) { own(out_); }
  void connect(const Reg<int>* in) { in_ = in; }
  void tick() override { out_.set(in_ != nullptr ? in_->get() : 0); }
  const Reg<int>& out() const { return out_; }

 private:
  const Reg<int>* in_ = nullptr;
  Reg<int> out_;
};

TEST(Kernel, CycleCountAdvances) {
  Kernel k;
  EXPECT_EQ(k.now(), 0u);
  k.run(10);
  EXPECT_EQ(k.now(), 10u);
  k.step();
  EXPECT_EQ(k.now(), 11u);
}

TEST(Kernel, RunUntilStopsAtPredicate) {
  Kernel k;
  Counter c(k, "c");
  const bool fired = k.run_until([&] { return c.value().get() == 5; }, 100);
  EXPECT_TRUE(fired);
  EXPECT_EQ(k.now(), 5u);
}

TEST(Kernel, RunUntilTimesOut) {
  Kernel k;
  const bool fired = k.run_until([] { return false; }, 7);
  EXPECT_FALSE(fired);
  EXPECT_EQ(k.now(), 7u);
}

TEST(Kernel, ComponentRegistryTracksLifetime) {
  Kernel k;
  EXPECT_EQ(k.component_count(), 0u);
  {
    Counter c(k, "c");
    EXPECT_EQ(k.component_count(), 1u);
  }
  EXPECT_EQ(k.component_count(), 0u);
}

/// Records the cycle of every dispatched tick (cadence-aware).
class StridedTicker : public Component {
 public:
  StridedTicker(Kernel& k, std::string name, Cadence c) : Component(k, std::move(name), c) {}
  void tick() override { cycles.push_back(now()); }
  std::vector<Cycle> cycles;
};

TEST(Kernel, StrideCadenceDispatchesOnResidue) {
  Kernel k;
  StridedTicker t(k, "t", Cadence{4, 1});
  k.run(13); // cycles 0..12: due where cycle % 4 == 1
  EXPECT_EQ(t.cycles, (std::vector<Cycle>{1, 5, 9}));
  EXPECT_EQ(k.now(), 13u); // fast-forward still lands exactly on the budget
}

TEST(Kernel, ReferenceSchedulerIgnoresCadence) {
  Kernel k(Scheduler::kReference);
  StridedTicker t(k, "t", Cadence{4, 1});
  k.run(8);
  EXPECT_EQ(t.cycles.size(), 8u); // every cycle: the tick's own guard decides
}

/// Owns a second component and destroys it from inside tick() — the
/// kernel must defer the removal (tombstone) and keep dispatching the
/// rest of the cycle safely.
class Destroyer : public Component {
 public:
  Destroyer(Kernel& k, std::string name, Cycle at) : Component(k, std::move(name)), at_(at) {
    victim_ = std::make_unique<Counter>(kernel(), this->name() + ".victim");
  }
  void tick() override {
    if (now() == at_) victim_.reset();
  }

 private:
  Cycle at_;
  std::unique_ptr<Counter> victim_;
};

TEST(Kernel, DestroyingComponentFromTickIsDeferred) {
  // Regression: remove() used to splice the registry mid-iteration, so a
  // component destroying another from tick() invalidated the dispatch
  // loop. `tail` registers after the victim: its registry slot shifts
  // when the tombstone is swept, and it must not lose a single tick.
  for (Scheduler s : {Scheduler::kStride, Scheduler::kReference}) {
    Kernel k(s);
    Destroyer d(k, "d", 3);
    Counter tail(k, "tail");
    EXPECT_EQ(k.component_count(), 3u);
    k.run(10);
    EXPECT_EQ(k.component_count(), 2u);
    EXPECT_EQ(tail.value().get(), 10);
    EXPECT_EQ(k.now(), 10u);
  }
}

TEST(Kernel, RunUntilTimeoutDoesNotReevaluatePredicate) {
  // Regression: the timeout path used to call pred() a second time after
  // the budget elapsed, so side-effecting predicates fired twice.
  for (Scheduler s : {Scheduler::kStride, Scheduler::kReference}) {
    Kernel k(s);
    Counter c(k, "c"); // keeps every cycle non-idle under kStride
    int calls = 0;
    const bool fired = k.run_until(
        [&] {
          ++calls;
          return false;
        },
        7);
    EXPECT_FALSE(fired);
    EXPECT_EQ(k.now(), 7u);
    EXPECT_EQ(calls, 7); // once per cycle boundary, never re-evaluated
  }
}

/// A queue owner with a slow cadence, mutated from outside tick().
class SlotBuffer : public Component {
 public:
  SlotBuffer(Kernel& k, std::string name, std::uint32_t stride)
      : Component(k, std::move(name), Cadence{stride, 0}) {
    own(queue_);
  }
  void push(int v) {
    queue_.push(v);
    external_write();
  }
  const FifoReg<int>& queue() const { return queue_; }
  void tick() override {}

 private:
  FifoReg<int> queue_;
};

TEST(Kernel, ExternalWriteCommitsAtEndOfCurrentCycle) {
  Kernel k;
  SlotBuffer b(k, "b", 8); // due only at cycles % 8 == 0
  Counter c(k, "c");       // keeps the kernel stepping cycle by cycle
  k.step();                // now == 1: b is not due for another 7 cycles
  b.push(42);
  EXPECT_EQ(b.queue().size(), 0u); // pre-edge: not yet committed
  k.step(); // cycle 1 commits the touched component despite its cadence
  EXPECT_EQ(b.queue().size(), 1u);
}

/// Sleeps after its first tick until a fixed wake cycle.
class Napper : public Component {
 public:
  Napper(Kernel& k, std::string name, Cycle wake) : Component(k, std::move(name)), wake_(wake) {}
  void tick() override {
    ticks.push_back(now());
    if (now() == 0) sleep_until(wake_);
  }
  std::vector<Cycle> ticks;

 private:
  Cycle wake_;
};

TEST(Kernel, SleepUntilResumesAtExactWakeCycle) {
  Kernel k;
  Napper n(k, "n", 50);
  k.run(60);
  ASSERT_EQ(n.ticks.size(), 11u); // cycle 0, then 50..59
  EXPECT_EQ(n.ticks[0], 0u);
  EXPECT_EQ(n.ticks[1], 50u);
  EXPECT_EQ(k.now(), 60u);
}

/// Due every cycle but certifies its tick is a no-op (quiescent).
class QuiescentBlock : public Component {
 public:
  using Component::Component;
  void tick() override { ++ticks; }
  bool quiescent() const override { return true; }
  int ticks = 0;
};

TEST(Kernel, QuiescentNetworkFastForwardsWholeSpans) {
  Kernel k;
  QuiescentBlock q(k, "q");
  k.run(100000); // all active components quiescent: skipped wholesale
  EXPECT_EQ(k.now(), 100000u);
  EXPECT_EQ(q.ticks, 0);
  k.step(); // step() never skips
  EXPECT_EQ(q.ticks, 1);
}

TEST(Kernel, NonQuiescentComponentBlocksFastForward) {
  Kernel k;
  QuiescentBlock q(k, "q");
  Counter c(k, "c"); // default quiescent() == false
  k.run(10);
  EXPECT_EQ(q.ticks, 10);
  EXPECT_EQ(c.value().get(), 10);
}

TEST(Reg, HoldsValueAcrossCyclesWithoutSet) {
  Kernel k;
  Stage s(k, "s"); // never connected: writes 0 every cycle
  Reg<int> r(42);
  // A bare Reg not owned by any component is never committed by the
  // kernel, but commit_reg preserves the held value.
  r.commit_reg();
  EXPECT_EQ(r.get(), 42);
}

TEST(Reg, TwoPhaseVisibility) {
  Kernel k;
  Counter c(k, "c");
  Stage s(k, "s");
  s.connect(&c.value());
  k.step(); // c: 0->1 committed; s sampled pre-edge value 0
  EXPECT_EQ(c.value().get(), 1);
  EXPECT_EQ(s.out().get(), 0);
  k.step();
  EXPECT_EQ(c.value().get(), 2);
  EXPECT_EQ(s.out().get(), 1); // exactly one cycle behind
}

TEST(Reg, PipelineDelayIsOneCyclePerStage) {
  Kernel k;
  Counter c(k, "c");
  Stage s1(k, "s1"), s2(k, "s2"), s3(k, "s3");
  s1.connect(&c.value());
  s2.connect(&s1.out());
  s3.connect(&s2.out());
  k.run(10);
  EXPECT_EQ(c.value().get(), 10);
  EXPECT_EQ(s1.out().get(), 9);
  EXPECT_EQ(s2.out().get(), 8);
  EXPECT_EQ(s3.out().get(), 7);
}

TEST(Reg, OrderIndependence) {
  // Same pipeline, components constructed (and hence ticked) in reverse
  // order: results must be identical.
  Kernel k;
  Stage s3(k, "s3"), s2(k, "s2"), s1(k, "s1");
  Counter c(k, "c");
  s1.connect(&c.value());
  s2.connect(&s1.out());
  s3.connect(&s2.out());
  k.run(10);
  EXPECT_EQ(s3.out().get(), 7);
}

TEST(FifoReg, PushVisibleAfterCommit) {
  FifoReg<int> f;
  f.push(1);
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.next_size(), 1u);
  f.commit_reg();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.at(0), 1);
}

TEST(FifoReg, PopReturnsCommittedFront) {
  FifoReg<int> f;
  f.push(1);
  f.push(2);
  f.commit_reg();
  EXPECT_EQ(f.poppable(), 2u);
  EXPECT_EQ(f.pop(), 1);
  EXPECT_EQ(f.poppable(), 1u);
  EXPECT_EQ(f.pop(), 2);
  // Not yet committed: size still 2.
  EXPECT_EQ(f.size(), 2u);
  f.commit_reg();
  EXPECT_EQ(f.size(), 0u);
}

TEST(FifoReg, SimultaneousPushAndPopCommute) {
  FifoReg<int> f;
  f.push(1);
  f.commit_reg();
  // Same cycle: consumer pops the committed word, producer pushes a new one.
  EXPECT_EQ(f.pop(), 1);
  f.push(2);
  f.commit_reg();
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.at(0), 2);
}

/// A model FIFO replaying the documented semantics: reads see the
/// committed queue, the edge drops this cycle's pops and appends its pushes.
struct FifoModel {
  std::deque<int> committed;
  std::vector<int> pushes;
  std::size_t pops = 0;
  void commit() {
    committed.erase(committed.begin(), committed.begin() + static_cast<std::ptrdiff_t>(pops));
    committed.insert(committed.end(), pushes.begin(), pushes.end());
    pushes.clear();
    pops = 0;
  }
};

void expect_matches(const FifoReg<int>& f, const FifoModel& m) {
  ASSERT_EQ(f.size(), m.committed.size());
  ASSERT_EQ(f.poppable(), m.committed.size() - m.pops);
  ASSERT_EQ(f.pending_pushes(), m.pushes.size());
  for (std::size_t i = 0; i < m.committed.size(); ++i) ASSERT_EQ(f.at(i), m.committed[i]) << i;
}

TEST(FifoReg, InterleavedPushPopAcrossManyWrapArounds) {
  // A bounded queue in steady state: its ring never grows past the first
  // fill, so the committed window wraps the ring over and over; at(i) must
  // follow the window across the seam.
  FifoReg<int> f;
  FifoModel m;
  Xoshiro256 rng(11);
  int next = 0;
  for (int cycle = 0; cycle < 5000; ++cycle) {
    const std::size_t pops = rng.below(f.poppable() + 1);
    for (std::size_t i = 0; i < pops; ++i) ASSERT_EQ(f.pop(), m.committed[m.pops++]);
    while (f.next_size() < 12 && rng.chance(0.6)) {
      f.push(next);
      m.pushes.push_back(next++);
    }
    ASSERT_EQ(f.next_size(), m.committed.size() - m.pops + m.pushes.size());
    expect_matches(f, m);
    f.commit_reg();
    m.commit();
    expect_matches(f, m);
  }
  EXPECT_GT(next, 1000); // the ring holds at most 32 entries: it wrapped many times
}

TEST(FifoReg, GrowsPastInitialCapacityWithWordsInFlight) {
  FifoReg<int> f;
  FifoModel m;
  // Park the head mid-ring, so the growth has to unroll a wrapped window.
  for (int v = 0; v < 6; ++v) {
    f.push(v);
    m.pushes.push_back(v);
  }
  f.commit_reg();
  m.commit();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(f.pop(), m.committed[m.pops++]);
  f.commit_reg();
  m.commit();
  // Now grow several times within one cycle while the committed word is
  // being popped: committed, popped and pushed words must all survive.
  EXPECT_EQ(f.pop(), m.committed[m.pops++]);
  for (int v = 100; v < 170; ++v) {
    f.push(v);
    m.pushes.push_back(v);
  }
  expect_matches(f, m);
  EXPECT_EQ(f.next_size(), 70u);
  f.commit_reg();
  m.commit();
  expect_matches(f, m);
  for (int v = 100; v < 170; ++v) EXPECT_EQ(f.pop(), v);
  f.commit_reg();
  EXPECT_TRUE(f.empty());
}

TEST(FifoReg, ClearDropsCommittedPoppedAndPushedWords) {
  FifoReg<int> f;
  for (int v = 0; v < 20; ++v) f.push(v);
  f.commit_reg();
  f.pop();
  f.push(99);
  f.clear();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.poppable(), 0u);
  EXPECT_EQ(f.pending_pushes(), 0u);
  EXPECT_EQ(f.next_size(), 0u);
  f.commit_reg();
  EXPECT_EQ(f.size(), 0u);
  // Usable again, from a clean front.
  f.push(7);
  f.commit_reg();
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.at(0), 7);
  EXPECT_EQ(f.pop(), 7);
}

TEST(FifoReg, CarriesNonTrivialPayloads) {
  // The configuration host queues whole packets (a word vector each);
  // growth and wrap-around must move them intact.
  FifoReg<std::vector<std::uint8_t>> f;
  std::size_t popped = 0;
  for (std::uint8_t n = 1; n < 60; ++n) {
    f.push(std::vector<std::uint8_t>(n, n));
    if (n % 3 == 0) {
      const std::vector<std::uint8_t> p = f.pop();
      ++popped;
      EXPECT_EQ(p, std::vector<std::uint8_t>(popped, static_cast<std::uint8_t>(popped)));
    }
    f.commit_reg();
  }
  ASSERT_EQ(f.size(), 59 - popped);
  for (std::size_t i = 0; i < f.size(); ++i) {
    const auto n = static_cast<std::uint8_t>(popped + 1 + i);
    EXPECT_EQ(f.at(i), std::vector<std::uint8_t>(n, n));
  }
}

TEST(CounterReg, AddAndSubAccumulate) {
  CounterReg c;
  c.force(10);
  c.add(5);
  c.sub(3);
  EXPECT_EQ(c.get(), 10u); // committed view unchanged mid-cycle
  c.commit_reg();
  EXPECT_EQ(c.get(), 12u);
}

TEST(Xoshiro, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Xoshiro, BelowIsInRangeAndCoversValues) {
  Xoshiro256 r(7);
  bool seen[10] = {};
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.below(10);
    ASSERT_LT(v, 10u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Xoshiro, RangeInclusive) {
  Xoshiro256 r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
  }
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 r(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(ScalarStat, BasicMoments) {
  ScalarStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-9);
}

TEST(ScalarStat, EmptyIsZero) {
  ScalarStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h(16);
  for (std::uint64_t v = 0; v < 10; ++v) h.add(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.quantile(0.1), 0u);
  EXPECT_EQ(h.quantile(0.5), 4u);
  EXPECT_EQ(h.quantile(1.0), 9u);
  EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Histogram, GrowsInsteadOfOverflowing) {
  // Regression: a sample past the initial bucket span used to land in the
  // overflow bucket, silently clamping every later quantile to max().
  // The bucket array now grows geometrically, so the sample stays exact.
  Histogram h(4);
  h.add(100);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket(100), 1u);
  EXPECT_EQ(h.quantile(0.5), 100u);
  EXPECT_EQ(h.max(), 100.0);
}

TEST(Histogram, QuantilesExactPastDefaultCapacity) {
  // The latency-quantile saturation bug: a default histogram held 1024
  // exact buckets, so any latency >= 1024 cycles pushed p50/p90/p99 to
  // max(). Quantiles must stay exact well past that.
  Histogram h;
  for (std::uint64_t v = 2000; v < 3000; ++v) h.add(v);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.quantile(0.5), 2499u);
  EXPECT_EQ(h.quantile(0.9), 2899u);
  EXPECT_EQ(h.quantile(0.99), 2989u);
  EXPECT_EQ(h.quantile(1.0), 2999u);
}

TEST(Histogram, OverflowOnlyPastGrowthCap) {
  // Growth is capped (kMaxBuckets); only samples beyond the cap overflow,
  // and for those quantile() still falls back to max().
  Histogram h(4);
  h.add(std::uint64_t{1} << 20);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.quantile(0.5), std::uint64_t{1} << 20);
}

TEST(Histogram, QuantileZeroIsMinimum) {
  // Regression: ceil(0 * n) == 0 made quantile(0.0) scan for a cumulative
  // count of 0, which the first non-empty bucket always satisfies — so a
  // stream with no samples below 5 reported quantile(0.0) == 0 instead of 5.
  Histogram h(16);
  for (std::uint64_t v = 5; v <= 9; ++v) h.add(v);
  EXPECT_EQ(h.quantile(0.0), 5u);
  EXPECT_EQ(h.quantile(0.0), static_cast<std::uint64_t>(h.min()));
  EXPECT_EQ(h.quantile(1.0), 9u);
}

TEST(Histogram, MergeGrowsToCoverSource) {
  Histogram a(8);
  Histogram b(16);
  a.add(1);
  a.add(2);
  b.add(2);
  b.add(12);  // beyond a's initial span: a must grow, not overflow
  b.add(200); // beyond b's too — b grew on add, a grows on merge
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.bucket(2), 2u);
  EXPECT_EQ(a.bucket(12), 1u);
  EXPECT_EQ(a.bucket(200), 1u);
  EXPECT_EQ(a.overflow(), 0u);
  EXPECT_EQ(a.quantile(1.0), 200u);
  EXPECT_EQ(a.min(), 1.0);
  EXPECT_EQ(a.max(), 200.0);
}

TEST(ScalarStat, WelfordVarianceIsStableForLargeMeans) {
  // Regression: the old sum-of-squares formula (E[x^2] - E[x]^2) cancels
  // catastrophically when the mean dwarfs the spread and could go negative.
  ScalarStat s;
  const double base = 1e9;
  for (double d : {0.0, 1.0, 2.0}) s.add(base + d);
  EXPECT_GE(s.variance(), 0.0);
  // Population variance of {0,1,2} is 2/3 regardless of offset.
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-3);
  EXPECT_NEAR(s.mean(), base + 1.0, 1e-3);
}

TEST(ScalarStat, VarianceNeverNegative) {
  ScalarStat s;
  for (int i = 0; i < 100; ++i) s.add(1e12 + 0.1);
  EXPECT_GE(s.variance(), 0.0);
  EXPECT_NEAR(s.variance(), 0.0, 1e-3);
}

TEST(ScalarStat, MergeMatchesSequentialFeed) {
  ScalarStat a;
  ScalarStat b;
  ScalarStat all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 50; i < 70; ++i) {
    b.add(i);
    all.add(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Tracer, RecordsAndCounts) {
  Tracer t;
  const auto a = t.intern("a");
  const auto b = t.intern("b");
  t.record(1, a, TraceEvent::kFlitInject, 7);
  t.record(2, b, TraceEvent::kFlitInject);
  t.record(3, a, TraceEvent::kFlitDeliver);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.count(TraceEvent::kFlitInject), 2u);
  EXPECT_EQ(t.count("inject"), 2u);
  EXPECT_EQ(t.count(TraceEvent::kFlitDeliver), 1u);
  EXPECT_EQ(t.name(a), "a");
  EXPECT_EQ(t.intern("a"), a); // interning is idempotent
}

TEST(Tracer, DisabledDropsRecords) {
  Tracer t(false);
  t.record(1, 0, TraceEvent::kFlitInject);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Vcd, HeaderDeclaresSignalsInScopes) {
  std::ostringstream os;
  VcdWriter vcd(os);
  int v = 0;
  vcd.add_signal("nodeA.valid", 1, [&] { return static_cast<std::uint64_t>(v); });
  vcd.add_signal("nodeA.data", 8, [&] { return 0xABull; });
  vcd.sample(0);
  const std::string s = os.str();
  EXPECT_NE(s.find("$scope module nodeA $end"), std::string::npos);
  EXPECT_NE(s.find("$var wire 1"), std::string::npos);
  EXPECT_NE(s.find("$var wire 8"), std::string::npos);
  EXPECT_NE(s.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(s.find("b10101011"), std::string::npos); // initial snapshot
}

TEST(Vcd, OnlyChangesAreEmitted) {
  std::ostringstream os;
  VcdWriter vcd(os);
  std::uint64_t v = 0;
  vcd.add_signal("s.x", 1, [&] { return v; });
  vcd.sample(0); // snapshot
  const std::size_t after_snapshot = os.str().size();
  vcd.sample(1); // no change: nothing written
  EXPECT_EQ(os.str().size(), after_snapshot);
  v = 1;
  vcd.sample(2);
  EXPECT_NE(os.str().find("#2"), std::string::npos);
}

TEST(Vcd, WideValuesRoundTripMsbFirst) {
  std::ostringstream os;
  VcdWriter vcd(os);
  vcd.add_signal("s.w", 16, [] { return 0b101ull; });
  vcd.sample(0);
  EXPECT_NE(os.str().find("b101 "), std::string::npos); // leading zeros trimmed
}

TEST(Log, LevelGatesOutput) {
  std::ostringstream os;
  std::ostream* old_sink = Log::sink();
  const LogLevel old_level = Log::level();
  Log::set_sink(&os);
  Log::set_level(LogLevel::kWarn);

  log_debug("who", "hidden ", 42);
  EXPECT_TRUE(os.str().empty());
  log_warn("who", "visible ", 42);
  EXPECT_NE(os.str().find("[WARN ] who: visible 42"), std::string::npos);
  log_error("who", "bad");
  EXPECT_NE(os.str().find("[ERROR] who: bad"), std::string::npos);

  Log::set_level(LogLevel::kDebug);
  log_debug("who", "now shown");
  EXPECT_NE(os.str().find("now shown"), std::string::npos);

  Log::set_sink(old_sink);
  Log::set_level(old_level);
}

TEST(Log, NullSinkIsSafe) {
  std::ostream* old_sink = Log::sink();
  Log::set_sink(nullptr);
  log_error("who", "dropped");
  EXPECT_FALSE(Log::enabled(LogLevel::kError));
  Log::set_sink(old_sink);
}

} // namespace
