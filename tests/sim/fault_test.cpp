#include "sim/fault.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"
#include "sim/machine.h"

namespace legate::sim {
namespace {

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 42;
  cfg.task_fault_rate = 0.3;
  FaultInjector a(cfg);
  FaultInjector b(cfg);
  for (long t = 0; t < 500; ++t) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(a.should_fail(t, k), b.should_fail(t, k));
      EXPECT_DOUBLE_EQ(a.fail_fraction(t, k), b.fail_fraction(t, k));
    }
  }
}

TEST(FaultInjector, ScheduleIsPureFunctionOfArguments) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 7;
  cfg.task_fault_rate = 0.5;
  FaultInjector inj(cfg);
  // Query in two different orders; answers must not depend on call history.
  std::vector<bool> forward, backward;
  for (long t = 0; t < 100; ++t) forward.push_back(inj.should_fail(t, 0));
  for (long t = 99; t >= 0; --t) backward.push_back(inj.should_fail(t, 0));
  for (long t = 0; t < 100; ++t) {
    EXPECT_EQ(forward[static_cast<std::size_t>(t)],
              backward[static_cast<std::size_t>(99 - t)]);
  }
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  FaultConfig a;
  a.enabled = true;
  a.seed = 1;
  a.task_fault_rate = 0.5;
  FaultConfig b = a;
  b.seed = 2;
  FaultInjector ia(a), ib(b);
  int differ = 0;
  for (long t = 0; t < 200; ++t) {
    if (ia.should_fail(t, 0) != ib.should_fail(t, 0)) ++differ;
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultInjector, RateZeroNeverFailsRateOneAlwaysFails) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 3;
  cfg.task_fault_rate = 0.0;
  FaultInjector never(cfg);
  cfg.task_fault_rate = 1.0;
  FaultInjector always(cfg);
  for (long t = 0; t < 100; ++t) {
    EXPECT_FALSE(never.should_fail(t, 0));
    EXPECT_TRUE(always.should_fail(t, 0));
  }
}

TEST(FaultInjector, ScriptedFaultHonored) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.scripted = {{7, 0}, {7, 1}, {11, 2}};
  FaultInjector inj(cfg);
  EXPECT_TRUE(inj.should_fail(7, 0));
  EXPECT_TRUE(inj.should_fail(7, 1));
  EXPECT_FALSE(inj.should_fail(7, 2));
  EXPECT_TRUE(inj.should_fail(11, 2));
  EXPECT_FALSE(inj.should_fail(8, 0));
}

TEST(FaultInjector, DuplicateScriptedEntriesBehaveLikeOne) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.scripted = {{7, 0}, {7, 0}, {7, 0}};
  FaultInjector inj(cfg);
  // A duplicated {task, attempt} entry is idempotent: the pair fails, its
  // neighbors do not, and repeated queries agree (pure function).
  EXPECT_TRUE(inj.should_fail(7, 0));
  EXPECT_TRUE(inj.should_fail(7, 0));
  EXPECT_FALSE(inj.should_fail(7, 1));
  EXPECT_FALSE(inj.should_fail(6, 0));

  FaultConfig one = cfg;
  one.scripted = {{7, 0}};
  FaultInjector single(one);
  for (long t = 0; t < 50; ++t) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(inj.should_fail(t, k), single.should_fail(t, k));
    }
  }
}

TEST(FaultInjector, ScriptedAttemptBeyondMaxAttemptsIsInert) {
  // An entry whose attempt index can never be reached (attempt >=
  // max_attempts) answers true if asked, but the reachable attempts of the
  // same task are untouched — the schedule of a run that retries up to
  // max_attempts times is identical to one with no such entry.
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.max_attempts = 3;
  cfg.scripted = {{5, 7}};
  FaultInjector inj(cfg);
  EXPECT_TRUE(inj.should_fail(5, 7));  // honored if queried...
  for (int k = 0; k < cfg.max_attempts; ++k) {
    EXPECT_FALSE(inj.should_fail(5, k));  // ...invisible to real attempts
  }
}

TEST(FaultInjector, ScriptedEntriesDoNotPerturbTheRandomStream) {
  // Scripted faults overlay the random stream; everywhere off-script the two
  // schedules must be bit-identical.
  FaultConfig random_only;
  random_only.enabled = true;
  random_only.seed = 99;
  random_only.task_fault_rate = 0.25;
  FaultConfig mixed = random_only;
  mixed.scripted = {{13, 1}, {13, 1}, {40, 9}};
  FaultInjector r(random_only), m(mixed);
  for (long t = 0; t < 300; ++t) {
    for (int k = 0; k < 3; ++k) {
      if (t == 13 && k == 1) {
        EXPECT_TRUE(m.should_fail(t, k));
        continue;
      }
      EXPECT_EQ(r.should_fail(t, k), m.should_fail(t, k));
      EXPECT_DOUBLE_EQ(r.fail_fraction(t, k), m.fail_fraction(t, k));
    }
  }
}

TEST(FaultInjector, FlipDrawsArePureAndSeeded) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 17;
  cfg.bitflip_rate = 1e-3;
  cfg.output_flip_rate = 0.2;
  FaultInjector a(cfg), b(cfg);
  for (long s = 0; s < 100; ++s) {
    EXPECT_EQ(a.resident_flips(s, 4, 2048.0), b.resident_flips(s, 4, 2048.0));
    EXPECT_EQ(a.flip_offset(s, 4, 0, 8192), b.flip_offset(s, 4, 0, 8192));
    EXPECT_LT(a.flip_offset(s, 4, 0, 8192), 8192U);
    EXPECT_EQ(a.flip_bit(s, 4, 0), b.flip_bit(s, 4, 0));
    EXPECT_GE(a.flip_bit(s, 4, 0), 0);
    EXPECT_LT(a.flip_bit(s, 4, 0), 8);
    EXPECT_EQ(a.output_flip(s), b.output_flip(s));
    EXPECT_EQ(a.output_flip_index(s, 1024), b.output_flip_index(s, 1024));
    EXPECT_LT(a.output_flip_index(s, 1024), 1024U);
    // Output flips live in the exponent bits so scaled checks must see them.
    EXPECT_GE(a.output_flip_bit(s), 52);
    EXPECT_LE(a.output_flip_bit(s), 62);
  }
}

TEST(FaultInjector, ResidentFlipCountTracksExposure) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 5;
  cfg.bitflip_rate = 0.5;
  FaultInjector inj(cfg);
  // The expectation rate * byte_seconds is honored as floor + thinned extra.
  EXPECT_EQ(inj.resident_flips(0, 1, 0.0), 0);
  EXPECT_GE(inj.resident_flips(0, 1, 8.0), 4);   // lambda = 4.0 exactly
  EXPECT_LE(inj.resident_flips(0, 1, 8.0), 5);
  long total = 0;
  for (long s = 0; s < 2000; ++s) total += inj.resident_flips(s, 1, 1.0);
  // lambda = 0.5 per poll: the thinned draw should land near 1000.
  EXPECT_GT(total, 800);
  EXPECT_LT(total, 1200);
}

TEST(FaultInjector, ScriptedFlipsFireExactlyOnceInTimeOrder) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.scripted_flips = {{1.0, 0, 10, 0, 0}, {2.0, 0, 11, 8, 3},
                        {2.0, 0, 11, 9, 4}};
  FaultInjector inj(cfg);
  EXPECT_TRUE(inj.scripted_flips_due(0.5).empty());
  auto first = inj.scripted_flips_due(1.5);
  ASSERT_EQ(first.size(), 1U);
  EXPECT_EQ(first[0], 0U);
  auto rest = inj.scripted_flips_due(3.0);
  ASSERT_EQ(rest.size(), 2U);  // both t=2 entries, each exactly once
  EXPECT_EQ(rest[0], 1U);
  EXPECT_EQ(rest[1], 2U);
  EXPECT_TRUE(inj.scripted_flips_due(10.0).empty());
}

TEST(FaultInjector, FailFractionInRange) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 9;
  FaultInjector inj(cfg);
  for (long t = 0; t < 200; ++t) {
    double f = inj.fail_fraction(t, 0);
    EXPECT_GE(f, 0.1);
    EXPECT_LT(f, 1.0);
  }
}

TEST(FaultInjector, NodeLossFiresExactlyOnce) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.node_loss_time = 1.0;
  FaultInjector inj(cfg);
  EXPECT_FALSE(inj.node_loss_due(0.5));
  EXPECT_FALSE(inj.node_loss_fired());
  EXPECT_TRUE(inj.node_loss_due(1.5));
  EXPECT_TRUE(inj.node_loss_fired());
  EXPECT_FALSE(inj.node_loss_due(2.0));
}

TEST(Engine, FreeBytesUnderflowIsCaught) {
  PerfParams pp;
  Machine m = Machine::gpus(1, pp);
  Engine e(m);
  int mem = m.proc(0).mem;
  e.alloc_bytes(mem, 1000.0);
  e.free_bytes(mem, 1000.0);
  // Releasing more than is reserved is a double-free in the alloc store.
  EXPECT_THROW(e.free_bytes(mem, 4096.0), std::logic_error);
}

TEST(Engine, OomMessageReportsUsage) {
  PerfParams pp;
  Machine m = Machine::gpus(1, pp);
  Engine e(m);
  int mem = m.proc(0).mem;
  double cap = e.capacity(mem);
  try {
    e.alloc_bytes(mem, cap + 1.0);
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& err) {
    std::string msg = err.what();
    EXPECT_NE(msg.find("GB used of"), std::string::npos) << msg;
  }
}

TEST(Engine, CheckpointIoChargesAndCounts) {
  PerfParams pp;
  Machine m = Machine::gpus(1, pp);
  Engine e(m);
  double t1 = e.checkpoint_io(1e6, 0.0, /*restore=*/false);
  EXPECT_GT(t1, pp.checkpoint_lat);  // latency + bytes/bw
  double t2 = e.checkpoint_io(1e6, 0.0, /*restore=*/true);
  EXPECT_GT(t2, t1);  // one shared PFS channel serializes traffic
  EXPECT_EQ(e.stats().checkpoints, 1);
  EXPECT_EQ(e.stats().restores, 1);
  EXPECT_DOUBLE_EQ(e.stats().bytes_ckpt, 2e6);
  EXPECT_GE(e.makespan(), t2);
}

TEST(Engine, StallAllAdvancesEveryClock) {
  PerfParams pp;
  Machine m = Machine::gpus(2, pp);
  Engine e(m);
  double before = e.makespan();
  double after = e.stall_all(before, 0.25);
  EXPECT_GE(after, before + 0.25);
  // Processors cannot start work before the outage ends.
  double done = e.busy_proc(0, 0.0, 0.0);
  EXPECT_GE(done, 0.25);
}

TEST(Engine, ResilienceCountersOnlyInReportWhenNonzero) {
  PerfParams pp;
  Machine m = Machine::gpus(1, pp);
  Engine clean(m);
  EXPECT_EQ(clean.report().find("faults{"), std::string::npos);
  Engine faulty(m);
  faulty.emit(Ev::Fault);
  EXPECT_NE(faulty.report().find("faults{"), std::string::npos);
}

}  // namespace
}  // namespace legate::sim
