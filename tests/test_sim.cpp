// Unit tests for the discrete-event core: event ordering, process
// scheduling, conditions, the fiber switch, resources, deterministic RNG,
// time formatting.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

using namespace dcfa::sim;

TEST(Time, Conversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'500'000), 2.5);
}

TEST(Time, TransferTimeMatchesBandwidth) {
  // 1 GB/s == 1 byte/ns.
  EXPECT_EQ(transfer_time(1000, 1.0), 1000);
  EXPECT_EQ(transfer_time(6000, 6.0), 1000);
  EXPECT_EQ(transfer_time(0, 6.0), 0);
  // Sub-nanosecond transfers round up to 1ns, never 0.
  EXPECT_EQ(transfer_time(1, 100.0), 1);
}

TEST(Time, Formatting) {
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(microseconds(13.2)), "13.20us");
  EXPECT_EQ(format_time(milliseconds(2)), "2.00ms");
  EXPECT_EQ(format_time(seconds(1.5)), "1.500s");
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(Engine, TiesBreakInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  engine.schedule_at(100, [] {});
  engine.run();
  EXPECT_EQ(engine.now(), 100);
  EXPECT_THROW(engine.schedule_at(50, [] {}), std::logic_error);
}

TEST(Engine, NestedScheduling) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(10, [&] {
    engine.schedule_after(5, [&] { fired = 1; });
  });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 15);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine engine;
  int count = 0;
  engine.schedule_at(10, [&] { ++count; });
  engine.schedule_at(20, [&] { ++count; });
  engine.schedule_at(30, [&] { ++count; });
  engine.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(engine.now(), 20);
  engine.run();
  EXPECT_EQ(count, 3);
}

TEST(Process, WaitAdvancesVirtualTime) {
  Engine engine;
  Time observed = -1;
  engine.spawn("p", [&](Process& p) {
    p.wait(microseconds(5));
    p.wait(microseconds(7));
    observed = p.now();
  });
  engine.run();
  EXPECT_EQ(observed, microseconds(12));
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Engine engine;
  std::vector<std::pair<char, Time>> log;
  engine.spawn("a", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      log.push_back({'a', p.now()});
      p.wait(10);
    }
  });
  engine.spawn("b", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      log.push_back({'b', p.now()});
      p.wait(15);
    }
  });
  engine.run();
  const std::vector<std::pair<char, Time>> expected = {
      {'a', 0},  {'b', 0},  {'a', 10}, {'b', 15},
      {'a', 20}, {'b', 30},
  };
  EXPECT_EQ(log, expected);
}

TEST(Process, ConditionWakesAllWaiters) {
  Engine engine;
  Condition cond(engine, "c");
  int woken = 0;
  bool ready = false;
  for (int i = 0; i < 4; ++i) {
    engine.spawn("w" + std::to_string(i), [&](Process& p) {
      while (!ready) p.wait_on(cond);
      ++woken;
    });
  }
  engine.spawn("notifier", [&](Process& p) {
    p.wait(100);
    ready = true;
    cond.notify_all();
  });
  engine.run();
  EXPECT_EQ(woken, 4);
}

TEST(Process, SpuriousWakeupsAreHandledByPredicateLoops) {
  Engine engine;
  Condition cond(engine, "c");
  bool ready = false;
  int wakeups = 0;
  engine.spawn("waiter", [&](Process& p) {
    while (!ready) {
      p.wait_on(cond);
      ++wakeups;
    }
  });
  engine.spawn("noise", [&](Process& p) {
    p.wait(10);
    cond.notify_all();  // spurious: predicate still false
    p.wait(10);
    ready = true;
    cond.notify_all();
  });
  engine.run();
  EXPECT_EQ(wakeups, 2);
}

TEST(Process, DeadlockIsDetectedAndNamed) {
  Engine engine;
  Condition never(engine, "never");
  engine.spawn("stuck_one", [&](Process& p) {
    while (true) p.wait_on(never);
  });
  try {
    engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("stuck_one"), std::string::npos);
  }
}

TEST(Process, ExceptionInBodyPropagatesFromRun) {
  Engine engine;
  engine.spawn("thrower", [&](Process& p) {
    p.wait(5);
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Process, ExceptionBeatsDeadlockReport) {
  // A dead process usually strands its peers; the root cause must surface.
  Engine engine;
  Condition never(engine, "never");
  engine.spawn("stuck", [&](Process& p) {
    while (true) p.wait_on(never);
  });
  engine.spawn("thrower", [&](Process&) {
    throw std::runtime_error("root cause");
  });
  try {
    engine.run();
    FAIL() << "expected exception";
  } catch (const DeadlockError&) {
    FAIL() << "deadlock masked the real error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "root cause");
  }
}

TEST(Process, ManyProcessesAllFinish) {
  Engine engine;
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    engine.spawn("p" + std::to_string(i), [&, i](Process& p) {
      p.wait(i * 3 + 1);
      ++done;
    });
  }
  engine.run();
  EXPECT_EQ(done, 64);
  EXPECT_EQ(engine.live_processes(), 0u);
}

TEST(Engine, DeterministicEventCountAcrossRuns) {
  auto run_once = [] {
    Engine engine;
    Condition cond(engine, "c");
    bool flag = false;
    engine.spawn("a", [&](Process& p) {
      p.wait(7);
      flag = true;
      cond.notify_all();
    });
    engine.spawn("b", [&](Process& p) {
      while (!flag) p.wait_on(cond);
      p.wait(3);
    });
    engine.run();
    return std::pair(engine.now(), engine.events_executed());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, CountsTwoFiberSwitchesPerResume) {
  Engine engine;
  engine.spawn("p", [](Process& p) {
    for (int i = 0; i < 3; ++i) p.wait(1);
  });
  engine.run();
  // Resumed at spawn and after each of the three waits; each resume
  // switches into the fiber and back.
  EXPECT_EQ(engine.fiber_switches(), 8u);
}

// --- The hand-built first frame and the switch's saved state ---------------

TEST(Fiber, FirstEntryStackIsAbiAligned) {
  std::uintptr_t misalign = 1;
  char text[32] = {};
  Fiber f(
      [&] {
        alignas(16) char local[16] = {};
        // Read back through a volatile so the compiler cannot fold the
        // check from the declared alignment.
        void* volatile where = local;
        misalign = reinterpret_cast<std::uintptr_t>(where) % 16;
        // printf's floating-point path spills SSE registers with aligned
        // moves: a misaligned entry frame crashes here.
        std::snprintf(text, sizeof text, "%f", 2.5);
      },
      64 * 1024);
  f.resume();
  EXPECT_EQ(misalign, 0u);
  EXPECT_STREQ(text, "2.500000");
}

namespace {
// 1/3 rounded under the current MXCSR mode; the volatile keeps the division
// at run time.
double third() {
  volatile double one = 1.0;
  return one / 3.0;
}
}  // namespace

TEST(Fiber, RoundingModeStaysWithItsFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = third();
  int a_mode = -1, b_mode = -1, engine_mode = -1;
  double a_third = 0, b_third = 0, engine_third = 0;
  Engine engine;
  engine.spawn("a", [&](Process& p) {
    std::fesetround(FE_UPWARD);
    p.wait(10);  // b runs and the engine steps while a is parked
    a_mode = std::fegetround();
    a_third = third();
  });
  engine.spawn("b", [&](Process& p) {
    b_mode = std::fegetround();  // first entry, right after a parked
    b_third = third();
    p.wait(5);
    std::fesetround(FE_DOWNWARD);  // and finishes in that mode
  });
  engine.schedule_at(7, [&] {
    engine_mode = std::fegetround();
    engine_third = third();
  });
  engine.run();
  // The x87 control word (fegetround) and MXCSR (the SSE division) both
  // follow the fiber that set them.
  EXPECT_EQ(a_mode, FE_UPWARD);
  EXPECT_GT(a_third, nearest);
  EXPECT_EQ(b_mode, FE_TONEAREST);
  EXPECT_EQ(b_third, nearest);
  EXPECT_EQ(engine_mode, FE_TONEAREST);
  EXPECT_EQ(engine_third, nearest);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(third(), nearest);
}

namespace {
struct UnwindCounter {
  int* n;
  ~UnwindCounter() { ++*n; }
};

[[gnu::noinline]] int throw_from_depth(int depth, int* unwound) {
  UnwindCounter guard{unwound};
  if (depth == 0) throw std::runtime_error("bottom");
  return throw_from_depth(depth - 1, unwound) + 1;  // not a tail call
}
}  // namespace

TEST(Fiber, ExceptionThrownDeepIsCaughtInsideTheFiber) {
  std::string caught;
  int unwound = 0;
  bool ran_on = false;
  Engine engine;
  engine.spawn("deep", [&](Process& p) {
    p.wait(1);  // throw after a switch back in, not only on first entry
    try {
      throw_from_depth(64, &unwound);
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    p.wait(1);
    ran_on = true;
  });
  engine.run();
  EXPECT_EQ(caught, "bottom");
  EXPECT_EQ(unwound, 65);  // every frame's destructor ran
  EXPECT_TRUE(ran_on);
}

TEST(Resource, FifoBooking) {
  Resource r("r");
  EXPECT_EQ(r.acquire(0, 10), 10);
  EXPECT_EQ(r.acquire(0, 10), 20);   // queues behind the first booking
  EXPECT_EQ(r.acquire(50, 10), 60);  // idle gap honoured
  EXPECT_EQ(r.free_at(), 60);
  EXPECT_EQ(r.busy_total(), 30);
}

TEST(Rng, DeterministicAndRangeRespecting) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}
