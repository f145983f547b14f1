// Unit tests for the discrete-event simulator and fiber scheduling.
#include <gtest/gtest.h>

#include <cfenv>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace anow::sim {
namespace {

TEST(Time, FromSecondsRoundTrips) {
  EXPECT_EQ(from_seconds(1.0), kSec);
  EXPECT_EQ(from_seconds(0.000126), 126 * kUsec);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(3.25)), 3.25);
}

TEST(Time, Format) {
  EXPECT_EQ(format_time(126 * kUsec), "126.0us");
  EXPECT_EQ(format_time(1308 * kUsec), "1.308ms");
  EXPECT_EQ(format_time(3 * kSec), "3.000s");
  EXPECT_EQ(format_time(42), "42ns");
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(5, [&] { order.push_back(1); });
  sim.at(5, [&] { order.push_back(2); });
  sim.at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.at(5, [] {}), util::CheckError);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, FiberRunsAndFinishes) {
  Simulator sim;
  bool ran = false;
  sim.spawn("f", [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(sim.all_fibers_done());
}

TEST(Simulator, SleepAdvancesVirtualTime) {
  Simulator sim;
  Time woke_at = -1;
  sim.spawn("sleeper", [&] {
    sim.sleep_for(5 * kSec);
    woke_at = sim.now();
  });
  sim.run();
  EXPECT_EQ(woke_at, 5 * kSec);
}

TEST(Simulator, WaitThenSignal) {
  Simulator sim;
  WaitPoint wp;
  Time resumed_at = -1;
  sim.spawn("waiter", [&] {
    sim.wait(wp, "test");
    resumed_at = sim.now();
  });
  sim.at(3 * kSec, [&] { sim.signal(wp); });
  sim.run();
  EXPECT_EQ(resumed_at, 3 * kSec);
}

TEST(Simulator, SignalBeforeWaitReturnsImmediately) {
  Simulator sim;
  WaitPoint wp;
  sim.signal(wp);
  bool passed = false;
  sim.spawn("waiter", [&] {
    sim.wait(wp);
    passed = true;
  });
  sim.run();
  EXPECT_TRUE(passed);
}

TEST(Simulator, DoubleSignalThrows) {
  Simulator sim;
  WaitPoint wp;
  sim.signal(wp);
  EXPECT_THROW(sim.signal(wp), util::CheckError);
}

TEST(Simulator, FiberExceptionPropagatesFromRun) {
  Simulator sim;
  sim.spawn("bad", [] { ANOW_CHECK_MSG(false, "boom"); });
  EXPECT_THROW(sim.run(), util::CheckError);
}

TEST(Simulator, TwoFibersInterleaveDeterministically) {
  Simulator sim;
  std::vector<std::string> log;
  WaitPoint a_to_b, b_to_a;
  sim.spawn("A", [&] {
    log.push_back("A1");
    sim.signal(a_to_b);
    sim.wait(b_to_a);
    log.push_back("A2");
  });
  sim.spawn("B", [&] {
    sim.wait(a_to_b);
    log.push_back("B1");
    sim.signal(b_to_a);
  });
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"A1", "B1", "A2"}));
}

TEST(Simulator, ParkedFiberReportNamesBlockedFiber) {
  Simulator sim;
  WaitPoint never;
  sim.spawn("stuck", [&] { sim.wait(never, "page 42"); });
  sim.run();
  EXPECT_FALSE(sim.all_fibers_done());
  auto report = sim.parked_fiber_report();
  EXPECT_NE(report.find("stuck"), std::string::npos);
  EXPECT_NE(report.find("page 42"), std::string::npos);
}

TEST(Simulator, DestructorUnwindsParkedFibers) {
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    Simulator sim;
    WaitPoint never;
    sim.spawn("stuck", [&] {
      Sentinel s{&destroyed};
      sim.wait(never, "forever");
    });
    sim.run();
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);  // RAII ran during fiber kill
}

TEST(Simulator, ReapDoneFibers) {
  Simulator sim;
  sim.spawn("f1", [] {});
  sim.spawn("f2", [] {});
  sim.run();
  EXPECT_EQ(sim.live_fiber_count(), 0u);
  sim.reap_done_fibers();
  EXPECT_TRUE(sim.all_fibers_done());
}

TEST(Simulator, ManySleepersWakeInOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.spawn("s" + std::to_string(i), [&, i] {
      sim.sleep_for((10 - i) * kMsec);
      order.push_back(i);
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(Simulator, EventsExecutedCounter) {
  Simulator sim;
  sim.at(1, [] {});
  sim.at(2, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, NestedSchedulingFromEvents) {
  Simulator sim;
  std::vector<Time> times;
  sim.at(10, [&] {
    times.push_back(sim.now());
    sim.after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(Simulator, NeverStartedFiberIsDestroyedCleanly) {
  auto token = std::make_shared<int>(0);
  bool ran = false;
  {
    Simulator sim;
    sim.spawn("idle", [&ran, token] { ran = true; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(token.use_count(), 1);  // the body (and its captures) was freed
}

/// Burns about 4 KiB of stack per level; the volatile writes keep the
/// frames from being optimised away.
int deep_recurse(Simulator& sim, WaitPoint& bottom, int depth) {
  volatile char frame[4096];
  frame[0] = static_cast<char>(depth);
  frame[sizeof(frame) - 1] = static_cast<char>(depth);
  if (depth == 0) {
    sim.wait(bottom, "bottom");
    return frame[0];
  }
  return deep_recurse(sim, bottom, depth - 1) + frame[sizeof(frame) - 1];
}

TEST(Simulator, FiberRecursesThroughDeepStack) {
  Simulator sim;
  WaitPoint bottom;
  int sum = -1;
  constexpr int kDepth = 300;  // ~1.2 MiB of frames
  // The recursion parks at its deepest point while another fiber runs, so
  // the deep frames must survive on the fiber's own stack.
  sim.spawn("deep", [&] { sum = deep_recurse(sim, bottom, kDepth); });
  sim.spawn("other", [&] { sim.signal(bottom); });
  sim.run();
  EXPECT_TRUE(sim.all_fibers_done());
  int expected = 0;
  for (int d = 1; d <= kDepth; ++d) expected += static_cast<char>(d);
  EXPECT_EQ(sum, expected);
}

/// Mappings in this process; each fiber stack that outlives its fiber adds
/// at least one (its guard page splits it from its neighbours).
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return n;
}

TEST(Simulator, SpawnReapCyclesReleaseFiberStacks) {
  Simulator sim;
  const std::size_t before = mapping_count();
  int finished = 0;
  for (int i = 0; i < 1000; ++i) {
    auto payload = std::make_shared<std::string>(64, 'x');
    sim.spawn("cycle" + std::to_string(i), [&finished, payload] {
      finished += payload->size() == 64 ? 1 : 0;
    });
    sim.run();
    sim.reap_done_fibers();
    ASSERT_EQ(sim.live_fiber_count(), 0u);
  }
  EXPECT_EQ(finished, 1000);
  // Slack for mappings the allocator or a sanitizer runtime adds on its
  // own; a leaked stack per cycle would add 1000.
  EXPECT_LT(mapping_count(), before + 200);
}

std::string what_of(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "?";
  }
}

TEST(Simulator, FibersParkedInCatchBlocksKeepTheirOwnExceptions) {
  Simulator sim;
  std::vector<std::string> log;
  WaitPoint a_go, b_go;
  // A throws and parks in its handler; B throws, catches and parks in its
  // own handler on top; then each wakes in turn and must still see, and
  // rethrow, the exception it caught itself.
  auto body = [&](const std::string& name, WaitPoint& park_on,
                  WaitPoint& release) {
    try {
      throw std::runtime_error(name);
    } catch (...) {
      if (name == "B") sim.signal(release);
      sim.wait(park_on, "in catch");
      log.push_back(name + " sees " + what_of(std::current_exception()));
      try {
        throw;
      } catch (const std::runtime_error& e) {
        log.push_back(name + " rethrew " + e.what());
      }
    }
    EXPECT_EQ(std::current_exception(), nullptr);
    if (name == "A") sim.signal(release);
  };
  sim.spawn("A", [&] { body("A", a_go, b_go); });
  sim.spawn("B", [&] { body("B", b_go, a_go); });
  sim.run();
  EXPECT_TRUE(sim.all_fibers_done());
  EXPECT_EQ(log, (std::vector<std::string>{"A sees A", "A rethrew A",
                                           "B sees B", "B rethrew B"}));
  EXPECT_EQ(std::current_exception(), nullptr);
  EXPECT_EQ(std::uncaught_exceptions(), 0);
}

TEST(Simulator, FibersKeepTheirOwnFloatingPointRoundingMode) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  // nearbyint rounds by the SSE mode (MXCSR); fegetround reads the x87
  // control word.  1.5 rounds to 2 to nearest and to 1 downward.
  volatile double one_and_a_half = 1.5;
  struct Seen {
    int mode = -1;
    double rounded = 0.0;
  };
  auto look = [&] {
    return Seen{std::fegetround(), std::nearbyint(one_and_a_half)};
  };
  Seen a_after, b_sees, scheduler_sees;
  {
    Simulator sim;
    WaitPoint a_go;
    // A switches to FE_DOWNWARD and parks; B and then an event handler on
    // the scheduler run while A is parked; then A resumes and finishes
    // without restoring the mode.
    sim.spawn("A", [&] {
      std::fesetround(FE_DOWNWARD);
      sim.wait(a_go, "rounding");
      a_after = look();
    });
    sim.spawn("B", [&] {
      b_sees = look();
      sim.signal(a_go);
    });
    sim.at(0, [&] { scheduler_sees = look(); });
    sim.run();
    EXPECT_TRUE(sim.all_fibers_done());
  }
  const Seen after_run = look();
  std::fesetround(FE_TONEAREST);
  EXPECT_EQ(a_after.mode, FE_DOWNWARD);
  EXPECT_EQ(a_after.rounded, 1.0);
  EXPECT_EQ(b_sees.mode, FE_TONEAREST);
  EXPECT_EQ(b_sees.rounded, 2.0);
  EXPECT_EQ(scheduler_sees.mode, FE_TONEAREST);
  EXPECT_EQ(scheduler_sees.rounded, 2.0);
  EXPECT_EQ(after_run.mode, FE_TONEAREST);
  EXPECT_EQ(after_run.rounded, 2.0);
}

/// Out of line, so its frame is laid out against the compiler's assumption
/// of a 16-byte-aligned stack at every call.
[[gnu::noinline]] std::uintptr_t aligned_local_address() {
  alignas(16) volatile char buf[16];
  buf[0] = 1;
  return reinterpret_cast<std::uintptr_t>(&buf[0]);
}

TEST(Simulator, FiberLocalsGetTheirDeclaredAlignment) {
  Simulator sim;
  std::uintptr_t body_local = 1;
  std::uintptr_t callee_local = 1;
  sim.spawn("aligned", [&] {
    alignas(16) volatile char buf[16];
    buf[0] = 1;
    body_local = reinterpret_cast<std::uintptr_t>(&buf[0]);
    callee_local = aligned_local_address();
  });
  sim.run();
  EXPECT_EQ(body_local % 16, 0u);
  EXPECT_EQ(callee_local % 16, 0u);
}

}  // namespace
}  // namespace anow::sim
