// Execution-backend tests (DESIGN.md §14).
//
// Four layers of coverage:
//  * unit tests for the real backend's building blocks (the SPSC ring and
//    RealHeap's dual mapping);
//  * differential tests: every Table 1 workload (+ hotspot) at test size,
//    run under --backend sim and --backend real, must produce bit-identical
//    checksums and agree on the deterministic protocol statistics;
//  * the declaration contract: under --backend real a write to a page that
//    was not declared with write_range dies on SIGSEGV;
//  * error paths: everything that needs the virtual clock (tracing, race
//    checking, adaptive placement, adaptation events) is rejected up front
//    with a util::CheckError under --backend real, and the knob table turns
//    the same bad input from a command line or the environment into one
//    "error:" line and exit status 2.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "dsm/system.hpp"
#include "exec/heap.hpp"
#include "exec/spsc_queue.hpp"
#include "harness/runner.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"
#include "util/options.hpp"

namespace anow {
namespace {

// ---------------------------------------------------------------------------
// SPSC ring
// ---------------------------------------------------------------------------

TEST(SpscQueue, FifoSingleThread) {
  exec::SpscQueue<int> q(8);
  EXPECT_TRUE(q.empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(int(i)));
  EXPECT_FALSE(q.try_push(99));  // full at capacity
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, FifoAcrossThreads) {
  constexpr int kN = 100000;
  exec::SpscQueue<int> q(64);
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) {
      while (!q.try_push(int(i))) std::this_thread::yield();
    }
  });
  int expect = 0;
  while (expect < kN) {
    int v = -1;
    if (q.try_pop(v)) {
      ASSERT_EQ(v, expect);  // strict FIFO, nothing lost or duplicated
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// RealHeap dual mapping
// ---------------------------------------------------------------------------

TEST(RealHeap, RangedAccessCoversTheRunAndAliasesTheViews) {
  using exec::kPageBytes;
  using exec::PageAccess;
  exec::RealHeap heap(8 * kPageBytes);
  heap.prot_base()[10] = 0x5A;  // protocol view is always writable
  // One call opens the whole run; pages outside it stay inaccessible.
  EXPECT_EQ(heap.set_access(0, 4, PageAccess::kRead), 4);
  EXPECT_EQ(heap.app_base()[10], 0x5A);  // same physical page
  EXPECT_EQ(heap.app_base()[3 * kPageBytes + 7], 0);  // memfd reads zero
  for (std::int32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(heap.access(p), p < 4 ? PageAccess::kRead : PageAccess::kNone);
  }
  // Pages that already have the target cost nothing: an unchanged run makes
  // no call, and a run's unchanged ends are trimmed off the one call.
  EXPECT_EQ(heap.set_access(0, 4, PageAccess::kRead), 0);
  EXPECT_EQ(heap.set_access(2, 4, PageAccess::kRead), 2);
  EXPECT_EQ(heap.set_access(1, 2, PageAccess::kWrite), 2);
  heap.app_base()[2 * kPageBytes] = 0x33;  // a writable page of the run
  EXPECT_EQ(heap.prot_base()[2 * kPageBytes], 0x33);
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(heap.app_base()[3 * kPageBytes] = 1, "");  // kRead page
  EXPECT_DEATH(heap.app_base()[6 * kPageBytes] = 1, "");  // kNone page
}

/// A 1-process real system with a 3-page allocation: the master reads the
/// whole range, declares it written when `declare` is set, then stores into
/// its middle page.  Returns the stored value read back and the mprotect
/// calls the declaration's sync made.
std::pair<std::int64_t, std::int64_t> store_into_range(bool declare) {
  sim::Cluster cluster({}, 1);
  dsm::DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.backend = dsm::BackendKind::kReal;
  dsm::DsmSystem sys(cluster, cfg);
  sys.start(1);
  std::int64_t value = 0;
  std::int64_t calls = 0;
  sys.run([&](dsm::DsmProcess& master) {
    const dsm::GAddr addr = sys.shared_malloc(3 * dsm::kPageSize);
    const dsm::GAddr mid = addr + dsm::kPageSize;
    master.read_range(addr, 3 * dsm::kPageSize);
    const std::int64_t before = sys.stats().counter_value("exec.protect_calls");
    if (declare) master.write_range(addr, 3 * dsm::kPageSize);
    calls = sys.stats().counter_value("exec.protect_calls") - before;
    master.ptr<std::int64_t>(mid)[0] = 42;
    value = master.cptr<std::int64_t>(mid)[0];
  });
  return {value, calls};
}

TEST(RealHeap, DeclaredRangeOpensInOneCallAndReadRangeStoreDies) {
  // The three pages turn writable together: one ranged mprotect.
  EXPECT_EQ(store_into_range(/*declare=*/true),
            std::make_pair(std::int64_t{42}, std::int64_t{1}));
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(store_into_range(/*declare=*/false), "");
}

TEST(RealHeap, InitialSyncOfAValidHeapIsOneCall) {
  // The unsharded master starts with a valid copy of every page: one run,
  // one call, covering the whole heap.
  sim::Cluster cluster({}, 1);
  dsm::DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.backend = dsm::BackendKind::kReal;
  dsm::DsmSystem sys(cluster, cfg);
  sys.start(1);
  EXPECT_EQ(sys.stats().counter_value("exec.protect_calls"), 1);
  EXPECT_EQ(sys.stats().counter_value("exec.protect_pages"), sys.num_pages());
  sys.run([](dsm::DsmProcess&) {});
}

// ---------------------------------------------------------------------------
// Differential: sim vs real
// ---------------------------------------------------------------------------

harness::RunResult run_once(const std::string& app, dsm::BackendKind backend,
                            dsm::EngineKind engine, int nprocs = 4) {
  harness::RunConfig cfg;
  cfg.app = app;
  cfg.size = apps::Size::kTest;
  cfg.nprocs = nprocs;
  cfg.adaptive = false;
  cfg.backend = backend;
  cfg.engine = engine;
  return harness::run_workload(cfg);
}

class BackendDifferential
    : public ::testing::TestWithParam<std::tuple<const char*, dsm::EngineKind>> {
};

TEST_P(BackendDifferential, RealMatchesSim) {
  const auto [app, engine] = GetParam();
  const harness::RunResult sim = run_once(app, dsm::BackendKind::kSim, engine);
  const harness::RunResult real =
      run_once(app, dsm::BackendKind::kReal, engine);

  // Bit-identical results: the protocol decides what bytes land where, and
  // the protocol is the same object code under both backends.
  EXPECT_EQ(real.checksum, sim.checksum) << app;

  // Synchronization structure is workload-determined, so it must agree
  // exactly (traffic totals can legally differ: real delivery interleavings
  // shift which updates ride which fetch).
  EXPECT_EQ(real.stats.counter("dsm.barriers"),
            sim.stats.counter("dsm.barriers"));
  EXPECT_EQ(real.stats.counter("dsm.forks"), sim.stats.counter("dsm.forks"));
  EXPECT_EQ(real.stats.counter("dsm.gc_runs"),
            sim.stats.counter("dsm.gc_runs"));
  // Both backends declare writes through the same write_range path, so
  // they take the same write faults.
  EXPECT_EQ(real.stats.counter("dsm.faults.write"),
            sim.stats.counter("dsm.faults.write"));
  EXPECT_GT(real.messages, 0);
  EXPECT_GT(real.seconds, 0.0);  // wall clock advanced
}

TEST_P(BackendDifferential, OneProcessCountersMatchSim) {
  // With one process there is no delivery interleaving to differ, so every
  // dsm.* counter is backend-independent.
  const auto [app, engine] = GetParam();
  const harness::RunResult sim =
      run_once(app, dsm::BackendKind::kSim, engine, /*nprocs=*/1);
  const harness::RunResult real =
      run_once(app, dsm::BackendKind::kReal, engine, /*nprocs=*/1);
  EXPECT_EQ(real.checksum, sim.checksum) << app;
  std::map<std::string, std::int64_t> names = sim.stats.counters;
  names.insert(real.stats.counters.begin(), real.stats.counters.end());
  int compared = 0;
  for (const auto& [name, value] : names) {
    (void)value;
    if (name.rfind("dsm.", 0) != 0) continue;
    EXPECT_EQ(real.stats.counter(name), sim.stats.counter(name)) << name;
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, BackendDifferential,
    ::testing::Combine(::testing::Values("jacobi", "gauss", "fft3d", "nbf",
                                         "hotspot"),
                       ::testing::Values(dsm::EngineKind::kLrc,
                                         dsm::EngineKind::kHomeLrc)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             dsm::engine_kind_name(std::get<1>(info.param));
    });

TEST(BackendDifferential, OneProcessJacobiProtectCallsStayBounded) {
  // Test-size Jacobi on one process: one call opens the seeded heap
  // read-only and one opens the grid's pages for the master's exclusive
  // writes, which then stay open for the run.  A sync that fell back to
  // per-page calls would make hundreds.
  const harness::RunResult real =
      run_once("jacobi", dsm::BackendKind::kReal, dsm::EngineKind::kLrc, 1);
  EXPECT_GE(real.stats.counter("exec.protect_calls"), 1);
  EXPECT_LE(real.stats.counter("exec.protect_calls"), 4);
  EXPECT_GE(real.stats.counter("exec.protect_pages"),
            real.stats.counter("exec.protect_calls"));
  // The simulator never interns the exec.* counters.
  const harness::RunResult sim =
      run_once("jacobi", dsm::BackendKind::kSim, dsm::EngineKind::kLrc, 1);
  EXPECT_EQ(sim.stats.counters.count("exec.protect_calls"), 0u);
  EXPECT_EQ(sim.stats.counters.count("exec.protect_pages"), 0u);
}

TEST(BackendDifferential, SimIsDeterministic) {
  // Pinning --backend sim must stay byte-identical run to run: same
  // checksum, same full stats snapshot.
  const harness::RunResult a =
      run_once("jacobi", dsm::BackendKind::kSim, dsm::EngineKind::kLrc);
  const harness::RunResult b =
      run_once("jacobi", dsm::BackendKind::kSim, dsm::EngineKind::kLrc);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.stats.counters, b.stats.counters);
}

// ---------------------------------------------------------------------------
// Declaration contract under --backend real
// ---------------------------------------------------------------------------

/// Process 1 reads a shared word the master initialized, then stores to it:
/// through write_range when `declare` is set, undeclared otherwise.
std::int64_t store_after_read(bool declare) {
  sim::Cluster cluster({}, 2);
  dsm::DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.backend = dsm::BackendKind::kReal;
  dsm::DsmSystem sys(cluster, cfg);
  dsm::GAddr addr = 0;
  auto task = sys.register_task(
      "store", [&](dsm::DsmProcess& p, const std::vector<std::uint8_t>&) {
        if (p.pid() != 1) return;
        p.read_range(addr, 8);
        if (declare) p.write_range(addr, 8);
        p.ptr<std::int64_t>(addr)[0] = p.cptr<std::int64_t>(addr)[0] + 1;
      });
  sys.start(2);
  std::int64_t result = 0;
  sys.run([&](dsm::DsmProcess& master) {
    addr = sys.shared_malloc(8);
    master.write_range(addr, 8);
    master.ptr<std::int64_t>(addr)[0] = 41;
    sys.run_parallel(task, {});
    master.read_range(addr, 8);
    result = master.cptr<std::int64_t>(addr)[0];
  });
  return result;
}

TEST(DeclarationContract, DeclaredWriteSucceeds) {
  EXPECT_EQ(store_after_read(/*declare=*/true), 42);
}

TEST(DeclarationContract, UndeclaredWriteDies) {
  // The real backend starts threads; re-exec the binary for the child.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(store_after_read(/*declare=*/false), "");
}

// ---------------------------------------------------------------------------
// Real-backend error paths
// ---------------------------------------------------------------------------

harness::RunConfig real_config() {
  harness::RunConfig cfg;
  cfg.app = "jacobi";
  cfg.size = apps::Size::kTest;
  cfg.nprocs = 2;
  cfg.adaptive = false;
  cfg.backend = dsm::BackendKind::kReal;
  return cfg;
}

TEST(BackendGuards, TracingRejectedUnderReal) {
  harness::RunConfig cfg = real_config();
  cfg.trace_file = "/tmp/anow_never_written.json";
  EXPECT_THROW(harness::run_workload(cfg), util::CheckError);
}

TEST(BackendGuards, TimeAttributionRejectedUnderReal) {
  harness::RunConfig cfg = real_config();
  cfg.time_attribution = true;
  EXPECT_THROW(harness::run_workload(cfg), util::CheckError);
}

TEST(BackendGuards, RaceCheckRejectedUnderReal) {
  harness::RunConfig cfg = real_config();
  cfg.race_check = dsm::RaceCheckMode::kPage;
  EXPECT_THROW(harness::run_workload(cfg), util::CheckError);
}

TEST(BackendGuards, AdaptivePlacementRejectedUnderReal) {
  harness::RunConfig cfg = real_config();
  cfg.placement = dsm::PlacementMode::kAdaptive;
  EXPECT_THROW(harness::run_workload(cfg), util::CheckError);
}

TEST(BackendGuards, AdaptEventsRejectedUnderReal) {
  harness::RunConfig cfg = real_config();
  cfg.adaptive = true;
  core::AdaptEvent ev;
  ev.kind = core::AdaptKind::kJoin;
  cfg.events.push_back(ev);
  EXPECT_THROW(harness::run_workload(cfg), util::CheckError);
}

// ---------------------------------------------------------------------------
// The knob table (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// A binary's main(): parse `args`, apply `flags` from the table onto the
/// table defaults (not this process's environment), then allow_only().
void run_main(const std::vector<std::string>& args,
              const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"prog"};
  for (const auto& a : args) argv.push_back(a.c_str());
  util::Options opts(static_cast<int>(argv.size()), argv.data());
  dsm::Knobs knobs = dsm::Knobs::builtin();
  dsm::apply_knob_options(opts, knobs, flags);
  opts.allow_only({});
}

TEST(KnobTable, EveryRowParsesRejectsAndGuardsReal) {
  for (const dsm::KnobSpec& spec : dsm::knob_table()) {
    const std::string flag = spec.flag;
    SCOPED_TRACE(flag);
    const bool integer =
        std::holds_alternative<int dsm::Knobs::*>(spec.field);

    // The default, every choice and every alias parse and name back.
    dsm::Knobs k = dsm::Knobs::builtin();
    EXPECT_EQ(dsm::knob_value(k, spec), spec.fallback);
    for (const auto& choice : spec.choices) {
      EXPECT_EQ(dsm::set_knob(k, spec, choice), "");
      EXPECT_EQ(dsm::knob_value(k, spec), choice);
    }
    for (const auto& [alias, canonical] : spec.aliases) {
      EXPECT_EQ(dsm::set_knob(k, spec, alias), "");
      EXPECT_EQ(dsm::knob_value(k, spec), canonical);
    }

    // Unknown values, trailing garbage and out-of-range integers exit 2
    // from the command line and from the environment alike.
    std::vector<std::string> bad;
    if (integer) {
      bad = {"abc", std::to_string(spec.min) + "x",
             std::to_string(spec.min - 1)};
    } else if (!spec.choices.empty()) {
      bad = {"bogus", spec.choices.front() + "x"};
    }
    for (const auto& value : bad) {
      EXPECT_NE(dsm::set_knob(k, spec, value), "") << value;
      EXPECT_EXIT(run_main({"--" + flag + "=" + value}, {flag}),
                  ::testing::ExitedWithCode(2),
                  "error: --" + flag + "='" + value + "' expects");
      if (spec.env != nullptr) {
        EXPECT_EXIT(
            {
              ::setenv(spec.env, value.c_str(), 1);
              dsm::read_env_knobs();
            },
            ::testing::ExitedWithCode(2),
            std::string("error: ") + spec.env + "='" + value + "' expects");
      }
    }
    if (integer) {
      // A library caller gets the same range check as a CheckError.
      dsm::Knobs low = dsm::Knobs::builtin();
      low.*std::get<int dsm::Knobs::*>(spec.field) = spec.min - 1;
      EXPECT_NE(dsm::knob_error(low).find("--" + flag), std::string::npos);
    }

    // Each simulator-only value is refused under the real backend, naming
    // both knobs; the one real value is accepted.
    if (spec.real_value == nullptr) continue;
    std::vector<std::string> sim_only;
    for (const auto& choice : spec.choices) {
      if (choice != spec.real_value) sim_only.push_back(choice);
    }
    if (spec.choices.empty()) sim_only = {"t.json"};
    dsm::Knobs real = dsm::Knobs::builtin();
    real.backend = dsm::BackendKind::kReal;
    EXPECT_EQ(dsm::set_knob(real, spec, spec.real_value), "");
    EXPECT_EQ(dsm::knob_error(real), "");
    for (const auto& value : sim_only) {
      EXPECT_EQ(dsm::set_knob(real, spec, value), "");
      const std::string why = dsm::knob_error(real);
      EXPECT_NE(why.find("--" + flag), std::string::npos) << why;
      EXPECT_NE(why.find("--backend"), std::string::npos) << why;
      EXPECT_EXIT(run_main({"--backend=real", "--" + flag + "=" + value},
                           {"backend", flag}),
                  ::testing::ExitedWithCode(2),
                  "error: --" + flag + ".*simulator-only.*--backend");
    }
  }
}

TEST(KnobTable, HelpListsKnobChoices) {
  // The usage text goes to stdout; the death-test matcher reads stderr.
  EXPECT_EXIT(
      {
        ::dup2(STDERR_FILENO, STDOUT_FILENO);
        run_main({"--help"}, {"engine"});
      },
      ::testing::ExitedWithCode(0), "--engine.*lrc,home.*ANOW_ENGINE");
}

}  // namespace
}  // namespace anow
