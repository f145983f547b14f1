// LRC data-race detector tests (DESIGN.md §13).
//
// Positive side: hand-built racy tasks through the full DSM stack must be
// reported with exact page, word range, and process pair — under both
// consistency engines, since the detector rides protocol hooks that both
// engines exercise differently (lazy diffs vs eager home flushes).
// Negative side: the detector must certify the repo's own DRF workloads
// (Table 1 apps + hotspot, across engines / piggybacking / sharding /
// adaptive placement / tree topology) with zero reports, and enabling it
// must not perturb the run at all.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/race_detector.hpp"
#include "dsm/system.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"

namespace anow::dsm {
namespace {

DsmConfig race_config(EngineKind engine, RaceCheckMode mode) {
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;  // 256 pages
  cfg.default_protocol = Protocol::kMultiWriter;
  cfg.engine = engine;
  cfg.race_check = mode;
  return cfg;
}

struct TaskArgs {
  GAddr addr;
};

template <typename T>
std::vector<std::uint8_t> pack(const T& value) {
  std::vector<std::uint8_t> out(sizeof(T));
  std::memcpy(out.data(), &value, sizeof(T));
  return out;
}

template <typename T>
T unpack(const std::vector<std::uint8_t>& bytes) {
  T value;
  ANOW_CHECK(bytes.size() == sizeof(T));
  std::memcpy(&value, bytes.data(), sizeof(T));
  return value;
}

class RaceDetectorTest : public ::testing::TestWithParam<EngineKind> {};

// Two processes write the same word of the same page inside one construct
// with no synchronization between them: exactly one write-write race, and
// the report names the page, the word, and both uids.
TEST_P(RaceDetectorTest, ConcurrentWritesToOneWordAreReported) {
  sim::Cluster cluster({}, 2);
  DsmSystem sys(cluster, race_config(GetParam(), RaceCheckMode::kWord));

  auto task = sys.register_task(
      "racy_write", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<TaskArgs>(a);
        p.write_range(args.addr, 8);
        p.ptr<std::int64_t>(args.addr)[0] = p.uid();
      });

  sys.start(2);
  sys.run([&](DsmProcess&) {
    const GAddr addr = sys.shared_malloc(4096);
    sys.run_parallel(task, pack(TaskArgs{addr}));
  });

  const analysis::RaceDetector* det = sys.race_detector();
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->race_count(), 1);
  ASSERT_EQ(det->reports().size(), 1u);
  const analysis::RaceReport& r = det->reports()[0];
  EXPECT_EQ(r.page, 0);
  EXPECT_EQ(r.word_first, 0);
  EXPECT_EQ(r.word_last, 0);
  EXPECT_EQ(std::min(r.uid_a, r.uid_b), 0);
  EXPECT_EQ(std::max(r.uid_a, r.uid_b), 1);
  EXPECT_STREQ(r.kind, "ww");
}

// A read racing a concurrent write is reported with the rw/wr kind, and the
// word range is the overlap of the two accesses, not either access alone.
TEST_P(RaceDetectorTest, ReadAgainstConcurrentWriteIsReported) {
  sim::Cluster cluster({}, 2);
  DsmSystem sys(cluster, race_config(GetParam(), RaceCheckMode::kWord));

  auto task = sys.register_task(
      "racy_read", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<TaskArgs>(a);
        if (p.uid() == 0) {
          // Words [2, 5] written.
          p.write_range(args.addr + 2 * 8, 4 * 8);
          auto* data = p.ptr<std::int64_t>(args.addr);
          for (int i = 2; i <= 5; ++i) data[i] = i;
        } else {
          // Words [4, 9] read: overlap is [4, 5].
          p.read_range(args.addr + 4 * 8, 6 * 8);
          (void)p.cptr<std::int64_t>(args.addr)[4];
        }
      });

  sys.start(2);
  sys.run([&](DsmProcess&) {
    const GAddr addr = sys.shared_malloc(4096);
    sys.run_parallel(task, pack(TaskArgs{addr}));
  });

  const analysis::RaceDetector* det = sys.race_detector();
  ASSERT_NE(det, nullptr);
  ASSERT_EQ(det->reports().size(), 1u);
  const analysis::RaceReport& r = det->reports()[0];
  EXPECT_EQ(r.page, 0);
  EXPECT_EQ(r.word_first, 4);
  EXPECT_EQ(r.word_last, 5);
  EXPECT_TRUE(std::string(r.kind) == "rw" || std::string(r.kind) == "wr");
}

// Word granularity distinguishes disjoint words of one page (no race);
// page granularity over-approximates and reports them (the documented
// false-positive mode).
TEST_P(RaceDetectorTest, GranularitySeparatesFalseSharing) {
  for (const RaceCheckMode mode :
       {RaceCheckMode::kWord, RaceCheckMode::kPage}) {
    sim::Cluster cluster({}, 2);
    DsmSystem sys(cluster, race_config(GetParam(), mode));

    auto task = sys.register_task(
        "false_share", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
          auto args = unpack<TaskArgs>(a);
          const GAddr mine = args.addr + p.uid() * 8;
          p.write_range(mine, 8);
          p.ptr<std::int64_t>(mine)[0] = p.uid();
        });

    sys.start(2);
    sys.run([&](DsmProcess&) {
      const GAddr addr = sys.shared_malloc(4096);
      sys.run_parallel(task, pack(TaskArgs{addr}));
    });

    const analysis::RaceDetector* det = sys.race_detector();
    ASSERT_NE(det, nullptr);
    if (mode == RaceCheckMode::kWord) {
      EXPECT_EQ(det->race_count(), 0) << "word mode false positive";
    } else {
      EXPECT_GE(det->race_count(), 1) << "page mode must over-approximate";
    }
  }
}

// The same conflicting pair, properly ordered by a lock, is not a race: the
// release→grant chain draws the happens-before edge the detector honors.
TEST_P(RaceDetectorTest, LockOrderedAccessesAreNotReported) {
  sim::Cluster cluster({}, 2);
  DsmSystem sys(cluster, race_config(GetParam(), RaceCheckMode::kWord));

  auto task = sys.register_task(
      "locked_add", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<TaskArgs>(a);
        p.lock_acquire(1);
        p.read_range(args.addr, 8);
        const std::int64_t cur = p.cptr<std::int64_t>(args.addr)[0];
        p.write_range(args.addr, 8);
        p.ptr<std::int64_t>(args.addr)[0] = cur + 1;
        p.lock_release(1);
      });

  sys.start(2);
  bool checked = false;
  sys.run([&](DsmProcess& master) {
    const GAddr addr = sys.shared_malloc(4096);
    sys.run_parallel(task, pack(TaskArgs{addr}));
    master.read_range(addr, 8);
    EXPECT_EQ(master.cptr<std::int64_t>(addr)[0], 2);
    checked = true;
  });
  EXPECT_TRUE(checked);

  const analysis::RaceDetector* det = sys.race_detector();
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->race_count(), 0);
}

// Barrier-separated phases (write, barrier, read by everyone) are DRF.
TEST_P(RaceDetectorTest, BarrierOrderedPhasesAreNotReported) {
  sim::Cluster cluster({}, 4);
  DsmSystem sys(cluster, race_config(GetParam(), RaceCheckMode::kWord));

  auto task = sys.register_task(
      "phases", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<TaskArgs>(a);
        const GAddr mine = args.addr + p.uid() * 8;
        p.write_range(mine, 8);
        p.ptr<std::int64_t>(mine)[0] = p.uid() + 1;
        p.barrier(7);
        p.read_range(args.addr, p.nprocs() * 8);
        std::int64_t sum = 0;
        for (int i = 0; i < p.nprocs(); ++i) {
          sum += p.cptr<std::int64_t>(args.addr)[i];
        }
        ANOW_CHECK(sum == 10);
      });

  sys.start(4);
  sys.run([&](DsmProcess&) {
    const GAddr addr = sys.shared_malloc(4096);
    sys.run_parallel(task, pack(TaskArgs{addr}));
  });

  const analysis::RaceDetector* det = sys.race_detector();
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->race_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Engines, RaceDetectorTest,
                         ::testing::Values(EngineKind::kLrc,
                                           EngineKind::kHomeLrc),
                         [](const auto& info) {
                           return std::string(engine_kind_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Negative sweep: the repo's own workloads are DRF and must certify clean,
// and turning the detector on must not perturb the run (same virtual time,
// traffic, and checksum — the wire is byte-identical).
// ---------------------------------------------------------------------------

struct SweepPoint {
  std::string app;
  EngineKind engine = EngineKind::kLrc;
  PiggybackMode piggyback = PiggybackMode::kOff;
  int dir_shards = 1;
  PlacementMode placement = PlacementMode::kStatic;
  TopologyKind topology = TopologyKind::kFlat;
};

std::vector<SweepPoint> sweep_points() {
  std::vector<SweepPoint> pts;
  for (const char* app : {"jacobi", "gauss", "fft3d", "nbf", "hotspot"}) {
    for (const EngineKind engine : {EngineKind::kLrc, EngineKind::kHomeLrc}) {
      pts.push_back({app, engine, env_knobs().piggyback});
    }
  }
  // Feature crosses on the two stencils: sharded directory, adaptive
  // placement, tree control plane.
  pts.push_back({"jacobi", EngineKind::kLrc, PiggybackMode::kOff, 4});
  pts.push_back({"hotspot", EngineKind::kHomeLrc, PiggybackMode::kOff, 4});
  pts.push_back({"jacobi", EngineKind::kHomeLrc, PiggybackMode::kOff, 1,
                 PlacementMode::kAdaptive});
  pts.push_back({"hotspot", EngineKind::kLrc, PiggybackMode::kOff, 1,
                 PlacementMode::kStatic, TopologyKind::kTree});
  return pts;
}

// Adaptation is the regression surface: a leave makes the master re-own the
// leaver's pages via runtime read_range calls, and the post-leave
// repartition hands those pages to surviving writers.  The re-own reads
// happen before the fork departs, so they are ordered before the new
// owners' writes — the detector must not report them (the fork clock is
// snapshotted after the adaptation hook, see DsmSystem::run_parallel).
TEST(RaceSweep, JoinAndLeaveOrderedReownsAreNotReported) {
  for (const EngineKind engine : {EngineKind::kLrc, EngineKind::kHomeLrc}) {
    SCOPED_TRACE(engine_kind_name(engine));
    harness::RunConfig cfg;
    cfg.app = "jacobi";
    cfg.size = apps::Size::kTest;
    cfg.nprocs = 4;
    cfg.spare_hosts = 1;
    cfg.engine = engine;
    cfg.adaptive = true;
    // A leave mid-run (its pages get re-owned and repartitioned to the
    // survivors) and a join later (the joiner pulls the page map and its
    // first faults), both well inside the run.
    cfg.charge_spawn_cost = false;  // a test-size run is shorter than a spawn
    cfg.events = harness::single_leave(sim::from_seconds(0.002), 2);
    cfg.events.push_back({core::AdaptKind::kJoin, sim::from_seconds(0.004), 4,
                          core::kDefaultGrace});
    cfg.trace_file.clear();

    cfg.race_check = RaceCheckMode::kOff;
    const harness::RunResult off = harness::run_workload(cfg);
    ASSERT_EQ(off.leaves + off.joins, 2);
    cfg.race_check = RaceCheckMode::kWord;
    const harness::RunResult on = harness::run_workload(cfg);

    EXPECT_EQ(on.stats.counter("obs.race.reports"), 0);
    EXPECT_GT(on.stats.counter("obs.race.segments"), 0);
    EXPECT_EQ(off.checksum, on.checksum);
    EXPECT_EQ(off.seconds, on.seconds);
    EXPECT_EQ(off.messages, on.messages);
    EXPECT_EQ(off.bytes, on.bytes);
  }
}

TEST(RaceSweep, Table1AndHotspotGridCertifiesDrfWithoutPerturbation) {
  for (const SweepPoint& pt : sweep_points()) {
    SCOPED_TRACE(pt.app + "/" + engine_kind_name(pt.engine) +
                 "/shards=" + std::to_string(pt.dir_shards));
    harness::RunConfig cfg;
    cfg.app = pt.app;
    cfg.size = apps::Size::kTest;
    cfg.nprocs = 4;
    cfg.adaptive = false;
    cfg.engine = pt.engine;
    cfg.piggyback = pt.piggyback;
    cfg.dir_shards = pt.dir_shards;
    cfg.placement = pt.placement;
    cfg.topology = pt.topology;
    cfg.fanout = 2;
    cfg.trace_file.clear();

    cfg.race_check = RaceCheckMode::kOff;
    const harness::RunResult off = harness::run_workload(cfg);
    cfg.race_check = RaceCheckMode::kWord;
    const harness::RunResult on = harness::run_workload(cfg);

    // DRF certification: zero reports across the whole run.
    EXPECT_EQ(on.stats.counter("obs.race.reports"), 0);
    EXPECT_GT(on.stats.counter("obs.race.segments"), 0);

    // Zero perturbation: byte-identical wire behavior.
    EXPECT_EQ(off.checksum, on.checksum);
    EXPECT_EQ(off.seconds, on.seconds);
    EXPECT_EQ(off.messages, on.messages);
    EXPECT_EQ(off.bytes, on.bytes);
    for (const auto& [name, value] : off.stats.counters) {
      EXPECT_EQ(value, on.stats.counter(name)) << name;
    }
  }
}

}  // namespace
}  // namespace anow::dsm
