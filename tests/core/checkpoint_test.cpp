// Tests for checkpointing at adaptation points and crash recovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "dsm/system.hpp"
#include "real_knobs.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"

namespace anow::core {
namespace {

using dsm::DsmConfig;
using dsm::DsmProcess;
using dsm::DsmSystem;
using dsm::GAddr;

struct IterArgs {
  GAddr addr;
  std::int64_t count;
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

DsmConfig small_config() {
  DsmConfig cfg;
  cfg.heap_bytes = 1 << 20;
  cfg.private_image_bytes = 1 << 20;
  return cfg;
}

constexpr std::int64_t kN = 8192;

std::int32_t register_inc(DsmSystem& sys) {
  return sys.register_task(
      "inc", [](DsmProcess& p, const std::vector<std::uint8_t>& a) {
        auto args = unpack<IterArgs>(a);
        const std::int64_t per = args.count / p.nprocs();
        const std::int64_t lo = p.pid() * per;
        const std::int64_t hi =
            p.pid() == p.nprocs() - 1 ? args.count : lo + per;
        p.write_range(args.addr + lo * 8, (hi - lo) * 8);
        auto* data = p.ptr<std::int64_t>(args.addr);
        for (std::int64_t i = lo; i < hi; ++i) data[i] += 1;
      });
}

TEST(Checkpoint, ImageRoundTripsThroughDisk) {
  CheckpointImage img;
  img.taken_at = 123456789;
  img.heap_brk = 4096;
  img.app_state = {1, 2, 3, 4};
  img.region.assign(65536, 0);
  img.region[7] = 0xAB;
  const std::string path = testing::TempDir() + "/anow_ckpt_test.bin";
  img.save_to_file(path);
  CheckpointImage back = CheckpointImage::load_from_file(path);
  EXPECT_EQ(back.taken_at, img.taken_at);
  EXPECT_EQ(back.heap_brk, img.heap_brk);
  EXPECT_EQ(back.app_state, img.app_state);
  EXPECT_EQ(back.region, img.region);
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "/anow_ckpt_garbage.bin";
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a checkpoint", f);
    std::fclose(f);
  }
  EXPECT_THROW(CheckpointImage::load_from_file(path), util::CheckError);
  std::remove(path.c_str());
}

TEST(Checkpoint, TakeCollectsPagesAndChargesTime) {
  sim::Cluster cluster({}, 4);
  DsmSystem sys(cluster, small_config());
  Checkpointer ckpt(sys);
  auto task = register_inc(sys);
  sys.start(4);
  CheckpointImage img;
  sim::Time before = 0, after = 0;
  sys.run([&](DsmProcess& m) {
    const GAddr addr = sys.shared_malloc(kN * 8);
    m.write_range(addr, kN * 8);
    std::memset(m.ptr<std::int64_t>(addr), 0, kN * 8);
    for (int r = 0; r < 5; ++r) sys.run_parallel(task, pack(IterArgs{addr, kN}));
    before = m.now();
    img = ckpt.take(pack(std::int64_t{5}));
    after = m.now();
  });
  EXPECT_EQ(ckpt.stats().checkpoints_taken, 1);
  // Slaves wrote pages the master did not have: collection fetched them.
  EXPECT_GT(ckpt.stats().pages_collected, 0);
  // Disk write of a ~2 MB image at 8.1 MB/s is ~0.25 s.
  EXPECT_GT(after - before, sim::from_seconds(0.1));
  EXPECT_EQ(unpack<std::int64_t>(img.app_state), 5);
}

TEST(Checkpoint, RefusedUpFrontUnderTheRealBackend) {
  sim::Cluster cluster({}, 1);
  DsmConfig cfg = small_config();
  cfg.backend = dsm::BackendKind::kReal;
  test::use_real_knob_values(cfg);
  DsmSystem sys(cluster, cfg);
  Checkpointer ckpt(sys);
  sys.start(1);
  std::string message;
  sys.run([&](DsmProcess&) {
    try {
      ckpt.take({});
    } catch (const util::CheckError& e) {
      message = e.what();
    }
  });
  EXPECT_NE(message.find("checkpointing is simulator-only"),
            std::string::npos)
      << message;
  EXPECT_EQ(ckpt.stats().checkpoints_taken, 0);
  EXPECT_EQ(sys.stats().counter_value("dsm.gc_runs"), 0);
}

TEST(Checkpoint, RecoveryResumesAndMatchesUninterruptedRun) {
  const std::string path = testing::TempDir() + "/anow_ckpt_recovery.bin";
  constexpr int kTotalRounds = 10;
  constexpr int kCrashAfter = 6;

  // Reference: uninterrupted run.
  std::vector<std::int64_t> expected(kN);
  {
    sim::Cluster cluster({}, 4);
    DsmSystem sys(cluster, small_config());
    auto task = register_inc(sys);
    sys.start(4);
    sys.run([&](DsmProcess& m) {
      const GAddr addr = sys.shared_malloc(kN * 8);
      m.write_range(addr, kN * 8);
      auto* data = m.ptr<std::int64_t>(addr);
      for (std::int64_t i = 0; i < kN; ++i) data[i] = i % 7;
      for (int r = 0; r < kTotalRounds; ++r) {
        sys.run_parallel(task, pack(IterArgs{addr, kN}));
      }
      m.read_range(addr, kN * 8);
      std::memcpy(expected.data(), m.cptr<std::int64_t>(addr), kN * 8);
    });
  }

  // Crashing run: checkpoint after kCrashAfter rounds, then "crash" (the
  // run simply ends; everything in memory is lost).
  {
    sim::Cluster cluster({}, 4);
    DsmSystem sys(cluster, small_config());
    Checkpointer ckpt(sys);
    auto task = register_inc(sys);
    sys.start(4);
    sys.run([&](DsmProcess& m) {
      const GAddr addr = sys.shared_malloc(kN * 8);
      m.write_range(addr, kN * 8);
      auto* data = m.ptr<std::int64_t>(addr);
      for (std::int64_t i = 0; i < kN; ++i) data[i] = i % 7;
      for (int r = 0; r < kCrashAfter; ++r) {
        sys.run_parallel(task, pack(IterArgs{addr, kN}));
      }
      ckpt.take(pack(std::int64_t{kCrashAfter})).save_to_file(path);
      // crash: abandon the remaining rounds
    });
  }

  // Recovery: fresh system, restore, resume from the recorded cursor.
  {
    sim::Cluster cluster({}, 4);
    DsmSystem sys(cluster, small_config());
    auto task = register_inc(sys);
    sys.start(4);
    CheckpointImage img = CheckpointImage::load_from_file(path);
    const auto resume_round = unpack<std::int64_t>(img.app_state);
    EXPECT_EQ(resume_round, kCrashAfter);
    sys.run([&](DsmProcess& m) {
      const GAddr addr = sys.shared_malloc(kN * 8);  // same layout
      Checkpointer::restore(sys, img);
      for (int r = static_cast<int>(resume_round); r < kTotalRounds; ++r) {
        sys.run_parallel(task, pack(IterArgs{addr, kN}));
      }
      m.read_range(addr, kN * 8);
      const auto* data = m.cptr<std::int64_t>(addr);
      for (std::int64_t i = 0; i < kN; ++i) {
        ASSERT_EQ(data[i], expected[i]) << "at index " << i;
      }
    });
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace anow::core
