// Real-hardware execution backend vs the simulator (DESIGN.md §14).
//
// Three measurement groups, all run under --backend sim and --backend real
// on the same protocol object code:
//
//  1. pios-style microbench sweeps (host wall-clock): fork/join latency of
//     an empty parallel region, first-read page *touch* cost (remote fetch
//     per page), and page *scrub* cost (write declaration + diff per page)
//     over a range of region sizes.
//  2. wall-clock application legs: jacobi and hotspot at bench size, with
//     the differential guarantee that sim and real checksums are
//     bit-identical.
//  3. real-parallelism speedup: jacobi on 4 pthreads vs 1, each timed as
//     the median of 5 runs after a warm-up run (the simulator cannot speed
//     up — it always runs on one host thread; the real backend must).
//
// Results go to BENCH_backend.json; --check-backend turns the differential
// checksums and the 4-vs-1 speedup floor into an exit code for CI.
#include <atomic>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dsm/system.hpp"
#include "sim/cluster.hpp"
#include "util/table.hpp"

namespace anow {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Keeps page reads in the touch sweep from being optimized away.
std::atomic<std::uint64_t> g_sink{0};

struct MicroResult {
  std::int64_t ops = 0;
  double wall_seconds = 0.0;
  double us_per_op() const {
    return ops > 0 ? wall_seconds * 1e6 / static_cast<double>(ops) : 0.0;
  }
};

/// Empty parallel region, `rounds` times: fork + join latency.
MicroResult fork_join(dsm::BackendKind backend, int nprocs, int rounds) {
  using namespace dsm;
  sim::Cluster cluster({}, nprocs);
  DsmConfig cfg;
  cfg.backend = backend;
  cfg.heap_bytes = 1 << 16;
  DsmSystem sys(cluster, cfg);
  const auto noop = sys.register_task(
      "noop", [](DsmProcess&, const std::vector<std::uint8_t>&) {});
  sys.start(nprocs);
  MicroResult out;
  const auto t0 = Clock::now();
  sys.run([&](DsmProcess&) {
    for (int r = 0; r < rounds; ++r) sys.run_parallel(noop, {});
  });
  out.wall_seconds = seconds_since(t0);
  out.ops = rounds;
  return out;
}

/// Touch sweep: process 0 dirties every page, everyone else then reads
/// every page — one op is one remotely fetched page read.
MicroResult touch_sweep(dsm::BackendKind backend, int nprocs,
                        std::int32_t npages, int rounds) {
  using namespace dsm;
  sim::Cluster cluster({}, nprocs);
  DsmConfig cfg;
  cfg.backend = backend;
  cfg.heap_bytes = static_cast<std::size_t>(npages) * kPageSize;
  DsmSystem sys(cluster, cfg);
  const std::size_t bytes = cfg.heap_bytes;
  const auto touch = sys.register_task(
      "touch", [npages, bytes, rounds](DsmProcess& p,
                                       const std::vector<std::uint8_t>&) {
        for (int r = 0; r < rounds; ++r) {
          if (p.pid() == 0) {
            p.write_range(0, bytes);
            std::uint8_t* b = p.ptr<std::uint8_t>(0);
            for (std::int32_t pg = 0; pg < npages; ++pg) {
              b[static_cast<std::size_t>(pg) * kPageSize] =
                  static_cast<std::uint8_t>(r + 1);
            }
          }
          p.barrier(1);
          if (p.pid() != 0) {
            p.read_range(0, bytes);
            const std::uint8_t* b = p.cptr<std::uint8_t>(0);
            std::uint64_t sum = 0;
            for (std::int32_t pg = 0; pg < npages; ++pg) {
              sum += b[static_cast<std::size_t>(pg) * kPageSize];
            }
            g_sink.fetch_add(sum, std::memory_order_relaxed);
          }
          p.barrier(1);
        }
      });
  sys.start(nprocs);
  MicroResult out;
  const auto t0 = Clock::now();
  sys.run([&](DsmProcess&) { sys.run_parallel(touch, {}); });
  out.wall_seconds = seconds_since(t0);
  out.ops = static_cast<std::int64_t>(nprocs - 1) * npages * rounds;
  return out;
}

/// Scrub sweep: every process writes one byte into each page of its own
/// block every round — one op is one page write (write_range twin, then a
/// diff at the barrier).
MicroResult scrub_sweep(dsm::BackendKind backend, int nprocs,
                        std::int32_t npages, int rounds) {
  using namespace dsm;
  sim::Cluster cluster({}, nprocs);
  DsmConfig cfg;
  cfg.backend = backend;
  cfg.heap_bytes = static_cast<std::size_t>(npages) * kPageSize;
  DsmSystem sys(cluster, cfg);
  const auto scrub = sys.register_task(
      "scrub", [npages, rounds](DsmProcess& p,
                                const std::vector<std::uint8_t>&) {
        const std::int32_t per = npages / p.nprocs();
        const std::int32_t lo = p.pid() * per;
        const std::int32_t hi =
            p.pid() == p.nprocs() - 1 ? npages : lo + per;
        for (int r = 0; r < rounds; ++r) {
          p.write_range(static_cast<GAddr>(lo) * kPageSize,
                        static_cast<std::size_t>(hi - lo) * kPageSize);
          std::uint8_t* b = p.ptr<std::uint8_t>(0);
          for (std::int32_t pg = lo; pg < hi; ++pg) {
            b[static_cast<std::size_t>(pg) * kPageSize] =
                static_cast<std::uint8_t>(r + 1);
          }
          p.barrier(1);
        }
      });
  sys.start(nprocs);
  MicroResult out;
  const auto t0 = Clock::now();
  sys.run([&](DsmProcess&) { sys.run_parallel(scrub, {}); });
  out.wall_seconds = seconds_since(t0);
  out.ops = static_cast<std::int64_t>(npages) * rounds;
  return out;
}

// ---------------------------------------------------------------------------
// Application legs
// ---------------------------------------------------------------------------

struct Leg {
  std::string app;
  double sim_virtual_s = 0.0;  // what the simulator predicts
  double sim_wall_s = 0.0;     // host cost of simulating it
  double real_wall_s = 0.0;    // measured on pthreads
  double sim_checksum = 0.0;
  double real_checksum = 0.0;
  bool match() const { return sim_checksum == real_checksum; }
};

harness::RunResult run_app(const std::string& app, apps::Size size,
                           dsm::BackendKind backend, int nprocs) {
  harness::RunConfig cfg;
  cfg.app = app;
  cfg.size = size;
  cfg.nprocs = nprocs;
  cfg.adaptive = false;
  cfg.backend = backend;
  return harness::run_workload(cfg);
}

Leg app_leg(const std::string& app, apps::Size size, int nprocs) {
  Leg leg;
  leg.app = app;
  const auto t0 = Clock::now();
  const auto sim = run_app(app, size, dsm::BackendKind::kSim, nprocs);
  leg.sim_wall_s = seconds_since(t0);
  leg.sim_virtual_s = sim.seconds;
  leg.sim_checksum = sim.checksum;
  const auto real = run_app(app, size, dsm::BackendKind::kReal, nprocs);
  leg.real_wall_s = real.seconds;
  leg.real_checksum = real.checksum;
  return leg;
}

}  // namespace
}  // namespace anow

int main(int argc, char** argv) {
  using namespace anow;
  util::Options opts(argc, argv);
  opts.allow_only({"size", "full", "check-backend", "speedup-floor",
                   "nprocs"});
  const apps::Size size = bench::size_from_options(opts);
  const bool check = opts.get_bool("check-backend", false);
  // 4 pthreads vs 1 on a multi-core host should beat this comfortably; the
  // floor only guards against the backend serializing by accident.
  const double speedup_floor = opts.get_double("speedup-floor", 1.2);
  const int nprocs = static_cast<int>(opts.get_int("nprocs", 4, 1));

  // ---- microbench sweeps -------------------------------------------------
  bench::print_header(
      "Backend microbenchmarks (host wall-clock)",
      "Fork/join, page touch (first-read fetch), and page scrub (write "
      "declaration + diff) under --backend sim and --backend real "
      "(DESIGN.md §14).");
  struct SweepRow {
    std::string name;
    MicroResult sim, real;
  };
  std::vector<SweepRow> sweeps;
  sweeps.push_back({"fork_join",
                    fork_join(dsm::BackendKind::kSim, nprocs, 200),
                    fork_join(dsm::BackendKind::kReal, nprocs, 200)});
  for (const std::int32_t npages : {16, 64, 256}) {
    sweeps.push_back(
        {"touch_p" + std::to_string(npages),
         touch_sweep(dsm::BackendKind::kSim, nprocs, npages, 20),
         touch_sweep(dsm::BackendKind::kReal, nprocs, npages, 20)});
    sweeps.push_back(
        {"scrub_p" + std::to_string(npages),
         scrub_sweep(dsm::BackendKind::kSim, nprocs, npages, 20),
         scrub_sweep(dsm::BackendKind::kReal, nprocs, npages, 20)});
  }
  {
    util::Table t({"Microbench", "Ops", "Sim wall (s)", "Sim us/op",
                   "Real wall (s)", "Real us/op"});
    for (const auto& row : sweeps) {
      t.row()
          .add(row.name)
          .add(row.sim.ops)
          .add(row.sim.wall_seconds, 3)
          .add(row.sim.us_per_op(), 2)
          .add(row.real.wall_seconds, 3)
          .add(row.real.us_per_op(), 2);
    }
    t.print(std::cout);
  }

  // ---- application legs --------------------------------------------------
  bench::print_header(
      "Application wall-clock legs (sim vs real)",
      "Virtual seconds are the simulator's prediction; wall seconds are "
      "measured.  Checksums must be bit-identical across backends.");
  std::vector<Leg> legs;
  for (const char* app : {"jacobi", "hotspot"}) {
    legs.push_back(app_leg(app, size, nprocs));
  }
  {
    util::Table t({"App", "Sim virtual (s)", "Sim wall (s)", "Real wall (s)",
                   "Checksums"});
    for (const auto& leg : legs) {
      t.row()
          .add(leg.app)
          .add(leg.sim_virtual_s, 3)
          .add(leg.sim_wall_s, 3)
          .add(leg.real_wall_s, 3)
          .add(leg.match() ? "match" : "MISMATCH");
    }
    t.print(std::cout);
  }

  // ---- 4-vs-1 speedup ----------------------------------------------------
  bench::print_header(
      "Real-parallelism speedup",
      "jacobi under --backend real on " + std::to_string(nprocs) +
          " pthreads vs 1, each the median of 5 runs after a warm-up; the "
          "simulator runs every configuration on one host thread, the real "
          "backend must actually scale.");
  const auto real_1 = bench::median_of_repeats(
      [&] { return run_app("jacobi", size, dsm::BackendKind::kReal, 1); });
  const auto real_n = bench::median_of_repeats([&] {
    return run_app("jacobi", size, dsm::BackendKind::kReal, nprocs);
  });
  const double speedup =
      real_n.seconds > 0.0 ? real_1.seconds / real_n.seconds : 0.0;
  const int host_cores =
      static_cast<int>(std::thread::hardware_concurrency());
  // Speedup needs a core per thread; on an oversubscribed host every
  // message hop is a context switch and the measurement only records the
  // oversubscription penalty, so the gate does not apply.
  const bool speedup_gated = host_cores >= nprocs;
  std::cout << "jacobi real wall: 1 thread " << std::fixed
            << std::setprecision(3) << real_1.seconds << " s, " << nprocs
            << " threads " << real_n.seconds << " s  ->  speedup "
            << std::setprecision(2) << speedup << "x (" << host_cores
            << " host cores" << (speedup_gated ? "" : "; not gated") << ")\n";

  // ---- BENCH_backend.json ------------------------------------------------
  util::JsonWriter json;
  json.begin_object();
  json.field("bench", "backend");
  json.field("schema_version", 1);
  json.field("nprocs", nprocs);
  json.begin_object("micro");
  for (const auto& row : sweeps) {
    json.begin_object(row.name);
    json.field("ops", row.sim.ops);
    json.field("sim_wall_seconds", row.sim.wall_seconds);
    json.field("sim_us_per_op", row.sim.us_per_op());
    json.field("real_wall_seconds", row.real.wall_seconds);
    json.field("real_us_per_op", row.real.us_per_op());
    json.end_object();
  }
  json.end_object();
  json.begin_object("apps");
  for (const auto& leg : legs) {
    json.begin_object(leg.app);
    json.field("sim_virtual_seconds", leg.sim_virtual_s);
    json.field("sim_wall_seconds", leg.sim_wall_s);
    json.field("real_wall_seconds", leg.real_wall_s);
    json.field("checksums_match", leg.match());
    json.end_object();
  }
  json.end_object();
  json.begin_object("speedup");
  json.field("app", "jacobi");
  json.field("host_cores", host_cores);
  json.field("real_wall_seconds_1", real_1.seconds);
  json.field("real_wall_seconds_n", real_n.seconds);
  json.field("speedup", speedup);
  json.field("gated", speedup_gated);
  json.end_object();
  json.end_object();
  json.write_file("BENCH_backend.json");
  std::cout << "Wrote BENCH_backend.json\n";

  // ---- --check-backend gate ----------------------------------------------
  if (check) {
    bool ok = true;
    for (const auto& leg : legs) {
      if (!leg.match()) {
        std::cout << "check-backend: FAILED — " << leg.app
                  << " checksums diverge between sim and real\n";
        ok = false;
      }
    }
    if (speedup_gated && speedup < speedup_floor) {
      std::cout << "check-backend: FAILED — jacobi " << nprocs
                << "-thread speedup " << speedup << "x below floor "
                << speedup_floor << "x\n";
      ok = false;
    }
    if (ok) {
      std::cout << "check-backend: OK — checksums match"
                << (speedup_gated ? ", real backend scales"
                                  : " (speedup not gated: host has fewer "
                                    "cores than threads)")
                << "\n";
    } else {
      std::cout << "check-backend: FAILED\n";
    }
    return ok ? 0 : 1;
  }
  return 0;
}
