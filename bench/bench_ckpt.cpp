// Checkpointing cost (paper §4.3): a checkpoint at an adaptation point is a
// GC + master page collection + libckpt disk write.  No slave coordination
// is needed — the paper's point — so the cost is the master's alone.
#include <cstring>
#include <iostream>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "dsm/system.hpp"
#include "ompx/runtime.hpp"
#include "sim/cluster.hpp"

int main(int argc, char** argv) {
  using namespace anow;
  util::Options opts(argc, argv);
  opts.allow_only({"size", "full", "nodes"});
  const apps::Size size = bench::size_from_options(opts);
  const int nodes = static_cast<int>(opts.get_int("nodes", 8, 1));

  bench::print_header(
      "Checkpoint cost at adaptation points (paper §4.3)",
      "GC + master collection of all pages it lacks + image write at "
      "8.1 MB/s.  Only the master checkpoints; slaves hold no private "
      "state at adaptation points.");

  util::Table t({"App", "Nodes", "Pages collected", "Image (MB)",
                 "Checkpoint time (s)", "Runtime w/o ckpt (s)",
                 "Overhead (%)"});

  for (const auto& app : bench::table1_apps()) {
    harness::RunConfig base;
    base.app = app;
    base.size = size;
    base.nprocs = nodes;
    base.adaptive = false;
    auto baseline = harness::run_workload(base);

    // Instrumented run: one checkpoint half-way.
    auto workload = apps::make_workload(app, size);
    sim::Cluster cluster({}, nodes);
    auto cfg = workload->dsm_config();
    dsm::DsmSystem sys(cluster, cfg);
    ompx::Runtime rt(sys);
    workload->setup(rt);
    core::Checkpointer ckpt(sys);
    sys.start(nodes);
    sim::Time ckpt_time = 0;
    sys.run([&](dsm::DsmProcess& master) {
      workload->init(master);
      const std::int64_t half = workload->iterations() / 2;
      for (std::int64_t it = 0; it < workload->iterations(); ++it) {
        if (it == half) {
          const sim::Time t0 = master.now();
          std::vector<std::uint8_t> cursor(sizeof(std::int64_t));
          std::memcpy(cursor.data(), &it, sizeof(it));
          ckpt.take(std::move(cursor));
          ckpt_time = master.now() - t0;
        }
        workload->iterate(master, it);
      }
      workload->checksum(master);
    });

    const double image_mb =
        static_cast<double>(cfg.heap_bytes + cfg.private_image_bytes) /
        (1024.0 * 1024.0);
    t.row()
        .add(workload->name())
        .add(nodes)
        .add(ckpt.stats().pages_collected)
        .add(image_mb, 1)
        .add(sim::to_seconds(ckpt_time), 2)
        .add(baseline.seconds, 2)
        .add(sim::to_seconds(ckpt_time) / baseline.seconds * 100.0, 2);
  }
  t.print(std::cout);
  return 0;
}
