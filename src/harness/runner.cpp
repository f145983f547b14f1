#include "harness/runner.hpp"

#include <algorithm>
#include <cmath>

#include "dsm/system.hpp"
#include "ompx/runtime.hpp"
#include "sim/cluster.hpp"
#include "util/check.hpp"

namespace anow::harness {

std::int64_t RunResult::shared_mb() const {
  return bytes / (1024 * 1024);
}

RunResult run_workload(const RunConfig& config) {
  return run_workload(config, apps::make_workload(config.app, config.size));
}

RunResult run_workload(const RunConfig& config,
                       std::unique_ptr<apps::Workload> workload) {
  const bool adaptive =
      config.adaptive && config.backend == dsm::BackendKind::kSim;
  ANOW_CHECK_MSG(adaptive || config.events.empty(),
                 "adaptation events (join/leave/migrate) need the adaptive "
                 "runtime on --backend sim");
  sim::Cluster cluster(config.cost, config.nprocs + config.spare_hosts,
                       config.seed);
  dsm::DsmConfig dsm_cfg = workload->dsm_config();
  static_cast<dsm::Knobs&>(dsm_cfg) = config;
  dsm::DsmSystem system(cluster, dsm_cfg);
  ompx::Runtime rt(system);
  workload->setup(rt);

  std::optional<core::AdaptiveRuntime> adapt;
  if (adaptive) {
    core::AdaptiveRuntime::Options opts;
    opts.gc_before_adapt = config.gc_before_adapt;
    opts.charge_spawn_cost = config.charge_spawn_cost;
    adapt.emplace(system, opts);
    for (const auto& ev : config.events) {
      adapt->post(ev);
    }
  }

  system.start(config.nprocs);

  // Track team size over time for the average-nodes integral.
  double node_seconds = 0.0;
  sim::Time last_change = 0;
  int last_world = config.nprocs;

  RunResult result;
  system.run([&](dsm::DsmProcess& master) {
    workload->master_main(master);
    result.seconds = sim::to_seconds(master.now());
  });

  // Integrate world size across adaptation records.
  if (adapt) {
    for (const auto& rec : adapt->records()) {
      if (rec.handled_at > last_change) {
        node_seconds += sim::to_seconds(rec.handled_at - last_change) *
                        last_world;
        last_change = rec.handled_at;
      }
      last_world = rec.world_after;
    }
  }
  node_seconds +=
      (result.seconds - sim::to_seconds(last_change)) * last_world;

  const auto& stats = cluster.stats();
  result.app = workload->name();
  result.size_desc = workload->size_desc();
  result.nprocs = config.nprocs;
  result.final_world = system.world_size();
  result.checksum = workload->result();
  result.page_fetches = stats.counter_value("dsm.page_fetches");
  result.diff_fetches = stats.counter_value("dsm.diff_fetches");
  result.messages = stats.counter_value("net.messages");
  result.bytes = stats.counter_value("net.bytes");
  result.joins = stats.counter_value("adapt.joins");
  result.leaves = stats.counter_value("adapt.leaves");
  result.migrations = stats.counter_value("adapt.migrations");
  if (adapt) {
    result.records = adapt->records();
  }
  const std::int64_t forks = stats.counter_value("dsm.forks");
  result.adapt_point_interval_s =
      forks > 0 ? result.seconds / static_cast<double>(forks) : 0.0;
  result.avg_nodes =
      result.seconds > 0.0 ? node_seconds / result.seconds
                           : static_cast<double>(config.nprocs);
  result.stats = stats.snapshot();
  if (cluster.trace() != nullptr) {
    result.trace = cluster.trace()->report();
  }
  return result;
}

double interpolate_reference_seconds(
    const std::map<int, double>& nonadaptive_seconds, double avg_nodes) {
  ANOW_CHECK(!nonadaptive_seconds.empty());
  // Runtime is ~ A / nodes + B; interpolate linearly in x = 1/nodes between
  // the two bracketing measurements.
  const double x = 1.0 / avg_nodes;
  auto lo = nonadaptive_seconds.begin();
  auto hi = std::prev(nonadaptive_seconds.end());
  if (avg_nodes <= lo->first) return lo->second;
  if (avg_nodes >= hi->first) return hi->second;
  auto above = nonadaptive_seconds.lower_bound(
      static_cast<int>(std::ceil(avg_nodes)));
  auto below = std::prev(above);
  if (above->first == below->first) return above->second;
  const double xa = 1.0 / below->first, va = below->second;
  const double xb = 1.0 / above->first, vb = above->second;
  return va + (vb - va) * (x - xa) / (xb - xa);
}

double average_adaptation_cost(
    const RunResult& adaptive_run,
    const std::map<int, double>& nonadaptive_seconds) {
  const std::size_t n_adapt = adaptive_run.records.size();
  ANOW_CHECK_MSG(n_adapt > 0, "no adaptations in the adaptive run");
  const double reference = interpolate_reference_seconds(
      nonadaptive_seconds, adaptive_run.avg_nodes);
  return (adaptive_run.seconds - reference) / static_cast<double>(n_adapt);
}

}  // namespace anow::harness
