// Experiment harness: builds a cluster + DSM system for a workload, runs it
// with an optional adaptation schedule, and collects exactly the measurements
// the paper reports (Table 1 columns, adaptation costs per the §5.3
// interpolation methodology, §5.4 micro statistics).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "core/adapt.hpp"
#include "core/events.hpp"
#include "dsm/config.hpp"
#include "obs/trace.hpp"
#include "sim/cost_model.hpp"
#include "util/stats.hpp"

namespace anow::harness {

/// One run: the workload, team and adaptation schedule, plus the run-time
/// knobs (dsm::Knobs, which default to their env values and reach the
/// DsmConfig unchanged).
struct RunConfig : dsm::Knobs {
  std::string app = "jacobi";
  apps::Size size = apps::Size::kBench;
  int nprocs = 8;
  /// false = the non-adaptive base TreadMarks (no hook installed at all).
  bool adaptive = true;
  std::vector<core::AdaptEvent> events;
  bool gc_before_adapt = true;
  /// Charge the 0.6-0.8 s process-creation cost on joins.  Tests that need
  /// a join to complete inside a test-size run turn this off.
  bool charge_spawn_cost = true;
  sim::CostModel cost{};
  std::uint64_t seed = 1;
  /// Extra hosts beyond nprocs available for joins.
  int spare_hosts = 0;
};

struct RunResult {
  std::string app;
  std::string size_desc;
  int nprocs = 0;            // initial
  int final_world = 0;
  double seconds = 0.0;      // virtual runtime
  double checksum = 0.0;

  // Table 1 traffic columns.
  std::int64_t page_fetches = 0;
  std::int64_t diff_fetches = 0;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;

  // Adaptation bookkeeping.
  std::int64_t joins = 0;
  std::int64_t leaves = 0;
  std::int64_t migrations = 0;
  std::vector<core::AdaptRecord> records;

  /// Average virtual time between adaptation points (fork boundaries).
  double adapt_point_interval_s = 0.0;
  /// Time-weighted average team size over the run (for the §5.3
  /// interpolation method).
  double avg_nodes = 0.0;

  std::int64_t shared_mb() const;

  util::StatsRegistry::Snapshot stats;

  /// Time-attribution report (set when the run traced: trace_file non-empty
  /// or time_attribution true).  Buckets sum exactly to per-process runtime.
  std::optional<obs::Report> trace;
};

RunResult run_workload(const RunConfig& config);

/// As above, but with a caller-supplied workload (custom problem sizes);
/// config.app/config.size are ignored.
RunResult run_workload(const RunConfig& config,
                       std::unique_ptr<apps::Workload> workload);

/// The paper's §5.3 reference method: interpolate non-adaptive runtimes
/// (keyed by nprocs) at a fractional average node count.  Interpolation is
/// linear in 1/nodes (runtime ~ work/nodes + overhead), clamped to the
/// measured range.
double interpolate_reference_seconds(
    const std::map<int, double>& nonadaptive_seconds, double avg_nodes);

/// Average adaptation delay = (adaptive runtime - interpolated reference) /
/// number of adaptations (§5.3).
double average_adaptation_cost(
    const RunResult& adaptive_run,
    const std::map<int, double>& nonadaptive_seconds);

}  // namespace anow::harness
