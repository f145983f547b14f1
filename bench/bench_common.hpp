// Shared helpers for the bench binaries.
//
// Every bench reproduces one table/figure of the paper (see DESIGN.md §4).
// Default problem sizes are the fast "bench" presets; pass --full to run
// the paper's Table 1 sizes.  The *shape* of the results (who wins, rough
// factors, crossovers) is the reproduction target; absolute numbers depend
// on the calibrated cost model (sim/cost_model.hpp).
#pragma once

#include <iostream>
#include <string>

#include "apps/workload.hpp"
#include "dsm/config.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace anow::bench {

inline apps::Size size_from_options(const util::Options& opts) {
  if (opts.get_bool("full", false)) return apps::Size::kPaper;
  return apps::parse_size(opts.get_string("size", "bench"));
}

/// --backend {sim,real}: execution backend (defaults to ANOW_BACKEND, else
/// sim — DESIGN.md §14).  real runs the protocol on pthreads with
/// mprotect'd heaps and reports wall-clock seconds.
inline dsm::BackendKind backend_from_options(const util::Options& opts) {
  return dsm::parse_backend_kind(opts.get_choice(
      "backend", {"sim", "real"},
      dsm::backend_kind_name(dsm::backend_from_env())));
}

/// --engine {lrc,home}: which consistency engine the workloads run under
/// (defaults to ANOW_ENGINE, else lrc).
inline dsm::EngineKind engine_from_options(const util::Options& opts) {
  return dsm::parse_engine_kind(opts.get_choice(
      "engine", {"lrc", "home"},
      dsm::engine_kind_name(dsm::engine_kind_from_env())));
}

/// --piggyback {off,release,aggressive}: envelope coalescing policy
/// (defaults to ANOW_PIGGYBACK, else release).
inline dsm::PiggybackMode piggyback_from_options(const util::Options& opts) {
  return dsm::parse_piggyback_mode(opts.get_choice(
      "piggyback", {"off", "release", "aggressive"},
      dsm::piggyback_mode_name(dsm::piggyback_mode_from_env())));
}

/// --dir-shards N: owner-directory shard count (defaults to
/// ANOW_DIR_SHARDS, else 1 — the unsharded master-held directory).
inline int dir_shards_from_options(const util::Options& opts) {
  return static_cast<int>(
      opts.get_int("dir-shards", dsm::dir_shards_from_env()));
}

/// --placement {static,adaptive}: adaptive home migration + shard
/// rebalancing (defaults to ANOW_PLACEMENT, else static).
inline dsm::PlacementMode placement_from_options(const util::Options& opts) {
  return dsm::parse_placement_mode(opts.get_choice(
      "placement", {"static", "adaptive"},
      dsm::placement_mode_name(dsm::placement_mode_from_env())));
}

/// --topology {flat,tree}: control-plane topology for barriers, GC, and
/// owner-delta broadcast (defaults to ANOW_TOPOLOGY, else flat —
/// DESIGN.md §12).
inline dsm::TopologyKind topology_from_options(const util::Options& opts) {
  return dsm::parse_topology_kind(opts.get_choice(
      "topology", {"flat", "tree"},
      dsm::topology_kind_name(dsm::topology_kind_from_env())));
}

/// --fanout K: combining/multicast tree fan-out under --topology tree
/// (defaults to ANOW_FANOUT, else 4).
inline int fanout_from_options(const util::Options& opts) {
  return static_cast<int>(opts.get_int("fanout", dsm::fanout_from_env()));
}

/// --race-check {off,page,word}: LRC data-race detection (defaults to
/// ANOW_RACE_CHECK, else off — DESIGN.md §13).  Word is the certification
/// mode; page over-approximates on shared boundary pages.
inline dsm::RaceCheckMode race_check_from_options(const util::Options& opts) {
  return dsm::parse_race_check_mode(opts.get_choice(
      "race-check", {"off", "page", "word"},
      dsm::race_check_mode_name(dsm::race_check_from_env())));
}

/// --trace FILE: Chrome trace-event JSON output (DESIGN.md §11; defaults
/// to ANOW_TRACE, else off).  Open the file at https://ui.perfetto.dev.
inline std::string trace_file_from_options(const util::Options& opts) {
  return opts.get_string("trace", dsm::trace_file_from_env());
}

/// --time-breakdown: print the per-process virtual-time attribution table
/// (compute/barrier/lock/fault/GC/idle buckets; DESIGN.md §11).
inline bool time_breakdown_from_options(const util::Options& opts) {
  return opts.get_bool("time-breakdown", false);
}

inline void print_header(const std::string& title, const std::string& what) {
  std::cout << "\n=== " << title << " ===\n" << what << "\n\n";
}

/// Canonical Table 1 ordering of the workloads.
inline std::vector<std::string> table1_apps() {
  return {"gauss", "jacobi", "fft3d", "nbf"};
}

}  // namespace anow::bench
