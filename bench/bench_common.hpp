// Shared helpers for the bench binaries.
//
// Every bench reproduces one table/figure of the paper (see DESIGN.md §4).
// Default problem sizes are the fast "bench" presets; pass --full to run
// the paper's Table 1 sizes.  The *shape* of the results (who wins, rough
// factors, crossovers) is the reproduction target; absolute numbers depend
// on the calibrated cost model (sim/cost_model.hpp).
#pragma once

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

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

inline void print_header(const std::string& title, const std::string& what) {
  std::cout << "\n=== " << title << " ===\n" << what << "\n\n";
}

/// The wall time median_of_repeats ranks a pass by: the result's own
/// `seconds` (bench_micro's PrimitiveResult, harness::RunResult), or
/// `prim.seconds` for a result that wraps a PrimitiveResult.
template <typename Result>
double pass_seconds(const Result& r) {
  if constexpr (requires { r.prim.seconds; }) {
    return r.prim.seconds;
  } else {
    return r.seconds;
  }
}

/// Steady timing for one measurement.  A single pass often takes only a
/// few milliseconds, where one descheduling or a cold cache moves the
/// figure by 2-4x, so `pass` runs once untimed as a warm-up and then
/// kRepeats times, and the pass with the median wall time is returned.
/// `pass` does the whole measurement once (its own setup is outside its
/// timed part) and returns a result pass_seconds can rank.
template <typename Pass>
auto median_of_repeats(Pass pass) {
  constexpr int kRepeats = 5;
  pass();  // warm-up
  std::vector<decltype(pass())> runs;
  for (int i = 0; i < kRepeats; ++i) runs.push_back(pass());
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return pass_seconds(a) < pass_seconds(b);
  });
  return runs[kRepeats / 2];
}

/// Canonical Table 1 ordering of the workloads.
inline std::vector<std::string> table1_apps() {
  return {"gauss", "jacobi", "fft3d", "nbf"};
}

}  // namespace anow::bench
