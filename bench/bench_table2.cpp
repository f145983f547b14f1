// Reproduces Table 2: average cost of repeated adaptations between n and
// n-1 processes, for n = 8 and n = 6, with the leaving process either the
// "end" process (highest pid) or a "middle" one (pid 4 or 3).
//
// Methodology (paper §5.3): leaves and joins alternate, at most one per
// adaptation point; the average adaptation delay compares the adaptive
// runtime against the interpolated runtime of non-adaptive runs at the same
// average number of nodes.
#include <iostream>
#include <map>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace anow;
  util::Options opts(argc, argv);
  opts.allow_only({"size", "full", "pairs", "spacing"});
  const apps::Size size = bench::size_from_options(opts);
  const int pairs = static_cast<int>(opts.get_int("pairs", 3, 1));
  const double spacing_s = opts.get_double("spacing", 0.0);

  bench::print_header(
      "Table 2 — average cost of repeated adaptations between n and n-1",
      "Alternating leave/join of one host; leaver = end (highest pid) or "
      "middle (pid n/2).\nPaper (paper sizes): Gauss 4.19-5.38s, Jacobi "
      "2.77-8.75s, 3D-FFT 1.87-5.07s, NBF 1.01-3.96s.");

  util::Table t({"App", "n", "Leaver", "Adaptations", "Avg nodes",
                 "Adaptive(s)", "Reference(s)", "Avg cost/adaptation (s)"});

  for (const auto& app : bench::table1_apps()) {
    t.separator();
    for (int n : {8, 6}) {
      // Non-adaptive reference times at n and n-1 for the interpolation.
      std::map<int, double> reference;
      for (int k : {n - 1, n}) {
        harness::RunConfig cfg;
        cfg.app = app;
        cfg.size = size;
        cfg.nprocs = k;
        cfg.adaptive = false;
        reference[k] = harness::run_workload(cfg).seconds;
      }

      for (const char* which : {"end", "middle"}) {
        const int leave_pid = which == std::string("end") ? n - 1 : n / 2;
        harness::RunConfig cfg;
        cfg.app = app;
        cfg.size = size;
        cfg.nprocs = n;
        // Spacing: spread the leave/join pairs across the run.
        const double run_s = reference[n];
        const double spacing =
            spacing_s > 0 ? spacing_s
                          : std::max(0.5, run_s / (2.0 * pairs + 1.0));
        cfg.events = harness::alternating_leave_join(
            sim::from_seconds(spacing * 0.5), sim::from_seconds(spacing),
            leave_pid, pairs);
        auto run = harness::run_workload(cfg);
        if (run.records.empty()) {
          t.row().add(run.app).add(n).add(which).add(0).add("-").add(
              run.seconds, 2);
          continue;
        }
        const double ref =
            harness::interpolate_reference_seconds(reference, run.avg_nodes);
        const double cost = (run.seconds - ref) /
                            static_cast<double>(run.records.size());
        auto& row = t.row();
        row.add(run.app).add(n).add(which);
        row.add(static_cast<std::int64_t>(run.records.size()));
        row.add(run.avg_nodes, 2);
        row.add(run.seconds, 2);
        row.add(ref, 2);
        row.add(cost, 2);
      }
    }
  }
  t.print(std::cout);
  std::cout << "\nPaper's key observations to check: adaptation with 8 "
               "processes is cheaper than with 6; middle leaves cost more "
               "than end leaves.\n";
  return 0;
}
