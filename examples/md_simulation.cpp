// Molecular-dynamics scenario: the NBF kernel (the paper's irregular
// application) running overnight on a pool of idle workstations, with a
// Poisson availability pattern — the workload the paper's introduction
// motivates ("computations ... no longer bounded by the time an individual
// workstation is present in the pool").
//
//   ./examples/md_simulation [--atoms=8192] [--rate=4] [--seed=1]
#include <iostream>

#include "apps/nbf.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"

using namespace anow;

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  opts.allow_only({"atoms", "rate", "seed"});
  const std::int64_t atoms = opts.get_int("atoms", 8192, 1);
  const double rate = opts.get_double("rate", 4.0);  // events/minute
  util::Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));

  apps::Nbf::Params params{atoms, 24, 60, 20260612};

  std::cout << "NBF molecular dynamics, " << atoms
            << " atoms, 24 partners, 60 timesteps\n"
            << "8 workstations, 3 of them with owners coming and going ("
            << rate << " events/min, grace 3 s)\n\n";

  // Reference run to size the event horizon and validate transparency.
  harness::RunConfig cfg;
  cfg.nprocs = 8;
  cfg.adaptive = false;
  auto reference =
      harness::run_workload(cfg, std::make_unique<apps::Nbf>(params));

  cfg.adaptive = true;
  cfg.events = harness::poisson_schedule(
      rng, rate, sim::from_seconds(1.0),
      sim::from_seconds(reference.seconds * 1.3), 5, 3);
  auto run = harness::run_workload(cfg, std::make_unique<apps::Nbf>(params));

  std::cout << "adaptations:\n";
  for (const auto& rec : run.records) {
    std::cout << "  t=" << sim::to_seconds(rec.handled_at) << "s  "
              << to_string(rec.kind) << "  (" << rec.world_before << " -> "
              << rec.world_after << " processes)\n";
  }
  if (run.records.empty()) {
    std::cout << "  (none landed during the run — try --rate=16)\n";
  }

  std::cout << "\n                      runtime   checksum\n";
  std::cout << "  static 8-node run : " << reference.seconds << "s  "
            << reference.checksum << "\n";
  std::cout << "  adaptive run      : " << run.seconds << "s  "
            << run.checksum << "\n";
  std::cout << "\nchecksums " << (run.checksum == reference.checksum
                                      ? "MATCH bit-for-bit"
                                      : "DIFFER (bug!)")
            << " — adaptation is transparent to the physics.\n";
  std::cout << "irregular access pattern: "
            << run.stats.counter("dsm.page_fetches")
            << " page fetches over " << run.messages << " messages\n";
  return run.checksum == reference.checksum ? 0 : 1;
}
