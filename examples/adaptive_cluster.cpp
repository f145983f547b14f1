// A long-running Gauss elimination on a NOW whose owners come and go: the
// paper's motivating scenario.  Workstations withdraw during the day and
// return in the evening; one impatient owner gives only a 50 ms grace
// period, forcing an urgent leave (migration + multiplexing).
//
//   ./examples/adaptive_cluster [--nodes=8] [--n=512]
#include <iostream>

#include "apps/gauss.hpp"
#include "core/adapt.hpp"
#include "harness/runner.hpp"
#include "harness/schedule.hpp"
#include "util/options.hpp"

using namespace anow;

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  opts.allow_only({"nodes", "n"});
  const int nodes = static_cast<int>(opts.get_int("nodes", 8, 1));
  const std::int64_t n = opts.get_int("n", 512, 1);

  std::cout << "Gauss " << n << "x" << n << " on a NOW of " << nodes
            << " workstations with a day/evening availability pattern\n\n";

  harness::RunConfig cfg;
  cfg.nprocs = nodes;
  // The owners' schedule:
  //  t=0.8s : workstation 3's owner returns to their desk (normal leave)
  //  t=1.5s : workstation 5's owner too, but grants only 50 ms grace
  //           (urgent leave -> migration -> multiplexing)
  //  t=2.8s : workstation 3 becomes idle again (join)
  //  t=3.6s : workstation 5 as well (join)
  cfg.events = {
      {core::AdaptKind::kLeave, sim::from_seconds(0.8), 3,
       core::kDefaultGrace},
      {core::AdaptKind::kLeave, sim::from_seconds(1.5), 5,
       sim::from_seconds(0.05)},
      {core::AdaptKind::kJoin, sim::from_seconds(2.8), 3, 0},
      {core::AdaptKind::kJoin, sim::from_seconds(3.6), 5, 0},
  };

  auto result = harness::run_workload(
      cfg, std::make_unique<apps::Gauss>(apps::Gauss::Params{n}));

  std::cout << "timeline of adaptations:\n";
  for (const auto& rec : result.records) {
    std::cout << "  t=" << sim::to_seconds(rec.handled_at) << "s  "
              << to_string(rec.kind) << " of uid " << rec.uid << "  ("
              << rec.world_before << " -> " << rec.world_after
              << " processes" << (rec.urgent ? ", after migration" : "")
              << "), point handled in "
              << sim::to_seconds(rec.hook_duration) * 1000 << " ms\n";
  }
  std::cout << "\nrun finished in " << result.seconds << " virtual seconds ("
            << result.final_world << " processes at the end)\n";
  std::cout << "checksum " << result.checksum << " — identical to a "
            << "non-adaptive run (transparency)\n";
  std::cout << "migrations: " << result.migrations
            << ", pages re-owned at leaves: "
            << result.stats.counter("adapt.leave_pages_reowned") << "\n";
  return 0;
}
