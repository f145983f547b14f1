// Protocol ablation: the Table 1 workloads (gauss, jacobi, fft3d, nbf)
// plus the shifting-hotspot placement workload, under both consistency
// engines — TreadMarks-style lazy release consistency
// (diff archives, on-demand diff fetch) vs home-based LRC (eager flush to a
// per-page home, full-page fetch on fault) — and, per engine, under the
// envelope piggyback modes (off = flat one-segment-per-envelope baseline,
// release = coalescing at release points, aggressive = + batched fault-side
// fetches and coalesced replies; DESIGN.md §7) and the owner-directory
// shard counts (--dir-shards, DESIGN.md §8: 1 = the master-held directory,
// N = page ranges spread across the first N processes).
//
// Results go to stdout and to BENCH_protocols.json (schema 8): per
// (engine, dir-shards, piggyback) virtual runtime, host wall-clock
// (`wall_seconds` — the simulator's own cost, the raw-speed trajectory
// the hot-path passes optimize), message/envelope count,
// envelope fill, total bytes, the consistency-traffic metric, the
// master-inbound vs shard-inbound owner-lookup split, the per-segment-kind
// message histogram, the virtual-time attribution breakdown
// (`time_breakdown`: compute/barrier/lock/fault/gc/idle bucket totals that
// sum exactly to the total runtime; DESIGN.md §11), the per-barrier-epoch
// timeline (`epochs`, capped at 32 entries plus `epochs_total`: per-process
// stall, message/byte deltas, placement moves), and the batched-vs-unbatched
// delta — plus, per (engine, dir-shards), one `--placement adaptive` leg
// (release mode) with the dsm.placement.{home_moves,shard_moves} counters
// (DESIGN.md §9), and, at the first shard count, a traced-vs-untraced pair
// of release-mode legs (`trace_check`: the untraced rerun must carry zero
// obs.* stats and identical counters, the fully-traced rerun writes
// `--trace` (default BENCH_trace.json) and reports `trace_overhead_pct`
// host wall-clock overhead), and a `race_check` rerun of the release leg
// under --race-check word (`race_check`: must be byte-identical, report
// zero races on these DRF workloads, and carry `race_overhead_pct` — the
// detector's host wall-clock cost; DESIGN.md §13).  A leg that crashes
// mid-run is recorded as {"failed": true, "error": ...} and the sweep
// continues — the JSON is always written with a trailing `summary`
// ({ok, violations, crashed_legs}), and any crashed leg makes the exit
// code non-zero even outside --check-batching.  A final `scaling` section sweeps --scale-nodes team sizes
// (default 8,64,256 at Size::kTest, hotspot + jacobi) flat vs tree at
// fanout 8 (DESIGN.md §12), reporting master-inbound control messages per
// barrier and the flat/tree drop factor; every main leg also runs under
// --topology/--fanout (default flat) and reports its
// dsm.ctrl.master_{inbound,outbound} counters.
//
// --check-batching turns the acceptance properties into an exit code: for
// every workload, engine, and shard count, batching must never increase the
// total message count and must leave the workload checksum unchanged; shard
// counts must agree on checksums with each other and across engines;
// sharding must not increase master-inbound owner lookups (CI smoke); no
// static leg may emit a placement segment; adaptive placement must never
// raise the message count on the steady-state (non-shifting) workloads;
// on the shifting-hotspot workload the home engine's adaptive leg must
// reduce consistency traffic (messages or bytes) below the static one;
// every attributed leg's time buckets must conserve its runtime exactly;
// tracing must be free — the untraced and traced reruns must match the
// release leg's virtual time, messages, bytes, and checksum; and the
// scaling sweep's tree legs must match the flat checksums and barrier
// counts, strictly cut master inbound/barrier at >= 64 nodes, and cut it
// >= 10x at 256 nodes.
#include <chrono>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dsm/msg.hpp"

namespace {

struct ModeResult {
  bool ok = false;
  std::string error;
  double wall_seconds = 0.0;  // host time spent simulating this leg
  anow::harness::RunResult run;
  std::int64_t segments = 0;
  std::int64_t consistency_bytes = 0;
  std::int64_t lookups_master = 0;
  std::int64_t lookups_shard = 0;
  std::int64_t placement_segments = 0;
  std::int64_t home_moves = 0;
  std::int64_t shard_moves = 0;
};

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t comma = list.find(',', pos);
    out.push_back(
        list.substr(pos, comma == std::string::npos ? comma : comma - pos));
    pos = comma == std::string::npos ? comma : comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace anow;
  util::Options opts(argc, argv);
  // --topology/--fanout: control plane of the main ablation legs (DESIGN.md
  // §12); the scaling sweep below runs flat vs tree explicitly regardless.
  // --race-check: run every main leg under the LRC race detector (DESIGN.md
  // §13).  Any reported race fails the leg; the dedicated race_check rerun
  // below certifies DRF-ness regardless.
  dsm::Knobs knobs;
  dsm::apply_knob_options(opts, knobs, {"topology", "fanout", "race-check"});
  opts.allow_only({"size", "full", "nodes", "apps", "dir-shards",
                   "check-batching", "trace", "scale-nodes"});
  const apps::Size size = bench::size_from_options(opts);
  const int nodes = static_cast<int>(opts.get_int("nodes", 8));
  const bool check_batching = opts.get_bool("check-batching", false);
  const std::string trace_path =
      opts.get_string("trace", "BENCH_trace.json");
  // --scale-nodes: team sizes for the control-plane scaling sweep (flat vs
  // tree at fanout 8, Size::kTest, hotspot + jacobi).  "none" skips it.
  const std::vector<int> scale_nodes =
      opts.get_string("scale-nodes", "") == "none"
          ? std::vector<int>{}
          : opts.get_int_list("scale-nodes", {8, 64, 256}, 1);

  std::vector<std::string> apps = bench::table1_apps();
  apps.push_back("hotspot");  // the shifting-dominant-writer placement leg
  if (opts.has("apps")) {
    // Comma-separated subset, e.g. --apps jacobi,gauss (CI smoke runs one).
    apps = split_list(opts.get_string("apps", ""));
  }
  // Directory shard sweep; the 1 leg is the unsharded baseline.
  const std::vector<int> shard_counts =
      opts.get_int_list("dir-shards", {1, 4}, 1);

  bench::print_header(
      "Protocol comparison — engine × dir-shards × piggyback × placement",
      std::string("Problem size preset: ") + apps::size_name(size) + ", " +
          std::to_string(nodes) +
          " nodes.  Fill = segments per envelope; saved = messages below "
          "the piggyback-off baseline of the same engine and shard count; "
          "MasterLkp = owner-lookup segments (page requests + directory "
          "rounds) inbound at the master.  The adaptive rows rerun the "
          "release mode with --placement adaptive (home migration + shard "
          "rebalancing, DESIGN.md §9).");

  const dsm::EngineKind engines[] = {dsm::EngineKind::kLrc,
                                     dsm::EngineKind::kHomeLrc};
  const dsm::PiggybackMode modes[] = {dsm::PiggybackMode::kOff,
                                      dsm::PiggybackMode::kRelease,
                                      dsm::PiggybackMode::kAggressive};

  util::Table t({"App (size)", "Engine", "Shards", "Piggyback", "Time(s)",
                 "Messages", "Saved", "Fill", "MB", "MasterLkp", "ShardLkp",
                 "Consistency KB"});

  util::JsonWriter json;
  json.begin_object();
  json.field("bench", "protocols");
  json.field("schema_version", 8);
  json.field("size", apps::size_name(size));
  json.field("nodes", nodes);
  json.field("topology", dsm::topology_kind_name(knobs.topology));
  json.field("fanout", knobs.fanout);
  json.begin_object("workloads");

  bool ok = true;
  // Violations = acceptance properties broken; crashed legs = runs that
  // died mid-simulation.  Both land in the JSON `summary`, and crashed
  // legs force a non-zero exit even without --check-batching (a perf
  // trajectory with silently missing legs is worse than a red bench).
  std::int64_t violations = 0;
  std::int64_t crashed_legs = 0;
  auto fail = [&ok, &violations](const std::string& what) {
    std::cerr << "FAIL: " << what << "\n";
    ok = false;
    ++violations;
  };

  for (const auto& app : apps) {
    t.separator();
    json.begin_object(app);
    // checksum of the first successful leg; every other leg must agree
    // (engines, modes, and shard counts all compute the same answer).
    double app_checksum = 0.0;
    bool have_checksum = false;
    // jacobi acceptance: master-inbound lookups at shard count 1 vs max
    // (per engine, release mode).
    for (const dsm::EngineKind engine : engines) {
      json.begin_object(dsm::engine_kind_name(engine));
      // Release-mode results per shard count: the smallest count is the
      // lookup baseline, the largest the most-sharded layout (the sweep
      // order on the command line does not matter).
      std::vector<std::pair<int, ModeResult>> release_by_shards;
      for (const int shards : shard_counts) {
        json.begin_object("shards" + std::to_string(shards));
        ModeResult base;  // the kOff run of this (engine, shards)
        ModeResult release;
        // One leg = one run; `leg_name` keys the JSON object ("off",
        // "release", "aggressive" for the static piggyback sweep,
        // "adaptive" for the placement rerun of release mode).
        auto run_leg = [&](const char* leg_name, dsm::PiggybackMode mode,
                           dsm::PlacementMode placement,
                           bool attribution = true,
                           const std::string& trace_file = std::string(),
                           dsm::RaceCheckMode race = dsm::RaceCheckMode::kOff) {
          harness::RunConfig cfg;
          cfg.app = app;
          cfg.size = size;
          cfg.nprocs = nodes;
          cfg.engine = engine;
          cfg.piggyback = mode;
          cfg.dir_shards = shards;
          cfg.placement = placement;
          cfg.topology = knobs.topology;
          cfg.fanout = knobs.fanout;
          cfg.adaptive = false;
          // Explicit per-leg tracing config (never the ambient ANOW_TRACE:
          // the untraced leg must really be untraced).
          cfg.time_attribution = attribution;
          cfg.trace_file = trace_file;
          cfg.race_check = race;
          ModeResult r;
          const auto wall0 = std::chrono::steady_clock::now();
          try {
            r.run = harness::run_workload(cfg);
            r.ok = true;
          } catch (const std::exception& e) {
            r.error = e.what();
          }
          r.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - wall0)
                               .count();
          const std::string leg = app + "/" +
                                  dsm::engine_kind_name(engine) + "/shards" +
                                  std::to_string(shards) + "/" + leg_name;
          json.begin_object(leg_name);
          if (!r.ok) {
            // The leg crashed mid-run: record it and keep sweeping, so
            // BENCH_protocols.json still carries every healthy leg.
            json.field("failed", true);
            json.field("error", r.error);
            json.end_object();
            fail(leg + " crashed: " + r.error);
            ++crashed_legs;
            auto& row = t.row();
            row.add(app).add(dsm::engine_kind_name(engine)).add(shards);
            row.add(leg_name).add("FAILED");
            return r;
          }
          r.segments = r.run.stats.counter("dsm.segments");
          r.consistency_bytes =
              r.run.stats.counter("dsm.consistency_traffic_bytes");
          r.lookups_master =
              r.run.stats.counter("dsm.owner_lookups.master_inbound");
          r.lookups_shard =
              r.run.stats.counter("dsm.owner_lookups.shard_inbound");
          r.placement_segments =
              r.run.stats.counter("dsm.seg.home_move.msgs") +
              r.run.stats.counter("dsm.seg.shard_move.msgs");
          r.home_moves = r.run.stats.counter("dsm.placement.home_moves");
          r.shard_moves = r.run.stats.counter("dsm.placement.shard_moves");

          const std::int64_t saved =
              base.ok ? base.run.messages - r.run.messages : 0;
          const double fill =
              r.run.messages > 0 ? static_cast<double>(r.segments) /
                                       static_cast<double>(r.run.messages)
                                 : 0.0;
          auto& row = t.row();
          row.add(r.run.app + " (" + r.run.size_desc + ")");
          row.add(dsm::engine_kind_name(engine));
          row.add(shards);
          row.add(leg_name);
          row.add(r.run.seconds, 2);
          row.add(r.run.messages);
          row.add(saved);
          row.add(fill, 3);
          row.add(util::format_mb(r.run.bytes));
          row.add(r.lookups_master);
          row.add(r.lookups_shard);
          row.add(static_cast<double>(r.consistency_bytes) / 1024.0, 1);

          json.field("seconds", r.run.seconds);
          json.field("wall_seconds", r.wall_seconds);
          json.field("messages", r.run.messages);
          json.field("segments", r.segments);
          json.field("fill", fill);
          json.field("bytes", r.run.bytes);
          json.field("consistency_traffic_bytes", r.consistency_bytes);
          json.field("owner_lookups_master_inbound", r.lookups_master);
          json.field("owner_lookups_shard_inbound", r.lookups_shard);
          json.field("page_fetches", r.run.page_fetches);
          json.field("diff_fetches", r.run.diff_fetches);
          json.field("home_flushes",
                     r.run.stats.counter("dsm.home_flushes"));
          json.field("home_flushes_piggybacked",
                     r.run.stats.counter("dsm.home_flushes_piggybacked"));
          json.field("gc_runs", r.run.stats.counter("dsm.gc_runs"));
          json.field("ctrl_master_inbound",
                     r.run.stats.counter("dsm.ctrl.master_inbound"));
          json.field("ctrl_master_outbound",
                     r.run.stats.counter("dsm.ctrl.master_outbound"));
          json.field("dir_delta_rounds",
                     r.run.stats.counter("dsm.dir.delta_rounds"));
          json.field("placement_home_moves", r.home_moves);
          json.field("placement_shard_moves", r.shard_moves);
          json.field("checksum", r.run.checksum);
          if (r.run.trace.has_value()) {
            const obs::Report& rep = *r.run.trace;
            if (!rep.conserved()) {
              fail(leg + ": time-attribution buckets do not sum to the "
                         "runtime (conservation invariant)");
            }
            json.begin_object("time_breakdown");
            json.field("total_s", sim::to_seconds(rep.total_runtime()));
            for (int b = 0; b < obs::kNumBuckets; ++b) {
              json.field(obs::bucket_name(static_cast<obs::Bucket>(b)),
                         sim::to_seconds(
                             rep.total_bucket(static_cast<obs::Bucket>(b))));
            }
            json.end_object();
            // Per-barrier-epoch timeline, capped so huge runs stay readable.
            constexpr std::size_t kMaxEpochs = 32;
            json.field("epochs_total",
                       static_cast<std::int64_t>(rep.epochs.size()));
            json.begin_array("epochs");
            for (std::size_t i = 0;
                 i < rep.epochs.size() && i < kMaxEpochs; ++i) {
              const obs::EpochRecord& e = rep.epochs[i];
              json.begin_object();
              json.field("epoch", e.epoch);
              json.field("release_s", sim::to_seconds(e.release_ts));
              json.field("msgs", e.msgs);
              json.field("bytes", e.bytes);
              json.field("home_moves", e.home_moves);
              json.field("shard_moves", e.shard_moves);
              json.begin_array("stalls");
              for (const auto& [proc, stall] : e.stalls) {
                json.begin_object();
                json.field("proc", proc);
                json.field("stall_s", sim::to_seconds(stall));
                json.end_object();
              }
              json.end_array();
              json.end_object();
            }
            json.end_array();
          }
          json.begin_object("segment_msgs");
          for (int k = 0; k < dsm::kNumSegmentKinds; ++k) {
            const char* name =
                dsm::segment_kind_name(static_cast<dsm::SegmentKind>(k));
            const std::int64_t msgs =
                r.run.stats.counter(std::string("dsm.seg.") + name + ".msgs");
            if (msgs != 0) json.field(name, msgs);
          }
          json.end_object();
          json.end_object();

          if (!have_checksum) {
            app_checksum = r.run.checksum;
            have_checksum = true;
          } else if (r.run.checksum != app_checksum) {
            fail(leg + " checksum " + std::to_string(r.run.checksum) +
                 " != " + std::to_string(app_checksum) +
                 " of the first leg (engines, modes, shard counts, and "
                 "placement must agree)");
          }
          if (placement == dsm::PlacementMode::kStatic &&
              r.placement_segments != 0) {
            fail(leg + " emitted " + std::to_string(r.placement_segments) +
                 " placement segments with --placement static");
          }
          // The Table 1 workloads are DRF: any race report on a
          // detector-enabled leg is a red result (DESIGN.md §13).
          if (race != dsm::RaceCheckMode::kOff) {
            const std::int64_t races =
                r.run.stats.counter("obs.race.reports");
            if (races != 0) {
              fail(leg + " reported " + std::to_string(races) +
                   " data race(s) on a DRF workload (--race-check " +
                   dsm::race_check_mode_name(race) + ")");
            }
          }
          return r;
        };
        for (const dsm::PiggybackMode mode : modes) {
          ModeResult r = run_leg(dsm::piggyback_mode_name(mode), mode,
                                 dsm::PlacementMode::kStatic,
                                 /*attribution=*/true, std::string(),
                                 knobs.race_check);
          if (!r.ok) continue;
          if (mode == dsm::PiggybackMode::kOff) base = r;
          if (mode == dsm::PiggybackMode::kRelease) release = r;
          if (mode != dsm::PiggybackMode::kOff && base.ok &&
              r.run.messages > base.run.messages) {
            fail(app + "/" + std::string(dsm::engine_kind_name(engine)) +
                 "/shards" + std::to_string(shards) + "/" +
                 dsm::piggyback_mode_name(mode) + " sent " +
                 std::to_string(r.run.messages) + " messages vs " +
                 std::to_string(base.run.messages) + " with piggyback off");
          }
        }
        // The adaptive placement leg reruns release mode with the policy
        // live (DESIGN.md §9).
        const ModeResult adaptive =
            run_leg("adaptive", dsm::PiggybackMode::kRelease,
                    dsm::PlacementMode::kAdaptive,
                    /*attribution=*/true, std::string(), knobs.race_check);
        if (adaptive.ok && release.ok) {
          const std::string leg =
              app + "/" + dsm::engine_kind_name(engine) + "/shards" +
              std::to_string(shards) + "/adaptive";
          if (app == "hotspot") {
            // The shifting-hotspot acceptance property: the home engine
            // must convert its placement moves into a consistency-traffic
            // win (messages or bytes) over the static layout.
            if (engine == dsm::EngineKind::kHomeLrc &&
                !(adaptive.run.messages < release.run.messages ||
                  adaptive.consistency_bytes < release.consistency_bytes)) {
              fail(leg + " did not reduce consistency traffic: " +
                   std::to_string(adaptive.run.messages) + " msgs / " +
                   std::to_string(adaptive.consistency_bytes) +
                   " consistency bytes vs static " +
                   std::to_string(release.run.messages) + " / " +
                   std::to_string(release.consistency_bytes));
            }
          } else if (adaptive.run.messages > release.run.messages) {
            // Steady-state workloads: adaptive placement must never raise
            // the message count (the policy should decide nothing).
            fail(leg + " raised the steady-state message count: " +
                 std::to_string(adaptive.run.messages) + " vs " +
                 std::to_string(release.run.messages) + " static");
          }
        }
        // The batched-vs-unbatched headline delta (release over off).
        if (base.ok && release.ok) {
          json.begin_object("batching_delta");
          json.field("messages_off", base.run.messages);
          json.field("messages_release", release.run.messages);
          json.field("messages_saved",
                     base.run.messages - release.run.messages);
          json.field("saved_pct",
                     base.run.messages > 0
                         ? 100.0 *
                               static_cast<double>(base.run.messages -
                                                   release.run.messages) /
                               static_cast<double>(base.run.messages)
                         : 0.0);
          json.end_object();
        }
        // Tracing-freeness acceptance (DESIGN.md §11), at the first shard
        // count only: rerun release mode once with no recorder at all and
        // once fully traced (event rings + Chrome JSON export).  Both must
        // be event-for-event identical to the attributed release leg, and
        // the wall-clock delta is the recorder's host-side overhead.
        if (shards == shard_counts.front()) {
          const std::string leg = app + "/" +
                                  dsm::engine_kind_name(engine) + "/shards" +
                                  std::to_string(shards);
          const ModeResult untraced =
              run_leg("untraced", dsm::PiggybackMode::kRelease,
                      dsm::PlacementMode::kStatic, /*attribution=*/false);
          const ModeResult traced =
              run_leg("traced", dsm::PiggybackMode::kRelease,
                      dsm::PlacementMode::kStatic, /*attribution=*/true,
                      trace_path);
          if (untraced.ok) {
            for (const auto& [name, value] : untraced.run.stats.counters) {
              if (name.rfind("obs.", 0) == 0 && value != 0) {
                fail(leg + "/untraced emitted nonzero " + name +
                     " — an untraced run must carry no obs.* stats");
              }
            }
            for (const auto& [name, value] : untraced.run.stats.accums) {
              if (name.rfind("obs.", 0) == 0 && value != 0.0) {
                fail(leg + "/untraced emitted nonzero accum " + name +
                     " — an untraced run must carry no obs.* stats");
              }
            }
          }
          auto identical = [&](const ModeResult& r, const char* which) {
            if (!r.ok || !release.ok) return;
            if (r.run.seconds != release.run.seconds ||
                r.run.messages != release.run.messages ||
                r.run.bytes != release.run.bytes ||
                r.run.checksum != release.run.checksum) {
              fail(leg + "/" + which +
                   " diverged from the release leg (time/messages/bytes/"
                   "checksum) — tracing must not perturb the run");
            }
          };
          identical(untraced, "untraced");
          identical(traced, "traced");
          if (untraced.ok && traced.ok && untraced.wall_seconds > 0.0) {
            json.begin_object("trace_check");
            json.field("untraced_wall_seconds", untraced.wall_seconds);
            json.field("traced_wall_seconds", traced.wall_seconds);
            json.field(
                "trace_overhead_pct",
                100.0 * (traced.wall_seconds - untraced.wall_seconds) /
                    untraced.wall_seconds);
            json.field("trace_file", trace_path);
            json.end_object();
          }
          // Race-detector freeness + DRF certification (DESIGN.md §13):
          // rerun release mode under --race-check word.  The detector is a
          // pure observer, so the run must be byte-identical to the
          // release leg, and the workloads are DRF, so run_leg's race gate
          // above must see zero reports.  The wall-clock delta against the
          // untraced rerun is the detector's host-side overhead.
          const ModeResult racecheck =
              run_leg("racecheck", dsm::PiggybackMode::kRelease,
                      dsm::PlacementMode::kStatic, /*attribution=*/false,
                      std::string(), dsm::RaceCheckMode::kWord);
          identical(racecheck, "racecheck");
          if (racecheck.ok && untraced.ok && untraced.wall_seconds > 0.0) {
            json.begin_object("race_check");
            json.field("granularity", "word");
            json.field("reports",
                       racecheck.run.stats.counter("obs.race.reports"));
            json.field("segments",
                       racecheck.run.stats.counter("obs.race.segments"));
            json.field("checks",
                       racecheck.run.stats.counter("obs.race.checks"));
            json.field(
                "race_overhead_pct",
                100.0 * (racecheck.wall_seconds - untraced.wall_seconds) /
                    untraced.wall_seconds);
            json.end_object();
          }
        }
        json.end_object();
        if (release.ok) release_by_shards.emplace_back(shards, release);
      }
      // Sharding the directory must shed master-inbound owner-lookup load
      // (it may not grow it) whenever more than one shard count ran.
      const std::pair<int, ModeResult>* lo = nullptr;
      const std::pair<int, ModeResult>* hi = nullptr;
      for (const auto& entry : release_by_shards) {
        if (lo == nullptr || entry.first < lo->first) lo = &entry;
        if (hi == nullptr || entry.first > hi->first) hi = &entry;
      }
      if (lo != nullptr && hi != nullptr && lo->first < hi->first &&
          hi->second.lookups_master > lo->second.lookups_master) {
        fail(app + "/" + std::string(dsm::engine_kind_name(engine)) +
             ": master-inbound owner lookups rose from " +
             std::to_string(lo->second.lookups_master) + " (shards=" +
             std::to_string(lo->first) + ") to " +
             std::to_string(hi->second.lookups_master) + " (shards=" +
             std::to_string(hi->first) + ")");
      }
      json.end_object();
    }
    json.end_object();
  }
  json.end_object();
  t.print(std::cout);

  // -------------------------------------------------------------------
  // Control-plane scaling sweep (DESIGN.md §12): flat vs tree (fanout 8)
  // at growing team sizes, Size::kTest so the 256-node legs stay cheap.
  // The headline metric is master-inbound control messages per barrier:
  // O(N) flat, O(K) through the combining tree.
  // -------------------------------------------------------------------
  if (!scale_nodes.empty()) {
    constexpr int kScaleFanout = 8;
    const std::vector<std::string> scale_apps = {"hotspot", "jacobi"};

    bench::print_header(
        "Control-plane scaling — flat vs tree (fanout " +
            std::to_string(kScaleFanout) + ")",
        "Size preset: test.  In/barrier = master-inbound control messages "
        "per barrier; the combining/multicast tree (DESIGN.md §12) must "
        "hold it near the fanout while flat grows with the team.");

    util::Table st({"App", "Nodes", "Topology", "Time(s)", "Barriers",
                    "MasterIn", "MasterOut", "In/barrier"});

    struct ScaleLeg {
      bool ok = false;
      double seconds = 0.0;
      double checksum = 0.0;
      std::int64_t barriers = 0;
      std::int64_t master_in = 0;
      std::int64_t master_out = 0;
      double in_per_barrier = 0.0;
    };
    auto run_scale_leg = [&](const std::string& app, int n,
                             dsm::TopologyKind topo) {
      harness::RunConfig cfg;
      cfg.app = app;
      cfg.size = apps::Size::kTest;
      cfg.nprocs = n;
      cfg.engine = dsm::EngineKind::kHomeLrc;
      cfg.piggyback = dsm::PiggybackMode::kRelease;
      cfg.topology = topo;
      cfg.fanout = kScaleFanout;
      cfg.adaptive = false;
      ScaleLeg leg;
      try {
        const harness::RunResult run = harness::run_workload(cfg);
        leg.ok = true;
        leg.seconds = run.seconds;
        leg.checksum = run.checksum;
        leg.barriers = run.stats.counter("dsm.barriers");
        leg.master_in = run.stats.counter("dsm.ctrl.master_inbound");
        leg.master_out = run.stats.counter("dsm.ctrl.master_outbound");
        leg.in_per_barrier =
            static_cast<double>(leg.master_in) /
            static_cast<double>(leg.barriers > 0 ? leg.barriers : 1);
      } catch (const std::exception& e) {
        fail("scaling " + app + "/n" + std::to_string(n) + "/" +
             dsm::topology_kind_name(topo) + " crashed: " + e.what());
        ++crashed_legs;
      }
      const char* tname = dsm::topology_kind_name(topo);
      json.begin_object(tname);
      if (leg.ok) {
        json.field("seconds", leg.seconds);
        json.field("barriers", leg.barriers);
        json.field("ctrl_master_inbound", leg.master_in);
        json.field("ctrl_master_outbound", leg.master_out);
        json.field("inbound_per_barrier", leg.in_per_barrier);
        json.field("checksum", leg.checksum);
        auto& row = st.row();
        row.add(app).add(n).add(tname);
        row.add(leg.seconds, 2);
        row.add(leg.barriers);
        row.add(leg.master_in);
        row.add(leg.master_out);
        row.add(leg.in_per_barrier, 1);
      } else {
        json.field("failed", true);
      }
      json.end_object();
      return leg;
    };

    json.begin_object("scaling");
    json.field("fanout", kScaleFanout);
    for (const auto& app : scale_apps) {
      st.separator();
      json.begin_object(app);
      for (const int n : scale_nodes) {
        json.begin_object("n" + std::to_string(n));
        const ScaleLeg flat =
            run_scale_leg(app, n, dsm::TopologyKind::kFlat);
        const ScaleLeg tree =
            run_scale_leg(app, n, dsm::TopologyKind::kTree);
        const std::string leg = "scaling " + app + "/n" + std::to_string(n);
        if (flat.ok && tree.ok) {
          const double drop =
              tree.in_per_barrier > 0.0
                  ? flat.in_per_barrier / tree.in_per_barrier
                  : 0.0;
          json.field("inbound_drop_factor", drop);
          // Acceptance: same answer through the tree, and once the tree
          // has interior nodes (n - 1 > fanout) the master's inbound load
          // per barrier strictly drops; at 256 nodes the O(N) -> O(K)
          // relief must be at least 10x.
          if (tree.checksum != flat.checksum) {
            fail(leg + ": tree checksum " + std::to_string(tree.checksum) +
                 " != flat " + std::to_string(flat.checksum));
          }
          if (tree.barriers != flat.barriers) {
            fail(leg + ": tree ran " + std::to_string(tree.barriers) +
                 " barriers vs flat " + std::to_string(flat.barriers));
          }
          if (n >= 64 && tree.in_per_barrier >= flat.in_per_barrier) {
            fail(leg + ": master inbound/barrier did not drop: tree " +
                 std::to_string(tree.in_per_barrier) + " vs flat " +
                 std::to_string(flat.in_per_barrier));
          }
          if (n >= 256 && drop < 10.0) {
            fail(leg + ": inbound/barrier drop factor " +
                 std::to_string(drop) + " < 10x at " + std::to_string(n) +
                 " nodes, fanout " + std::to_string(kScaleFanout));
          }
        }
        json.end_object();
      }
      json.end_object();
    }
    json.end_object();
    st.print(std::cout);
  }

  // Machine-readable health of the sweep itself: CI and the perf
  // trajectory tooling read this instead of scraping stderr.
  json.begin_object("summary");
  json.field("ok", ok);
  json.field("violations", violations);
  json.field("crashed_legs", crashed_legs);
  json.end_object();
  json.end_object();
  json.write_file("BENCH_protocols.json");
  std::cout << "\nWrote BENCH_protocols.json\n";
  if (check_batching) {
    std::cout << (ok ? "check-batching: OK — batching never increased the "
                       "message count, checksums agree across engines, "
                       "modes, shard counts, and placement, sharding shed "
                       "master-inbound lookups, static placement emitted "
                       "zero placement segments, adaptive placement never "
                       "raised steady-state message counts, time buckets "
                       "conserve runtime on every leg, tracing left "
                       "every run untouched, and the combining tree cut "
                       "master inbound/barrier at scale with matching "
                       "checksums\n"
                     : "check-batching: FAILED\n");
    return ok ? 0 : 1;
  }
  // Crashed legs are missing data, not a soft warning: without a non-zero
  // exit the perf trajectory silently thins out leg by leg.
  if (crashed_legs > 0) {
    std::cerr << "ERROR: " << crashed_legs
              << " leg(s) crashed mid-run (see above)\n";
    return 1;
  }
  if (!ok) std::cerr << "WARNING: acceptance property violated (see above)\n";
  return 0;
}
