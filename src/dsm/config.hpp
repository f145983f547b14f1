// DSM system configuration.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsm/types.hpp"

namespace anow::dsm {

/// Which consistency engine runs the protocol (DESIGN.md §5/§6).
enum class EngineKind : std::uint8_t {
  /// TreadMarks-style lazy release consistency: writers archive diffs,
  /// faulting readers pull one diff per concurrent writer.
  kLrc,
  /// Home-based LRC: diffs are eagerly flushed to a per-page home at
  /// release points; writers keep no archives and faulting readers fetch
  /// one full page from the home.
  kHomeLrc,
};

/// Which execution backend drives the protocol (DESIGN.md §14).
enum class BackendKind : std::uint8_t {
  /// Discrete-event simulator: fibers, virtual time, modelled network.
  /// The default, byte-identical to the pre-seam code.
  kSim,
  /// Real hardware: one pthread per DSM process, mmap-privatized heaps
  /// under per-page protection, SPSC-ring transport, wall-clock time.  The
  /// consistency engines run unchanged; virtual cost modelling evaporates.
  kReal,
};

const char* backend_kind_name(BackendKind kind);
/// Parses "sim" / "real"; throws on anything else.
BackendKind parse_backend_kind(const std::string& name);
/// Default backend: ANOW_BACKEND environment variable ("sim" / "real"),
/// falling back to kSim.  Lets CI run the whole test suite on real threads
/// without touching every DsmConfig construction site.
BackendKind backend_from_env();

const char* engine_kind_name(EngineKind kind);
/// Parses "lrc" / "home" (also accepts "home_lrc"); throws on anything else.
EngineKind parse_engine_kind(const std::string& name);
/// Default engine: ANOW_ENGINE environment variable ("lrc" / "home"),
/// falling back to kLrc.  Lets CI run the whole test suite under either
/// engine without touching every DsmConfig construction site.
EngineKind engine_kind_from_env();

/// How aggressively the transport coalesces segments into shared envelopes
/// (DESIGN.md §7).  One mechanism — Channel staging — with three policies:
enum class PiggybackMode : std::uint8_t {
  /// Every segment travels as its own envelope; message counts and traffic
  /// bytes are identical to the pre-envelope flat send path.
  kOff,
  /// Coalesce at release points: home flushes bound for the master ride the
  /// release announcement (BarrierArrive / LockRelease) in one envelope,
  /// and join-barrier releases ride the master's next instruction fan-out
  /// (fork / GC prepare / terminate) instead of a separate broadcast.
  kRelease,
  /// kRelease plus fault-side batching: a multi-page read fault groups its
  /// full-page fetch requests per source into one envelope.
  kAggressive,
};

const char* piggyback_mode_name(PiggybackMode mode);
/// Parses "off" / "release" / "aggressive"; throws on anything else.
PiggybackMode parse_piggyback_mode(const std::string& name);
/// Default mode: ANOW_PIGGYBACK environment variable, falling back to
/// kRelease.  Lets CI run the whole test suite under any mode without
/// touching every DsmConfig construction site.
PiggybackMode piggyback_mode_from_env();

/// Default owner-directory shard count: ANOW_DIR_SHARDS environment
/// variable, falling back to 1 (the unsharded master-held directory, which
/// is byte-identical to the pre-sharding protocol).  Lets CI run the whole
/// suite with a sharded directory without touching every DsmConfig
/// construction site.  Values > nprocs are clamped at DsmSystem::start().
int dir_shards_from_env();

/// Adaptive placement (DESIGN.md §9): whether the runtime monitors access
/// traffic and migrates page homes / directory shards at GC rounds.
enum class PlacementMode : std::uint8_t {
  /// Homes and shard holders stay wherever first touch / the initial
  /// layout put them — byte-identical to the pre-placement protocol (no
  /// placement segment is ever sent, no monitoring work is done).
  kStatic,
  /// The AccessMonitor aggregates per-page/per-holder traffic each epoch;
  /// the PlacementPolicy re-homes pages to their dominant writer
  /// (home-based engine) and moves directory shards off overloaded or
  /// departing holders; the MigrationPlanner executes the moves by riding
  /// the existing atomic GC commit round.
  kAdaptive,
};

const char* placement_mode_name(PlacementMode mode);
/// Parses "static" / "adaptive"; throws on anything else.
PlacementMode parse_placement_mode(const std::string& name);
/// Default mode: ANOW_PLACEMENT environment variable, falling back to
/// static.  Lets CI run the whole test suite under adaptive placement
/// without touching every DsmConfig construction site.
PlacementMode placement_mode_from_env();

/// Hierarchical control plane (DESIGN.md §12): how collectives (barrier
/// arrive/release, fork, GC prepare/ack, owner-delta broadcast, terminate)
/// are routed between the master and the team.
enum class TopologyKind : std::uint8_t {
  /// Master-centric flat fan-in/fan-out — byte-identical to the
  /// pre-topology protocol (no tree segment is ever sent).
  kFlat,
  /// K-ary combining/multicast tree over the live team: inbound collective
  /// segments are merged at interior nodes on the way to the master,
  /// outbound fan-outs are forwarded down the tree.  Degenerates to flat
  /// routing when fanout >= team size - 1 (every slave is a root child).
  kTree,
};

const char* topology_kind_name(TopologyKind kind);
/// Parses "flat" / "tree"; throws on anything else.
TopologyKind parse_topology_kind(const std::string& name);
/// Default topology: ANOW_TOPOLOGY environment variable ("flat" / "tree"),
/// falling back to flat.  Lets CI run the whole test suite under the tree
/// control plane without touching every DsmConfig construction site.
TopologyKind topology_kind_from_env();

/// Default tree fanout K: ANOW_FANOUT environment variable, falling back
/// to 4.  Only meaningful under TopologyKind::kTree.
int fanout_from_env();

/// Default trace output path: the ANOW_TRACE environment variable, else ""
/// (tracing off).  Non-empty enables full event recording (DESIGN.md §11)
/// and a Chrome trace-event JSON dump at the end of the run.
std::string trace_file_from_env();

/// LRC data-race detection (DESIGN.md §13).  The detector is a pure
/// observer riding the interval/vector-timestamp machinery: it never sends
/// a message, charges virtual time, or touches page data, so any setting is
/// byte-identical to kOff on the wire — the modes only trade report
/// precision against host-side memory.
enum class RaceCheckMode : std::uint8_t {
  /// No detector is constructed; zero work on any path.
  kOff,
  /// Page-granularity access summaries: cheapest, but DRF programs whose
  /// processes share a boundary page report false positives by design.
  kPage,
  /// Word-granularity (8-byte) summaries: the certification mode — a DRF
  /// program with word-disjoint concurrent accesses reports nothing.
  kWord,
};

const char* race_check_mode_name(RaceCheckMode mode);
/// Parses "off" / "page" / "word"; throws on anything else.
RaceCheckMode parse_race_check_mode(const std::string& name);
/// Default mode: ANOW_RACE_CHECK environment variable, falling back to off.
/// Lets CI certify the whole test suite DRF without touching every
/// DsmConfig construction site.
RaceCheckMode race_check_from_env();

/// How pids are reassigned when processes leave (paper §5.4 lists "the
/// process id reassignment algorithm" among the cost factors; Figure 3 shows
/// why it matters).
enum class PidStrategy : std::uint8_t {
  /// Surviving processes keep their relative order; pids compact downwards.
  /// A middle leave therefore shifts every higher block by one slot
  /// (Figure 3(b): up to ~30% of the data space moves).
  kShift,
  /// The highest-pid process takes over the leaver's pid; all other pids are
  /// untouched.  A middle leave then moves only the leaver's block plus the
  /// relabelled last block.
  kSwapLast,
};

struct DsmConfig {
  /// Size of the global shared region; fixed for the lifetime of the system
  /// (TreadMarks pre-maps the shared heap).
  std::int64_t heap_bytes = 16ll << 20;

  /// Execution backend (DESIGN.md §14): the simulator (default) or real
  /// pthreads + mprotect'd heaps.  Defaults to ANOW_BACKEND, else
  /// sim.  Under kReal, tracing, race checking, adaptation events and
  /// adaptive placement are rejected at start (they ride simulator-only
  /// machinery).
  BackendKind backend = backend_from_env();

  /// Consistency protocol variant (defaults to ANOW_ENGINE, else LRC).
  EngineKind engine = engine_kind_from_env();

  /// Envelope coalescing policy (defaults to ANOW_PIGGYBACK, else release).
  PiggybackMode piggyback = piggyback_mode_from_env();

  /// Owner-directory shards (DESIGN.md §8): the page->owner map is split
  /// into this many contiguous page ranges, each held authoritatively by
  /// one of the first `dir_shards` processes (uid == shard index), which is
  /// also seeded with the initial valid copy of its range.  1 keeps the
  /// whole directory at the master — byte-identical to the unsharded
  /// protocol.  Clamped to nprocs at start().
  int dir_shards = dir_shards_from_env();

  /// Adaptive placement (DESIGN.md §9): monitor traffic and migrate page
  /// homes / directory shards at GC rounds.  Static (the default) is
  /// byte-identical to the pre-placement protocol.
  PlacementMode placement = placement_mode_from_env();

  /// Placement hysteresis: a page re-homes only after the same sole writer
  /// dominated it for this many consecutive monitoring windows (barrier
  /// epochs), with at least placement_min_writes write records per window.
  int placement_hysteresis = 2;
  int placement_min_writes = 1;
  /// A directory shard moves off its holder only when the holder's inbound
  /// owner-lookup load exceeded placement_overload_factor times the
  /// team-wide mean — and at least placement_min_lookups segments — for
  /// placement_hysteresis consecutive windows.
  double placement_overload_factor = 2.0;
  std::int64_t placement_min_lookups = 128;

  /// Control-plane topology (DESIGN.md §12): flat master-centric fan-out
  /// (the default, byte-identical to the pre-topology protocol) or a K-ary
  /// combining/multicast tree over the live team.
  TopologyKind topology = topology_kind_from_env();

  /// Tree fanout K (>= 1); ignored under kFlat.  The tree is recomputed on
  /// every join/leave and degenerates to flat routing whenever
  /// fanout >= team size - 1.
  int fanout = fanout_from_env();

  /// Protocol for pages not covered by a protocol_override.
  Protocol default_protocol = Protocol::kMultiWriter;

  /// Run a garbage collection at the next barrier once any process's
  /// consistency data (twins + diffs + notices) exceeds this.
  std::int64_t gc_threshold_bytes = 8ll << 20;
  bool auto_gc = true;

  /// Size of the non-shared part of a process image (code, private heap,
  /// stack); enters migration and checkpoint costs.
  std::int64_t private_image_bytes = 4ll << 20;

  PidStrategy pid_strategy = PidStrategy::kShift;

  /// When non-empty, DsmSystem enables the cluster's TraceRecorder in full
  /// event-recording mode and writes a Chrome trace-event JSON file here
  /// after run() (DESIGN.md §11).  Defaults to ANOW_TRACE, else off.
  std::string trace_file = trace_file_from_env();

  /// LRC data-race detection (DESIGN.md §13): off (the default, no detector
  /// constructed) or page/word-granularity happens-before checking.  Any
  /// setting is byte-identical on the wire; reports surface as obs.race.*
  /// stats and a "races" section of the trace JSON.  Defaults to
  /// ANOW_RACE_CHECK, else off.
  RaceCheckMode race_check = race_check_from_env();
};

}  // namespace anow::dsm
