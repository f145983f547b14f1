// DSM system configuration.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "dsm/types.hpp"

namespace anow::util {
class Options;
}

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

const char* engine_kind_name(EngineKind kind);

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

/// The run-time knobs (DESIGN.md §15): the configuration a user can set
/// from the command line or the environment without touching the program.
/// DsmConfig and harness::RunConfig both inherit them, so the harness hands
/// a run's knobs to the DSM in one assignment.  Each field's flag, env var,
/// choices, default and backend limits live in one row of knob_table(); a
/// default-constructed Knobs holds the env defaults.
struct Knobs {
  /// The env defaults: env_knobs().
  Knobs();
  /// The table's defaults, ignoring the environment.
  static Knobs builtin();

  /// Execution backend (DESIGN.md §14): the simulator or real pthreads +
  /// mprotect'd heaps.  Under kReal the simulator-only values of the other
  /// knobs (tracing, time attribution, race checking, adaptive placement)
  /// are rejected by knob_error().
  BackendKind backend{};

  /// Consistency protocol variant.
  EngineKind engine{};

  /// Envelope coalescing policy.
  PiggybackMode piggyback{};

  /// Owner-directory shards (DESIGN.md §8): the page->owner map is split
  /// into this many contiguous page ranges, each held authoritatively by
  /// one of the first `dir_shards` processes (uid == shard index), which is
  /// also seeded with the initial valid copy of its range.  1 keeps the
  /// whole directory at the master — byte-identical to the unsharded
  /// protocol.  Clamped to nprocs at start().
  int dir_shards = 0;

  /// Adaptive placement (DESIGN.md §9): monitor traffic and migrate page
  /// homes / directory shards at GC rounds.  Static is byte-identical to
  /// the pre-placement protocol.
  PlacementMode placement{};

  /// Control-plane topology (DESIGN.md §12): flat master-centric fan-out
  /// (byte-identical to the pre-topology protocol) or a K-ary
  /// combining/multicast tree over the live team.
  TopologyKind topology{};

  /// Tree fanout K; ignored under kFlat.  The tree is recomputed on every
  /// join/leave and degenerates to flat routing whenever
  /// fanout >= team size - 1.
  int fanout = 0;

  /// LRC data-race detection (DESIGN.md §13): off (no detector
  /// constructed) or page/word-granularity happens-before checking.  Any
  /// setting is byte-identical on the wire; reports surface as obs.race.*
  /// stats and a "races" section of the trace JSON.
  RaceCheckMode race_check{};

  /// When non-empty, DsmSystem enables the cluster's TraceRecorder in full
  /// event-recording mode and writes a Chrome trace-event JSON file here
  /// after run() (DESIGN.md §11).
  std::string trace_file;

  /// Record the per-bucket virtual-time attribution report (span
  /// bookkeeping only, no event ring) even without a trace file.
  bool time_attribution = false;

  /// Not a table row: set by programs, never by users.
  PidStrategy pid_strategy = PidStrategy::kShift;

 private:
  struct Blank {};
  explicit Knobs(Blank /*unused*/) {}
};

/// One row of the knob table.
struct KnobSpec {
  using Field =
      std::variant<BackendKind Knobs::*, EngineKind Knobs::*,
                   PiggybackMode Knobs::*, PlacementMode Knobs::*,
                   TopologyKind Knobs::*, RaceCheckMode Knobs::*,
                   int Knobs::*, bool Knobs::*, std::string Knobs::*>;

  /// Command-line flag, without the leading "--".
  const char* flag;
  /// Environment variable, or nullptr for a command-line-only knob.
  const char* env;
  Field field;
  /// Enum and bool knobs: the names, in enumerator order.  Empty for
  /// integer and string knobs.
  std::vector<std::string> choices;
  /// Integer knobs: the smallest accepted value.
  int min;
  /// Value used when neither the flag nor the env var is given.
  const char* fallback;
  /// The only value the real backend accepts; nullptr when every value
  /// runs on both backends.
  const char* real_value;
  /// One-line description for --help.
  const char* help;
  /// Extra accepted spellings: {alias, canonical choice}.
  std::vector<std::pair<std::string, std::string>> aliases = {};
};

/// Every knob, one row each, in --help order.
const std::vector<KnobSpec>& knob_table();

/// Sets `spec`'s field from `text`.  Returns "" on success, else what the
/// knob expects ("expects one of {lrc,home}"), for the caller to prefix
/// with where the text came from.
std::string set_knob(Knobs& knobs, const KnobSpec& spec, std::string text);

/// The field's current value as text ("home", "4", "t.json").
std::string knob_value(const Knobs& knobs, const KnobSpec& spec);

/// Reads every row's env var now; a bad value is a usage error (exit 2).
Knobs read_env_knobs();
/// read_env_knobs(), read once per process and cached.
const Knobs& env_knobs();

/// "" when the knobs can run together, else one line naming the offending
/// knob(s): an integer below its minimum, or a simulator-only value under
/// the real backend.
std::string knob_error(const Knobs& knobs);

/// Sets `knobs` from the given flags on the command line, adds each flag's
/// --help line (choices, env var, default) to `opts`, and exits 2 with one
/// "error:" line on a bad value or a combination knob_error() rejects.
/// Call before opts.allow_only(), which then accepts these flags too.
void apply_knob_options(util::Options& opts, Knobs& knobs,
                        const std::vector<std::string>& flags);

struct DsmConfig : Knobs {
  /// Size of the global shared region; fixed for the lifetime of the system
  /// (TreadMarks pre-maps the shared heap).
  std::int64_t heap_bytes = 16ll << 20;

  /// Placement hysteresis: a page re-homes only after the same sole writer
  /// dominated it for this many consecutive monitoring windows (barrier
  /// epochs), with at least one write record per window.
  int placement_hysteresis = 2;
  /// A directory shard moves off its holder only when the holder's inbound
  /// owner-lookup load exceeded placement_overload_factor times the
  /// team-wide mean — and at least placement_min_lookups segments — for
  /// placement_hysteresis consecutive windows.
  double placement_overload_factor = 2.0;
  std::int64_t placement_min_lookups = 128;

  /// Protocol for pages not covered by a protocol_override.
  Protocol default_protocol = Protocol::kMultiWriter;

  /// Run a garbage collection at the next barrier once any process's
  /// consistency data (twins + diffs + notices) exceeds this.
  std::int64_t gc_threshold_bytes = 8ll << 20;

  /// Size of the non-shared part of a process image (code, private heap,
  /// stack); enters migration and checkpoint costs.
  std::int64_t private_image_bytes = 4ll << 20;
};

}  // namespace anow::dsm
