// A DSM process: one simulated TreadMarks process running on some host.
//
// The process owns a full local copy of the shared region plus its
// consistency engine (dsm/protocol/), which holds all per-page protocol
// state.  What remains here is fiber plumbing — the reply rendezvous, the
// instruction queue, CPU-cost coalescing — and the range-touch fault
// front-end (read_range/write_range), which drives the same page-fault
// state machine mprotect would by calling into the engine: invalid -> fetch
// (full page or diffs) through validate_pages, first-write -> twin + dirty.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/protocol_checker.hpp"
#include "analysis/race_detector.hpp"
#include "dsm/channel.hpp"
#include "dsm/config.hpp"
#include "dsm/msg.hpp"
#include "dsm/protocol/engine.hpp"
#include "dsm/types.hpp"
#include "exec/heap.hpp"
#include "sim/cluster.hpp"
#include "sim/simulator.hpp"

namespace anow::dsm {

class DsmSystem;

/// Barrier id used for the implicit Tmk_join barrier at the end of a
/// parallel construct.
constexpr std::int32_t kJoinBarrierId = 0;

class DsmProcess {
 public:
  DsmProcess(DsmSystem& system, Uid uid, sim::HostId host);
  ~DsmProcess();

  DsmProcess(const DsmProcess&) = delete;
  DsmProcess& operator=(const DsmProcess&) = delete;

  // --- identity ------------------------------------------------------------
  Uid uid() const { return uid_; }
  Pid pid() const { return pid_; }
  int nprocs() const;
  bool is_master() const { return uid_ == kMasterUid; }
  bool alive() const { return alive_; }
  /// No tree-combining state in flight (DESIGN.md §12).  Collectives never
  /// span an adaptation point, so this holds between constructs by
  /// construction; expel() asserts it before the leaver departs.
  bool tree_combine_idle() const {
    return !tree_arrive_open_ && !tree_ack_open_ &&
           tree_flushes_pending_.empty();
  }
  sim::HostId host() const { return host_; }
  DsmSystem& system() { return system_; }
  protocol::ConsistencyEngine& engine() { return *engine_; }
  const protocol::ConsistencyEngine& engine() const { return *engine_; }

  // --- shared memory (fiber context) ----------------------------------------
  /// Ensures [addr, addr+len) is readable, faulting pages in as needed.
  void read_range(GAddr addr, std::size_t len);
  /// Ensures [addr, addr+len) is writable (read fault if needed, then twin
  /// and dirty marking per page).
  void write_range(GAddr addr, std::size_t len);

  /// Raw pointer into the local copy of the shared region.  Only valid for
  /// ranges previously touched via read_range/write_range in this interval.
  /// Under --backend real in the checking build this is the mprotect'd app
  /// view: a write to a page not declared by write_range, or any touch of
  /// an invalid page, dies on SIGSEGV.  Elsewhere it aliases region_data().
  template <typename T>
  T* ptr(GAddr addr) {
    return reinterpret_cast<T*>(heap_->app_base() + addr);
  }
  template <typename T>
  const T* cptr(GAddr addr) const {
    return reinterpret_cast<const T*>(heap_->app_base() + addr);
  }
  /// The protocol view (always readable/writable): checkpoint snapshots and
  /// region restores go through here, never through the protected app view.
  std::uint8_t* region_data() { return heap_->prot_base(); }

  // --- synchronization (fiber context) ---------------------------------------
  void barrier(std::int32_t barrier_id);
  void lock_acquire(std::int32_t lock_id);
  void lock_release(std::int32_t lock_id);

  /// Charges cpu_seconds of application compute on this process's host.
  /// Small charges (fault handling) are coalesced and flushed before the
  /// next blocking operation — exact, because nothing can observe this
  /// process between two of its own blocking points, and far cheaper than a
  /// fiber switch per 30 us trap.
  void compute(double cpu_seconds);
  void flush_cpu();

  sim::Time now() const;

  // --- adaptation support -----------------------------------------------------
  /// Bytes of the process image for migration/checkpoint purposes: the
  /// mapped shared region plus the private part (libckpt writes heap+stack).
  std::int64_t image_bytes() const;

  /// Number of pages this process currently has a (possibly stale) copy of.
  std::int64_t resident_pages() const { return engine_->resident_pages(); }

  /// Current consistency-metadata footprint (twins + own diff archive +
  /// pending notices) — drives the GC threshold.
  std::int64_t consistency_bytes() const {
    return engine_->consistency_bytes();
  }

 private:
  friend class DsmSystem;

  // --- message plumbing -------------------------------------------------------
  /// Delivers one envelope: its segments are dispatched strictly in order,
  /// which is what piggybacked segments rely on (a HomeFlush staged before
  /// a BarrierArrive is applied before the arrival is processed).  Page
  /// replies produced while the envelope is processed are batched per
  /// requester and depart as one envelope (reply-side coalescing, the
  /// mirror of the batched multi-page fetch request).
  void handle(Envelope env);
  void handle_segment(Segment seg, Uid src);
  void handle_page_request(const PageRequest& req, Uid src);
  void handle_diff_request(const DiffRequest& req, Uid src);
  void handle_home_flush(const HomeFlush& msg);
  // Sharded owner directory (DESIGN.md §8), holder side.
  void handle_owner_query(const OwnerQuery& query, Uid src);
  void handle_owner_update(const OwnerUpdate& msg);
  void handle_dir_delta_request(const DirDeltaRequest& req, Uid src);
  // Adaptive placement (DESIGN.md §9), node side.
  void handle_home_move(const HomeMove& msg);
  void handle_shard_move(ShardMove msg);

  // --- hierarchical control plane (DESIGN.md §12) ----------------------------
  /// Whether this process's collective announcements climb the tree: a
  /// non-root member of an active tree topology.  The master (root) keeps
  /// the flat self-send paths; flat topologies route nothing.
  bool tree_routes_collectives() const;
  /// Fiber side: contributes this process's own barrier arrival (plus the
  /// master-homed flushes flush_homes diverted) to the subtree combine and
  /// forwards the merged TreeArrive to the parent once every child subtree
  /// has reported.
  void tree_post_arrive(std::int32_t barrier_id, BarrierArrive arrival);
  /// Fiber side: contributes this process's own GcAck to the subtree's
  /// combined TreeAck.
  void tree_post_ack();
  /// Event side: a child subtree's combined arrival / ack landed here.
  void on_tree_arrive(TreeArrive msg);
  void on_child_tree_ack(const TreeAck& msg);
  /// Event side: a multicast from above.  Descendant routes are re-grouped
  /// by child and forwarded (after the constant interior combining charge)
  /// *before* the own route's segments are processed, so a terminate in the
  /// own route cannot strand the subtree.
  void handle_tree_multicast(TreeMulticast msg);
  /// Forwards the combined TreeArrive / TreeAck to the parent once complete
  /// (self contributed and every child subtree reported).  Leaves send
  /// immediately — their "combine" is just their own segment, exactly the
  /// flat send; interior nodes charge cost().tree_combine first.
  void maybe_forward_tree_arrive();
  void maybe_forward_tree_ack();
  void deliver_reply(std::uint64_t cookie, Segment seg);
  /// Schedules the current envelope's batched page replies: one envelope
  /// per requester after the summed per-page service time.
  void flush_reply_batches();
  /// Sends a request segment and parks until the matching reply (by
  /// cookie) arrives: send plus await_reply.
  Segment rpc(Uid dst, Segment seg, std::uint64_t cookie);
  std::uint64_t new_cookie() { return next_cookie_++; }

  /// Instruction-queue plumbing for the wait/barrier loops.
  void push_instruction(Segment seg);
  Segment next_instruction(const char* tag);

  // --- fault machinery ---------------------------------------------------------
  /// The one fault-service path: makes every page of `pages` valid.  Per
  /// page it charges one trap and bumps `faults` (if not null); then it
  /// fetches a full copy of each page that has none (requests grouped into
  /// one envelope per source, replies overlapped); then it refetches, one
  /// page at a time, the single-writer and home-engine pages whose pending
  /// notices the copy did not cover; last, it resolves the multi-writer
  /// pages' notices in one batched diff round per creator.  The callers
  /// choose only the grouping: a one-page call is the classic per-page
  /// fault.  `fault_span` = false skips the kFaultService span (GC
  /// validation's batched group, attributed to its GC prepare span).
  /// Returns the number of batched diff rounds.
  std::int64_t validate_pages(std::span<const PageId> pages,
                              util::StatsRegistry::Counter* faults,
                              bool fault_span = true);
  /// Read-faults the invalid pages of [first, last) as one validate_pages
  /// group (dsm.faults.read per page): the kAggressive grouping.
  void read_fault_range(PageId first, PageId last);
  /// Queues a full-page fetch of `page` for fetch_wanted_copies.
  void want_copy(PageId page);
  /// Sends every queued page fetch, one envelope per source, and installs
  /// the replies.
  void fetch_wanted_copies(bool must_cover_pending);
  /// Issues every fetch plan in parallel and collects the replies
  /// (TreadMarks overlaps these fetches).
  std::vector<DiffReply> fetch_diffs(
      const std::vector<protocol::DiffFetchPlan>& plans);
  /// Resolves the pending notices of multi-writer pages (all holding
  /// copies) with batched per-creator diff rounds: lazy twins captured
  /// first, one parallel fetch round, diffs applied in causal order.
  /// Returns the number of fetch rounds (one batched request per creator).
  std::int64_t resolve_multi_writer_pending(const std::vector<PageId>& pages);
  /// Home-based engines: pushes the finished interval's diffs to their
  /// homes (one batched message per home, issued in parallel) and blocks on
  /// the acks.  Must run after finish_interval and before the interval is
  /// announced to the master.  No-op for archive-based engines.  With
  /// divert_master_to_tree (the barrier path of a tree-routing process),
  /// the master-homed piggybacked batch is held in tree_flushes_pending_
  /// instead of the master stage: the announcement it must precede is a
  /// TreeArrive to the parent, and the flush rides inside it (ordered
  /// before the arrivals, applied first at the master), so ack-before-
  /// announce survives routing through interior nodes.
  void flush_homes(bool divert_master_to_tree = false);
  /// Validates pages the engine requires (new homes), then applies the
  /// delta as owner hints.
  void apply_owner_hints(const OwnerDelta& delta);

  // --- GC ------------------------------------------------------------------------
  /// Validates pages this process will own after GC: multi-writer pages
  /// with a copy as one validate_pages group (one batched diff fetch per
  /// creator), the rest one page at a time.
  void gc_validate(const OwnerDelta& owners);

  // --- real-backend protection check (DESIGN.md §14) -------------------------
  /// Brings the app-view protection of every page whose engine state
  /// changed since the last sync in line with desired_access, one mprotect
  /// per run of adjacent pages with the same target.  No-op on a PlainHeap
  /// (the simulator, and the real backend outside the checking build).
  void heap_sync_all();
  exec::PageAccess desired_access(PageId page) const;

  // --- slave main loop --------------------------------------------------------------
  void slave_main();
  void run_task(const ForkMsg& fork);
  void apply_team(const std::vector<std::pair<Uid, Pid>>& team);

  DsmSystem& system_;
  Uid uid_;
  Pid pid_ = -1;
  int team_size_ = 1;
  sim::HostId host_;
  sim::Fiber* fiber_ = nullptr;
  bool alive_ = true;
  bool announce_join_ = false;  // joiner: run connection setup + JoinReady

  /// The cluster's TraceRecorder, cached at construction (null = off).
  obs::TraceRecorder* tracer_ = nullptr;
  /// Correctness-analysis observers, cached at construction exactly like
  /// the recorder (null = off; every hook is a pointer test, DESIGN.md
  /// §13).
  analysis::RaceDetector* race_ = nullptr;
  analysis::ProtocolChecker* checker_ = nullptr;
  /// Hot-path counters, interned once here: the fault/barrier/lock/flush
  /// paths bump these per event and must not pay a map lookup each time.
  util::StatsRegistry::Counter* ctr_faults_read_ = nullptr;
  util::StatsRegistry::Counter* ctr_faults_write_ = nullptr;
  util::StatsRegistry::Counter* ctr_page_fetches_ = nullptr;
  util::StatsRegistry::Counter* ctr_page_forwards_ = nullptr;
  util::StatsRegistry::Counter* ctr_barrier_waits_ = nullptr;
  util::StatsRegistry::Counter* ctr_lock_acquires_ = nullptr;
  util::StatsRegistry::Counter* ctr_home_flushes_ = nullptr;
  util::StatsRegistry::Counter* ctr_home_flushes_pb_ = nullptr;
  util::StatsRegistry::Counter* ctr_gc_validation_faults_ = nullptr;
  util::StatsRegistry::Counter* ctr_home_validation_faults_ = nullptr;
  /// RealHeap only (null on a PlainHeap): ranged mprotect calls made by
  /// heap_sync_all and the pages they covered.
  util::StatsRegistry::Counter* ctr_protect_calls_ = nullptr;
  util::StatsRegistry::Counter* ctr_protect_pages_ = nullptr;

  /// The shared-region storage behind the execution seam (DESIGN.md §14):
  /// PlainHeap (one anonymous mapping), or under --backend real in the
  /// checking build RealHeap (dual-mapped memfd pages whose app view is
  /// mprotect'd).
  std::unique_ptr<exec::ProcessHeap> heap_;
  /// True under --backend real: skips the virtual CPU cost model.
  bool real_ = false;
  /// True when heap_ is a RealHeap (exec::kCheckedRealHeap && real_):
  /// gates heap_sync_all and the delivery hook.
  bool protect_ = false;
  std::unique_ptr<protocol::ConsistencyEngine> engine_;
  /// Outbound transport: all sends depart through here (DESIGN.md §7).
  Channel channel_;

  /// heap_sync_all's scratch list of changed pages (kept for its capacity).
  std::vector<PageId> sync_pages_;
  /// Fault-path scratch, kept for capacity so a fault allocates nothing
  /// here: read_fault_range's page group, validate_pages' multi-writer pages,
  /// and the page fetches queued for fetch_wanted_copies.
  std::vector<PageId> fault_pages_;
  std::vector<PageId> fault_multi_writer_;
  struct CopyWant {
    Uid src;
    PageId page;
    std::uint64_t cookie;
    bool resolves;  // the fetch resolves pending notices
  };
  std::vector<CopyWant> copy_wants_;
  /// Coalesced small CPU charges awaiting flush_cpu().
  double deferred_cpu_ = 0.0;

  // Reply rendezvous: flat (the handful of outstanding RPCs of one fiber),
  // unique_ptr entries so WaitPoint addresses stay stable across growth.
  struct PendingReply {
    std::uint64_t cookie = 0;
    sim::WaitPoint wp;
    Segment seg;
    bool ready = false;
  };
  /// Registers a rendezvous; must precede the request's send.
  void register_reply(std::uint64_t cookie);
  /// Parks until the reply registered under `cookie` has arrived (`tag`
  /// names the wait), then takes it and drops the rendezvous.
  Segment await_reply(std::uint64_t cookie, const char* tag);
  PendingReply* find_reply(std::uint64_t cookie);
  std::vector<std::unique_ptr<PendingReply>> pending_replies_;
  std::uint64_t next_cookie_ = 1;

  /// Per-requester page replies accumulated while one inbound envelope is
  /// processed (reply-side coalescing); flushed at the end of handle().
  struct ReplyBatch {
    Uid requester = kNoUid;
    std::vector<Segment> replies;
  };
  std::vector<ReplyBatch> reply_batches_;

  // Instruction queue (fork / terminate / gc-prepare / barrier-release).
  std::deque<Segment> instr_q_;
  sim::WaitPoint instr_wp_;
  bool instr_waiting_ = false;

  // Lock grant rendezvous (one outstanding acquire per process).
  sim::WaitPoint lock_wp_;
  std::vector<Interval> lock_grant_intervals_;
  bool lock_granted_ = false;

  // Tree combining state (DESIGN.md §12): at most one barrier and one GC
  // round are in flight at a time, so one accumulator each suffices.  A
  // child subtree's contribution may land (event context) before the local
  // fiber reaches the collective, and vice versa — whichever contribution
  // completes the set triggers the upward forward.
  bool tree_arrive_open_ = false;
  std::int32_t tree_barrier_id_ = 0;
  bool tree_self_arrived_ = false;
  int tree_child_arrives_ = 0;  // child TreeArrive envelopes received
  std::vector<HomeFlush> tree_flushes_;
  std::vector<BarrierArrive> tree_arrivals_;
  bool tree_ack_open_ = false;
  bool tree_self_acked_ = false;
  int tree_child_acks_ = 0;  // child TreeAck envelopes received
  std::int32_t tree_ack_count_ = 0;
  /// Master-homed piggybacked flushes diverted by flush_homes on the
  /// barrier path; tree_post_arrive moves them into the combine.
  std::vector<HomeFlush> tree_flushes_pending_;
};

}  // namespace anow::dsm
