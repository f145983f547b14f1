// The pluggable consistency engine.
//
// Everything the lazy-release-consistency protocol knows — per-page state
// (validity, twins, pending write notices, applied intervals), the diff
// archive, interval construction/integration, and the master-side directory
// (interval log, delivery matrix, owner map, GC policy) — lives behind this
// interface.  DsmProcess keeps only fiber plumbing and the range-touch fault
// front-end; DsmSystem keeps team/heap/lock/barrier orchestration.  Protocol
// variants (eager invalidate, home-based) plug in as alternative engines
// without touching either.
//
// An engine instance plays one of two roles:
//   * node side   — one per DsmProcess (attach_node); drives the per-page
//     fault state machine.  All node-side calls are non-blocking: operations
//     that need remote data return a fetch *plan* and the process performs
//     the blocking RPCs, handing results back.
//   * master side — one owned by DsmSystem (attach_master); logs intervals,
//     tracks delivery, owns the authoritative page->owner map and the GC
//     policy.
//
// Hot-path page state is a flat vector of PageMeta owned by the base class
// (no per-access virtual dispatch, no node-based containers); virtuals cover
// only protocol *transitions*.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dsm/config.hpp"
#include "dsm/interval.hpp"
#include "dsm/msg.hpp"
#include "dsm/protocol/applied_map.hpp"
#include "dsm/protocol/dir_shards.hpp"
#include "dsm/types.hpp"
#include "util/stats.hpp"

namespace anow::analysis {
class ProtocolChecker;
}  // namespace anow::analysis

namespace anow::dsm::protocol {

/// Flat per-page protocol state (one entry per page of the shared region).
struct PageMeta {
  bool have_copy = false;  // local frame holds data (possibly stale)
  bool dirty = false;      // written in the current interval
  /// Sole-copy (copyset == self) optimization, as in TreadMarks: writes to
  /// an exclusive page need no twin and no write notice because nobody
  /// holds a copy to invalidate.  Granted to owned pages at GC commit
  /// (which drops every non-owner copy, making exclusivity provable) and
  /// revoked the moment the page is served to another process.
  bool exclusive = false;
  /// The page is already write-enabled under exclusivity (the single trap
  /// was charged).
  bool exclusive_rw = false;
  Uid owner_hint = kMasterUid;
  /// dirty && twin: active twin of the current interval.
  /// !dirty && twin: *lazy* twin — the interval ended but the diff has not
  /// been materialized yet (TreadMarks creates diffs on demand; most are
  /// never requested).  twin_iseq names the interval it belongs to.
  std::int32_t twin_iseq = 0;
  /// Interval epoch of the last exclusive write declaration; a serve only
  /// needs the conservative twin when this equals the current epoch (the
  /// owner may still be writing through raw pointers).
  std::int64_t exclusive_epoch = -1;
  /// Engine serve_seq value when this page was last served to another
  /// process (soundness of exclusivity re-grants across a GC).
  std::uint64_t last_served = 0;
  std::unique_ptr<std::uint8_t[]> twin;
  AppliedMap applied;
  std::vector<PendingNotice> pending;

  bool is_valid() const { return have_copy && pending.empty(); }
};

/// One batched fetch the node should issue: every wanted diff of one
/// creator, possibly spanning several pages (one message round per creator).
struct DiffFetchPlan {
  Uid creator = kNoUid;
  std::vector<DiffPageRequest> pages;
};

/// One batched eager flush a home-based engine wants issued at a release
/// point: every diff of the finished interval whose pages share a home.
struct HomeFlushPlan {
  Uid home = kNoUid;
  std::vector<HomeFlushPage> pages;
};

/// Owner-map changes to broadcast with the next fork or barrier release.
struct PendingOwnerCommit {
  bool gc_commit = false;
  OwnerDelta delta;
};

class ConsistencyEngine {
 public:
  explicit ConsistencyEngine(const DsmConfig& config) : config_(&config) {}
  virtual ~ConsistencyEngine() = default;

  ConsistencyEngine(const ConsistencyEngine&) = delete;
  ConsistencyEngine& operator=(const ConsistencyEngine&) = delete;

  virtual const char* name() const = 0;

  /// Protocol-invariant sanitizer hook (DESIGN.md §13).  Engines that keep
  /// arena-backed diff views report each arena reset through the checker so
  /// the no-dangling-DiffView invariant is asserted where it can break.
  /// No-op by default; null checker detaches.
  virtual void set_checker(analysis::ProtocolChecker* checker) {
    (void)checker;
  }

  // ========================= node side ===================================
  /// Binds this engine to one process.  `region` is the process's local copy
  /// of the shared heap (stable for the engine's lifetime).  `dir` seeds the
  /// node's directory role: the [seed_first, seed_end) range it starts with
  /// a valid+exclusive copy of (the master's whole heap when unsharded, a
  /// holder's own range when sharded), the initial owner hints, and the
  /// authoritative DirSlice if this node holds one (DESIGN.md §8).
  void attach_node(Uid self, std::uint8_t* region, PageId num_pages,
                   const std::vector<Protocol>& protocol,
                   util::StatsRegistry& stats, const NodeDirInit& dir);

  /// The authoritative owner slice of `shard`, if this node holds it
  /// (null otherwise; the master's slices live in the master-side
  /// directory).  A node starts with at most its own default shard but can
  /// adopt more through placement ShardMoves (DESIGN.md §9).
  DirSlice* dir_slice(int shard);
  const DirSlice* dir_slice(int shard) const;
  bool holds_slices() const { return !dir_slices_.empty(); }

  /// Applies a GC/commit delta to every slice this node holds (each slice
  /// filters to its own range; idempotent).
  void apply_delta_to_slices(const OwnerDelta& delta);
  /// Placement ShardMove, new-holder side: installs the authoritative
  /// contents of a shard moved to this node.
  void adopt_dir_slice(int shard, const ShardMap& map,
                       std::vector<Uid> owners);
  /// Placement ShardMove, old-holder side: drops the moved-away slice.
  void drop_dir_slice(int shard);

  /// Checkpoint-restore collapse of a sharded directory (pre-fork only):
  /// drops this node's slice and seeded copies and points every hint back
  /// at the master, which re-seeds the whole restored region.
  void reset_directory_node_state();

  PageMeta& page(PageId p) { return pages_[static_cast<std::size_t>(p)]; }
  const PageMeta& page(PageId p) const {
    return pages_[static_cast<std::size_t>(p)];
  }
  PageId num_pages() const { return static_cast<PageId>(pages_.size()); }
  Protocol protocol_of(PageId p) const {
    return (*protocol_)[static_cast<std::size_t>(p)];
  }
  std::int64_t epoch() const { return epoch_; }

  /// A new parallel construct begins: past exclusive write declarations are
  /// settled.
  void begin_construct() { ++epoch_; }

  // --- write fault path --------------------------------------------------
  /// Re-checks exclusivity after the (possibly parked) write trap: if the
  /// page is still exclusive, write-enables it under the current epoch and
  /// returns true.  Returns false when a concurrent serve revoked it.
  bool note_exclusive_write(PageId p);
  /// Converts a lazy twin (finished interval whose diff was never made)
  /// into an archived diff.  Returns true when a diff was materialized, so
  /// the caller can charge the creation cost.  Home-based engines have no
  /// lazy twins (diffs are flushed at release) and always return false.
  virtual bool flush_lazy_twin(PageId p) = 0;
  /// Declares a write in the current interval: twin (multi-writer) + dirty.
  virtual void declare_write(PageId p) = 0;

  // --- read fault path ---------------------------------------------------
  /// Where to fetch a full copy of the page from.
  virtual Uid pick_page_source(PageId p) const = 0;
  /// Installs a fetched full-page copy: writes the kPageSize payload into
  /// the region (merging local uncommitted writes where the engine keeps
  /// them), records the applied map, and prunes pending notices the copy
  /// covers.  With `must_cover_pending`, every pending notice must be
  /// covered (single-writer fetch from the last writer / home fetch).
  virtual void install_copy(PageId p, const std::uint8_t* data,
                            const AppliedMap& applied,
                            bool must_cover_pending) = 0;
  /// True when any full-page fetch from pick_page_source covers every
  /// pending notice (home-based: the home is always complete), so the
  /// fault path re-fetches the page instead of fetching diffs.
  virtual bool full_copy_covers_pending() const { return false; }
  /// Groups the pending notices of `pages` into one fetch plan per creator.
  virtual std::vector<DiffFetchPlan> plan_diff_fetches(const PageId* pages,
                                                       std::size_t count) = 0;
  /// Applies the fetched diffs of one page in causal order and clears its
  /// pending list.  Returns encoded bytes applied (for cost accounting).
  virtual std::int64_t apply_fetched_diffs(
      PageId p, const std::vector<DiffReply>& replies) = 0;

  // --- release flush (home-based engines) --------------------------------
  /// Diffs of the just-finished interval to push eagerly, one plan per
  /// home.  The process sends them and blocks on the acks *before*
  /// announcing the interval, so no write notice can exist before its data
  /// is at the home.  Archive-based engines flush nothing.
  virtual std::vector<HomeFlushPlan> plan_home_flush() { return {}; }
  /// Home side of the flush (event context): applies the diffs to the
  /// local copy, bumps the applied map, prunes covered pending notices.
  /// Returns encoded bytes applied (for cost accounting).
  virtual std::int64_t apply_home_flush(
      Uid writer, const std::vector<HomeFlushPage>& pages);
  /// Batch form for a combined tree arrival (DESIGN.md §12): the subtree's
  /// piggybacked flushes, applied in envelope order before any of the
  /// arrivals they rode with are processed.  Returns total encoded bytes
  /// applied.
  std::int64_t apply_home_flushes(const std::vector<HomeFlush>& flushes);

  // --- serve side (event context, never blocks) --------------------------
  /// Prepares serving a full-page copy: ends exclusivity (conservative twin
  /// if the owner may be mid-write).  Returns false when this node cannot
  /// serve (no copy, or a stale copy a home-based reader must not see) and
  /// the request must be forwarded.
  virtual bool prepare_serve(PageId p) = 0;
  /// Marks the page served (exclusivity re-grant bookkeeping).
  void record_serve(PageId p) { page(p).last_served = ++serve_seq_; }
  /// Collects archived diffs for a batched request, materializing lazy
  /// twins on demand.  Returns the number of diffs materialized (the caller
  /// charges creation cost per materialization).
  virtual int collect_diffs(const std::vector<DiffPageRequest>& pages,
                            std::vector<DiffPageReply>& out) = 0;

  // --- interval lifecycle ------------------------------------------------
  /// Ends the current interval: write notices for dirty pages, lazy twins
  /// kept for on-demand diffing.  iseq == 0 means empty (not logged).
  virtual Interval finish_interval() = 0;
  /// Integrates received write notices (invalidations) into page state.
  virtual void integrate(const std::vector<Interval>& intervals) = 0;

  // --- GC, node side -----------------------------------------------------
  /// Snapshot the serve sequence at GC prepare (exclusivity soundness).
  void note_gc_prepare() { gc_prepare_serve_seq_ = serve_seq_; }
  /// Pages this node will own after the delta and must make fully valid.
  virtual std::vector<PageId> gc_pages_to_validate(
      const OwnerDelta& owners) = 0;
  /// Drops consistency metadata and stale copies; applies the owner delta
  /// and re-grants exclusivity where provably sound.
  virtual void gc_commit_node(const OwnerDelta& delta) = 0;

  /// Pages the process must make fully valid (fiber context, blocking
  /// fetches allowed) *before* `delta` may be applied as owner hints.
  /// Home-based engines return newly-assigned homes whose copy is still
  /// missing a concurrent writer's words; others return nothing.
  virtual std::vector<PageId> pages_to_validate_before_delta(
      const OwnerDelta& delta) {
    (void)delta;
    return {};
  }

  // --- accounting --------------------------------------------------------
  /// Twins + own diff archive + pending notices (drives the GC threshold).
  std::int64_t consistency_bytes() const {
    return archive_bytes_ + twin_bytes_ +
           pending_count_ * static_cast<std::int64_t>(sizeof(PendingNotice));
  }
  /// Bytes held in this node's diff archive (home-based engines keep none).
  std::int64_t archived_diff_bytes() const { return archive_bytes_; }
  std::int64_t resident_pages() const;

  // ========================= master side =================================
  /// Binds this engine as the master-side consistency manager.
  void attach_master(PageId num_pages, util::StatsRegistry& stats);

  /// Makes `uid` addressable in the delivery matrix / interval log.
  virtual void note_uid(Uid uid) = 0;
  /// Drops delivery state for a departed process (uids are never reused).
  virtual void forget_uid(Uid uid) = 0;

  /// Logs one barrier epoch: all intervals are concurrent and share a fresh
  /// lamport stamp.
  virtual void log_epoch(std::vector<Interval> intervals) = 0;
  /// Logs a lock-release interval under its own fresh lamport stamp.
  virtual void log_release(Interval interval) = 0;
  /// Intervals the target has not seen yet, in causal order; marks them
  /// delivered.
  virtual std::vector<Interval> collect_undelivered(Uid target) = 0;

  // --- owner directory (master side; DESIGN.md §8) ------------------------
  /// Repartitions the directory into the given shard layout.  Called once
  /// from DsmSystem::start() before any protocol traffic; a 1-shard map is
  /// the historical fully-master-held directory.
  void configure_directory(const ShardMap& map);
  DirectoryShards& dir() { return dir_; }
  const DirectoryShards& dir() const { return dir_; }

  /// The full owner map / owned-page scans.  Only valid while every shard
  /// is master-held (always true when dir_shards == 1); with remote shards
  /// DsmSystem assembles the global view via OwnerQuery instead.
  const std::vector<Uid>& owner_by_page() const {
    return dir_.full_owner_map();
  }
  Uid owner_of(PageId p) const { return dir_.local_owner_of(p); }
  void set_owner(PageId p, Uid owner);
  std::vector<PageId> pages_owned_by(Uid uid) const;
  /// Page lists of *all* uids in one scan of the owner map (index = uid;
  /// sized to the highest owner present).  Use this instead of repeated
  /// pages_owned_by calls when iterating several processes.
  std::vector<std::vector<PageId>> pages_owned_by_all() const;
  /// Records an ownership change to broadcast with the next fork.  For a
  /// remotely-held page DsmSystem also pushes an OwnerUpdate to the slice
  /// holder (the engine itself never sends).
  void queue_owner_update(PageId p, Uid owner);
  /// Checkpoint restore: every page returns to the master.  With remote
  /// shards the caller collapses the directory first.
  void reset_owners_to_master();

  /// Adaptive placement (DESIGN.md §9): stages policy-decided page
  /// re-homes so they ride the next GC round's atomic OwnerDelta commit —
  /// validated at the prepare phase exactly like first-touch assignments.
  /// Returns the subset actually staged (entries whose page already has a
  /// pending assignment this round, is still first-touch territory, or
  /// already lives at the target are skipped) — the planner sends the new
  /// homes their adoption notices from it.  Only the home-based engine
  /// owns page homes; the base implementation rejects non-empty lists.
  virtual OwnerDelta stage_owner_moves(const OwnerDelta& moves);

  // --- GC policy + pending commit ----------------------------------------
  void request_gc() { gc_requested_ = true; }
  /// Whether a GC should run at this barrier, given the largest
  /// consistency-metadata footprint any process reported.
  virtual bool gc_should_run(std::int64_t max_consistency_bytes) const {
    return gc_requested_ ||
           max_consistency_bytes > config_->gc_threshold_bytes;
  }
  /// One DirDeltaRequest per remote shard with write records since the last
  /// GC: DsmSystem sends them and hands the holders' partial deltas to
  /// gc_begin.  Empty when every shard is master-held or nothing was
  /// written (home-based engines never record, so always empty there).
  std::vector<std::pair<Uid, DirDeltaRequest>> plan_dir_delta_requests() {
    return dir_.plan_delta_requests();
  }
  /// Starts a GC: merges the owner delta (last writer wins) from the
  /// master-held shards and the remote holders' partial replies, in shard
  /// order, and clears the request flag.
  virtual OwnerDelta gc_begin(
      std::vector<std::pair<int, OwnerDelta>> remote_partials) = 0;
  /// Completes a GC at the master: applies the delta to the owner map,
  /// resets the interval log + delivery matrix, and arms the pending commit
  /// that rides on the next fork or barrier release.
  virtual void gc_finish(const OwnerDelta& delta) = 0;
  /// Consumes the pending commit (fork: queued ownership transfers from the
  /// leave protocol ride along; barrier release: GC delta only).
  PendingOwnerCommit take_pending_commit(bool include_queued_updates);

 protected:
  /// Role-specific sizing hooks, called at the end of attach_node /
  /// attach_master once the base state is in place.
  virtual void on_attach_node() {}
  virtual void on_attach_master() {}
  /// Master side: an owner entry changed outside a GC commit (set_owner,
  /// queue_owner_update, reset).  Home-based engines track first-touch
  /// assignability here.
  virtual void on_owner_changed(PageId p, Uid owner) {
    (void)p;
    (void)owner;
  }
  virtual void on_owners_reset() {}

  const DsmConfig* config_ = nullptr;
  util::StatsRegistry* stats_ = nullptr;

  // Node-side state.
  Uid self_ = kNoUid;
  std::uint8_t* region_ = nullptr;
  const std::vector<Protocol>* protocol_ = nullptr;
  std::vector<PageMeta> pages_;
  std::vector<PageId> dirty_pages_;
  std::int32_t next_iseq_ = 1;
  std::uint64_t serve_seq_ = 1;
  std::uint64_t gc_prepare_serve_seq_ = 0;
  /// Bumped at every release point and construct start.
  std::int64_t epoch_ = 0;
  std::int64_t archive_bytes_ = 0;
  std::int64_t twin_bytes_ = 0;
  std::int64_t pending_count_ = 0;
  /// Authoritative owner slices this node holds (its own default shard at
  /// start; placement ShardMoves adopt/drop more at GC rounds).
  std::vector<std::unique_ptr<DirSlice>> dir_slices_;

  // Master-side state.
  DirectoryShards dir_;
  OwnerDelta queued_owner_updates_;
  bool gc_requested_ = false;
  bool pending_commit_ = false;
  OwnerDelta pending_delta_;
};

/// Builds the engine selected by DsmConfig::engine (LRC or home-based LRC).
std::unique_ptr<ConsistencyEngine> make_engine(const DsmConfig& config);

}  // namespace anow::dsm::protocol
