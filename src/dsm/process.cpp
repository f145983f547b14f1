#include "dsm/process.hpp"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <optional>

#include "dsm/debug.hpp"
#include "dsm/system.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace anow::dsm {

namespace {

// Process-side tracer (ANOW_TRACE_PAGE): stamps virtual time.
#define ANOW_PTRACE(pg, what)                                             \
  do {                                                                    \
    if ((pg) == traced_page()) {                                          \
      std::cerr << "[ptrace t=" << sim::to_seconds(now()) << " uid" << uid_ \
                << "] " << what << "\n";                                  \
    }                                                                     \
  } while (0)

}  // namespace

DsmProcess::DsmProcess(DsmSystem& system, Uid uid, sim::HostId host)
    : system_(system),
      uid_(uid),
      host_(host),
      channel_(uid, system.config().piggyback,
               [this](Uid to, Envelope env) {
                 system_.send_envelope(to, std::move(env));
               }) {
  const auto& cfg = system_.config();
  real_ = cfg.backend == BackendKind::kReal;
  protect_ = exec::kCheckedRealHeap && real_;
  if (protect_) {
    heap_ = std::make_unique<exec::RealHeap>(
        static_cast<std::size_t>(cfg.heap_bytes));
    // Interned before the first heap_sync_all below; never on a plain
    // heap, so the simulator's counter set is unchanged.
    ctr_protect_calls_ = system_.stats().handle("exec.protect_calls");
    ctr_protect_pages_ = system_.stats().handle("exec.protect_pages");
  } else {
    heap_ = std::make_unique<exec::PlainHeap>(
        static_cast<std::size_t>(cfg.heap_bytes));
  }
  engine_ = protocol::make_engine(cfg);
  // The directory init seeds the initial data distribution: the master's
  // whole heap when unsharded, a shard holder's own range (plus its
  // authoritative owner slice) when sharded; everyone else faults pages in
  // on demand with hints at the pages' default holders (DESIGN.md §8).
  // The engine works on the protocol view: serve/install/diff-apply never
  // depend on the app view's protection.
  engine_->attach_node(uid_, heap_->prot_base(), system_.num_pages(),
                       system_.protocol_table(), system_.stats(),
                       system_.node_dir_init_for(uid_));
  if (protect_) {
    heap_sync_all();  // protections from the seeded engine state
    // Handlers (serve, flush-apply, exclusivity revocation) change page
    // state; resync protection after every inbound envelope (DESIGN.md
    // §14).
    system_.rt().set_delivery_hook(uid_, [this] { heap_sync_all(); });
  }
  // The recorder (if any) was enabled before this process was constructed
  // (DsmSystem's constructor runs first), so the cached pointer is stable
  // for the process's lifetime.
  tracer_ = system_.cluster().trace();
  if (tracer_ != nullptr) tracer_->attach_process(uid_);
  // Same lifecycle for the correctness-analysis observers (DESIGN.md §13):
  // both exist before any process when configured in, so the cached
  // pointers are stable and every hook below is a single pointer test.
  race_ = system_.race_detector();
  checker_ = system_.protocol_checker();
  engine_->set_checker(checker_);
  // Hot-path counters are interned once: the fault/sync/flush paths bump
  // them per event and must not pay a map lookup each time.
  auto& stats = system_.stats();
  ctr_faults_read_ = stats.handle("dsm.faults.read");
  ctr_faults_write_ = stats.handle("dsm.faults.write");
  ctr_page_fetches_ = stats.handle("dsm.page_fetches");
  ctr_page_forwards_ = stats.handle("dsm.page_forwards");
  ctr_barrier_waits_ = stats.handle("dsm.barrier_waits");
  ctr_lock_acquires_ = stats.handle("dsm.lock_acquires");
  ctr_home_flushes_ = stats.handle("dsm.home_flushes");
  ctr_home_flushes_pb_ = stats.handle("dsm.home_flushes_piggybacked");
  ctr_gc_validation_faults_ = stats.handle("dsm.gc_validation_faults");
  ctr_home_validation_faults_ = stats.handle("dsm.home_validation_faults");
}

DsmProcess::~DsmProcess() = default;

int DsmProcess::nprocs() const { return team_size_; }

sim::Time DsmProcess::now() const { return system_.rt().now(); }

std::int64_t DsmProcess::image_bytes() const {
  // libckpt writes the whole mapped heap (the shared region is pre-mapped)
  // plus the private part of the process (code, private heap, stack).
  return system_.config().heap_bytes + system_.config().private_image_bytes;
}

// ---------------------------------------------------------------------------
// Shared-memory access (the range-touch fault front-end)
// ---------------------------------------------------------------------------

void DsmProcess::read_range(GAddr addr, std::size_t len) {
  const PageId first = page_of(addr);
  const PageId last = page_end(addr, len);
  ANOW_CHECK_MSG(last <= system_.num_pages(),
                 "read_range beyond shared heap: addr=" << addr);
  // Access capture (DESIGN.md §13): the declared range is exactly what the
  // application promises to touch — the same contract the fault machinery
  // itself trusts — so it is the read set of the current segment.
  if (race_ != nullptr) race_->record_read(uid_, addr, len);
  if (channel_.mode() == PiggybackMode::kAggressive) {
    read_fault_range(first, last);
  } else {
    for (PageId p = first; p < last; ++p) {
      if (!engine_->page(p).is_valid()) {
        validate_pages({&p, 1}, ctr_faults_read_);
      }
    }
  }
  heap_sync_all();
}

void DsmProcess::write_range(GAddr addr, std::size_t len) {
  const PageId first = page_of(addr);
  const PageId last = page_end(addr, len);
  ANOW_CHECK_MSG(last <= system_.num_pages(),
                 "write_range beyond shared heap: addr=" << addr);
  // Declared write ranges, not diff bitmasks, feed the detector's write
  // sets: diffs are lazy (often never materialized — exclusive and
  // single-writer pages make none), while the declaration is always
  // present and is what the checksums already depend on being accurate.
  if (race_ != nullptr) race_->record_write(uid_, addr, len);
  if (channel_.mode() == PiggybackMode::kAggressive) {
    // The read side of a multi-page write fault batches exactly like
    // read_range.  The per-page loop below then only write-declares (a
    // page can still be invalidated by a notice arriving while a later
    // page's declaration parks the fiber, so the fault stays as a
    // fallback).
    read_fault_range(first, last);
  }
  for (PageId p = first; p < last; ++p) {
    if (!engine_->page(p).is_valid()) {
      validate_pages({&p, 1}, ctr_faults_read_);
    }
    if (engine_->page(p).dirty) continue;  // already writable this interval

    // Exclusive-mode shortcut: no other process holds a copy, so there is
    // nothing to invalidate — no twin, no write notice, and only one write
    // trap for as long as exclusivity lasts.
    bool trap_charged = false;
    if (engine_->page(p).exclusive) {
      ANOW_PTRACE(p, "exclusive write declare, val="
                         << *cptr<std::int64_t>(page_base(p)));
      if (!engine_->page(p).exclusive_rw) {
        (*ctr_faults_write_)++;
        // compute() parks the fiber; a page-request handler may revoke
        // exclusivity (and even dirty the page) while we sleep, so the
        // state must be re-checked afterwards.
        compute(sim::to_seconds(system_.cluster().cost().fault_fixed));
        trap_charged = true;
      }
      if (engine_->note_exclusive_write(p)) continue;
      // The revoking serve already twinned the page.
      if (engine_->page(p).dirty) continue;
      // Exclusivity revoked mid-trap: fall through to the normal path.
    }

    if (!trap_charged) {
      (*ctr_faults_write_)++;
      compute(sim::to_seconds(system_.cluster().cost().fault_fixed));
    }
    if (engine_->flush_lazy_twin(p)) {
      // Rewriting a page whose previous interval was never diffed: the old
      // diff was captured before new writes land.
      compute(sim::to_seconds(
          system_.cluster().cost().diff_create_time(kPageSize)));
    }
    engine_->declare_write(p);
    ANOW_PTRACE(p, "write declare (twin) val="
                       << *cptr<std::int64_t>(page_base(p)));
  }
  heap_sync_all();
}

// ---------------------------------------------------------------------------
// Fault machinery
// ---------------------------------------------------------------------------

void DsmProcess::read_fault_range(PageId first, PageId last) {
  fault_pages_.clear();
  for (PageId p = first; p < last; ++p) {
    if (!engine_->page(p).is_valid()) fault_pages_.push_back(p);
  }
  validate_pages(fault_pages_, ctr_faults_read_);
}

std::int64_t DsmProcess::validate_pages(std::span<const PageId> pages,
                                        util::StatsRegistry::Counter* faults,
                                        bool fault_span) {
  if (pages.empty()) return 0;
  obs::ScopedSpan span(fault_span ? tracer_ : nullptr, uid_,
                       obs::SpanKind::kFaultService);
  const auto& cost = system_.cluster().cost();
  // One trap per page: SIGSEGV dispatch + mprotect + bookkeeping on the
  // faulting node, charged page by page so the deferred CPU flushes at the
  // same points whatever the grouping.
  for (std::size_t i = 0; i < pages.size(); ++i) {
    if (faults != nullptr) (*faults)++;
    compute(sim::to_seconds(cost.fault_fixed));
  }
  // Pages with no copy at all: full-page fetches, one request envelope per
  // source.  A home fetch covers every pending notice by construction.
  for (PageId p : pages) {
    if (!engine_->page(p).have_copy) want_copy(p);
  }
  fetch_wanted_copies(engine_->full_copy_covers_pending());

  // Notices the copies did not cover.  Home-engine and single-writer pages
  // are refetched page by page: one full copy from the home (or the last
  // writer) replaces the local one and covers every earlier notice.
  // Multi-writer pages share batched diff rounds.
  fault_multi_writer_.clear();
  for (PageId p : pages) {
    if (engine_->page(p).pending.empty()) continue;
    if (!engine_->full_copy_covers_pending()) {
      if (engine_->protocol_of(p) == Protocol::kMultiWriter) {
        fault_multi_writer_.push_back(p);
        continue;
      }
      // Our own un-diffed interval must be captured before the copy is
      // replaced (it would otherwise be lost from our diff).
      if (engine_->flush_lazy_twin(p)) {
        obs::ScopedSpan make_span(tracer_, uid_, obs::SpanKind::kDiffMake);
        compute(sim::to_seconds(cost.diff_create_time(kPageSize)));
      }
    }
    want_copy(p);
    fetch_wanted_copies(/*must_cover_pending=*/true);
  }
  const std::int64_t rounds =
      resolve_multi_writer_pending(fault_multi_writer_);
  for (PageId p : pages) {
    ANOW_CHECK(engine_->page(p).is_valid());
  }
  return rounds;
}

void DsmProcess::want_copy(PageId page) {
  copy_wants_.push_back({engine_->pick_page_source(page), page, 0,
                         !engine_->page(page).pending.empty()});
}

void DsmProcess::fetch_wanted_copies(bool must_cover_pending) {
  if (copy_wants_.empty()) return;
  std::sort(copy_wants_.begin(), copy_wants_.end(),
            [](const CopyWant& a, const CopyWant& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.page < b.page;
            });
  flush_cpu();
  for (CopyWant& w : copy_wants_) {
    ANOW_CHECK_MSG(w.src != uid_, "page " << w.page
                                          << " owner hint points at self "
                                             "but no copy");
    w.cookie = new_cookie();
    register_reply(w.cookie);  // register before send
    channel_.stage(w.src, PageRequest{uid_, w.page, 0, w.cookie, w.resolves});
  }
  for (std::size_t i = 0; i < copy_wants_.size(); ++i) {
    if (i + 1 == copy_wants_.size() ||
        copy_wants_[i + 1].src != copy_wants_[i].src) {
      channel_.flush(copy_wants_[i].src);
    }
  }
  for (const CopyWant& w : copy_wants_) {
    Segment seg = await_reply(w.cookie, "page reply");
    auto& reply = std::get<PageReply>(seg);
    ANOW_CHECK(reply.page == w.page);
    ANOW_CHECK(reply.data.size() == kPageSize);
    engine_->install_copy(w.page, reply.data.data(), reply.applied,
                          must_cover_pending);
    system_.release_page_buffer(std::move(reply.data));
    // `src` is the first hop; a forwarded request is served elsewhere
    // (replies carry no sender, so the trace names the hop, not the server).
    ANOW_PTRACE(w.page, "fetched full copy via " << w.src << " val="
                            << *cptr<std::int64_t>(page_base(w.page)));
  }
  copy_wants_.clear();
}

std::int64_t DsmProcess::resolve_multi_writer_pending(
    const std::vector<PageId>& pages) {
  if (pages.empty()) return 0;
  // Our own un-diffed intervals must be captured before remote diffs are
  // merged (they would otherwise leak into our diffs).  The span opens at
  // the first page that has one, so a round without any opens none.
  {
    std::optional<obs::ScopedSpan> make_span;
    for (PageId p : pages) {
      if (engine_->flush_lazy_twin(p)) {
        if (!make_span) {
          make_span.emplace(tracer_, uid_, obs::SpanKind::kDiffMake);
        }
        compute(sim::to_seconds(
            system_.cluster().cost().diff_create_time(kPageSize)));
      }
    }
  }
  const auto plans = engine_->plan_diff_fetches(pages.data(), pages.size());
  const auto replies = fetch_diffs(plans);
  std::int64_t applied_bytes = 0;
  {
    obs::ScopedSpan span(tracer_, uid_, obs::SpanKind::kDiffApply);
    for (PageId p : pages) {
      applied_bytes += engine_->apply_fetched_diffs(p, replies);
    }
    compute(sim::to_seconds(
        system_.cluster().cost().diff_apply_time(applied_bytes)));
  }
  return static_cast<std::int64_t>(plans.size());
}

std::vector<DiffReply> DsmProcess::fetch_diffs(
    const std::vector<protocol::DiffFetchPlan>& plans) {
  flush_cpu();
  std::vector<std::uint64_t> cookies;
  cookies.reserve(plans.size());
  for (const auto& plan : plans) {
    const std::uint64_t cookie = new_cookie();
    register_reply(cookie);  // register before send
    channel_.send(plan.creator, DiffRequest{uid_, plan.pages, cookie});
    cookies.push_back(cookie);
  }
  // Collect replies (any arrival order; wait consumes ready flags).
  std::vector<DiffReply> replies;
  replies.reserve(cookies.size());
  for (const std::uint64_t cookie : cookies) {
    replies.push_back(
        std::move(std::get<DiffReply>(await_reply(cookie, "diff reply"))));
  }
  return replies;
}

void DsmProcess::apply_owner_hints(const OwnerDelta& delta) {
  // Home engine: a newly-assigned home missing a concurrent writer's words
  // re-validates from the old home *before* the hints flip (its own hint
  // still names the old home, which keeps a complete copy).
  for (PageId p : engine_->pages_to_validate_before_delta(delta)) {
    validate_pages({&p, 1}, ctr_home_validation_faults_);
  }
  for (const auto& [page, owner] : delta) {
    engine_->page(page).owner_hint = owner;
  }
}

// ---------------------------------------------------------------------------
// Synchronization
// ---------------------------------------------------------------------------

void DsmProcess::flush_homes(bool divert_master_to_tree) {
  auto plans = engine_->plan_home_flush();
  if (plans.empty()) return;
  // Diff creation (one page scan per flushed diff) happens on this node.
  std::int64_t pages = 0;
  for (const auto& plan : plans) {
    pages += static_cast<std::int64_t>(plan.pages.size());
  }
  {
    obs::ScopedSpan span(tracer_, uid_, obs::SpanKind::kDiffMake);
    compute(static_cast<double>(pages) *
            sim::to_seconds(system_.cluster().cost().diff_create_time(
                kPageSize)));
    flush_cpu();
  }
  *ctr_home_flushes_ += static_cast<std::int64_t>(plans.size());
  // Ack-before-announce bookkeeping (DESIGN.md §13): one planned batch per
  // home; each must be applied before this writer's interval is logged.
  if (checker_ != nullptr) {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      checker_->on_home_flush_planned(uid_);
    }
  }
  // One batched flush per home, issued in parallel; the acks gate the
  // release announcement (no write notice may precede its data's arrival
  // at the home).  The master-homed batch is the exception under a
  // buffered piggyback mode: staged here, it departs in the same envelope
  // as — ordered before — the BarrierArrive / LockRelease the caller sends
  // next, so the home applies the data before it can even see the
  // announcement.  The ack-before-announce invariant then holds by
  // envelope ordering, with no ack round (cookie 0 = no ack wanted).
  std::vector<std::uint64_t> cookies;
  cookies.reserve(plans.size());
  sim::Time staged_service = 0;
  for (auto& plan : plans) {
    HomeFlush flush;
    flush.writer = uid_;
    flush.pages = std::move(plan.pages);
    if (plan.home == kMasterUid && channel_.buffered()) {
      flush.cookie = 0;
      // The home's apply time does not vanish with the ack: the writer
      // pre-pays it as latency before the announcement departs (below),
      // which is where the unbuffered path's ack wait charged it.  Paying
      // on the writer side keeps receive processing immediate — deferring
      // at the home would let later envelopes from this sender overtake
      // the announcement and break the transport's ordering guarantee.
      std::int64_t flush_bytes = 0;
      for (const auto& fp : flush.pages) {
        flush_bytes += static_cast<std::int64_t>(fp.diff.size());
      }
      staged_service += system_.cluster().cost().diff_service_fixed +
                        system_.cluster().cost().diff_apply_time(flush_bytes);
      if (divert_master_to_tree) {
        // Tree barrier path: the announcement is a TreeArrive to the
        // parent, so the flush rides inside it (ordered before the
        // arrivals, applied first at the master) instead of the master
        // stage — same piggyback, different vehicle (DESIGN.md §12).
        tree_flushes_pending_.push_back(std::move(flush));
      } else {
        channel_.stage(kMasterUid, std::move(flush));
      }
      (*ctr_home_flushes_pb_)++;
      continue;
    }
    const std::uint64_t cookie = new_cookie();
    register_reply(cookie);  // register before send
    flush.cookie = cookie;
    channel_.send(plan.home, std::move(flush));
    cookies.push_back(cookie);
  }
  if (staged_service > 0) {
    system_.rt().sleep_for(staged_service);
  }
  for (const std::uint64_t cookie : cookies) {
    await_reply(cookie, "home flush ack");
  }
}

void DsmProcess::barrier(std::int32_t barrier_id) {
  obs::ScopedSpan span(tracer_, uid_, obs::SpanKind::kBarrierWait);
  flush_cpu();
  (*ctr_barrier_waits_)++;
  // The arrival is a release point: the detector closes this process's
  // access segment and accumulates its clock into the epoch (DESIGN.md
  // §13).
  if (race_ != nullptr) race_->on_barrier_arrive(uid_);
  Interval iv = engine_->finish_interval();
  const bool tree = tree_routes_collectives();
  flush_homes(/*divert_master_to_tree=*/tree);
  BarrierArrive arrive{uid_, barrier_id, std::move(iv), consistency_bytes()};
  if (tree) {
    // The arrival climbs the tree: merged with the children's at this node,
    // one combined envelope per subtree (DESIGN.md §12).
    tree_post_arrive(barrier_id, std::move(arrive));
  } else {
    // channel_.send drains the flush staged for the master (if any): the
    // arrival and its home data share one envelope, data first.
    channel_.send(kMasterUid, std::move(arrive));
  }

  while (true) {
    Segment m = next_instruction("barrier");
    if (auto* gp = std::get_if<GcPrepare>(&m)) {
      obs::ScopedSpan gc_span(tracer_, uid_, obs::SpanKind::kGcPrepare);
      // A shard holder's authoritative slices adopt the delta at the
      // prepare phase: by the time the master's gc_finish runs (all acks
      // in), every slice already answers queries with post-GC owners.
      engine_->apply_delta_to_slices(gp->owners);
      engine_->note_gc_prepare();
      engine_->integrate(gp->intervals);
      gc_validate(gp->owners);
      if (tree_routes_collectives()) {
        tree_post_ack();
      } else {
        channel_.send(kMasterUid, GcAck{uid_});
      }
      continue;
    }
    auto* rel = std::get_if<BarrierRelease>(&m);
    ANOW_CHECK_MSG(rel != nullptr, "unexpected instruction inside barrier");
    ANOW_CHECK(rel->barrier_id == barrier_id);
    // Idempotent after the prepare.
    engine_->apply_delta_to_slices(rel->owner_delta);
    engine_->integrate(rel->intervals);
    if (rel->gc_commit) {
      engine_->gc_commit_node(rel->owner_delta);
    } else {
      apply_owner_hints(rel->owner_delta);
    }
    // The release joins the epoch's sealed clock: everything any
    // participant did before arriving now happens-before this process.
    if (race_ != nullptr) race_->on_barrier_release(uid_);
    // Invalidation notices just integrated must revoke app-view access
    // before application code resumes.
    heap_sync_all();
    return;
  }
}

void DsmProcess::lock_acquire(std::int32_t lock_id) {
  obs::ScopedSpan span(tracer_, uid_, obs::SpanKind::kLockStall);
  flush_cpu();
  (*ctr_lock_acquires_)++;
  channel_.send(kMasterUid, LockAcquireReq{uid_, lock_id});
  system_.rt().wait(lock_wp_, "lock grant");
  ANOW_CHECK(lock_granted_);
  lock_granted_ = false;
  engine_->integrate(lock_grant_intervals_);
  lock_grant_intervals_.clear();
  // Grant received: accesses before the acquire keep their pre-join clock
  // (segment closed), then this process joins the release chain's clock.
  if (race_ != nullptr) race_->on_lock_acquire(uid_, lock_id);
  heap_sync_all();  // grant-borne invalidations
}

void DsmProcess::lock_release(std::int32_t lock_id) {
  obs::ScopedSpan span(tracer_, uid_, obs::SpanKind::kLockRelease);
  flush_cpu();
  // Release point: close the access segment and publish this clock into
  // the lock's chain before the next holder can join it.
  if (race_ != nullptr) race_->on_lock_release(uid_, lock_id);
  Interval iv = engine_->finish_interval();
  flush_homes();
  // As at the barrier, a master-homed flush staged by flush_homes rides in
  // front of the release notification in one envelope.
  channel_.send(kMasterUid, LockReleaseMsg{uid_, lock_id, std::move(iv)});
  // Releases are asynchronous in TreadMarks: no reply awaited.
  // finish_interval cleared the dirty set: the next write to each page must
  // be declared again.
  heap_sync_all();
}

void DsmProcess::compute(double cpu_seconds) {
  if (real_) return;  // real hardware pays its own CPU cost
  deferred_cpu_ += cpu_seconds;
  // Keep local drift bounded; large application charges flush immediately.
  if (deferred_cpu_ > 0.002) {
    flush_cpu();
  }
}

void DsmProcess::flush_cpu() {
  if (real_) {
    deferred_cpu_ = 0.0;
    return;
  }
  if (deferred_cpu_ <= 0.0) return;
  const double amount = deferred_cpu_;
  deferred_cpu_ = 0.0;
  // All application/protocol CPU burns inside this span; coalesced trap
  // charges ride it too (innermost-wins attribution, DESIGN.md §11).
  obs::ScopedSpan span(tracer_, uid_, obs::SpanKind::kCompute);
  system_.cluster().host(host_).cpu().consume(amount, this);
}

// ---------------------------------------------------------------------------
// Garbage collection (participant side)
// ---------------------------------------------------------------------------

void DsmProcess::gc_validate(const OwnerDelta& owners) {
  // Local page-table scan.
  compute(sim::to_seconds(system_.cluster().cost().gc_per_page) *
          static_cast<double>(system_.num_pages()));
  const std::vector<PageId> need = engine_->gc_pages_to_validate(owners);
  // Batchable: multi-writer pages with a copy, whose pending notices are
  // pure diff traffic — validated with one message round per creator
  // instead of one per page.  The rest (no copy yet, single-writer
  // full-copy fetches, or any page of a home-based engine, which has no
  // diffs to batch) go through the normal fault path.
  std::vector<PageId> batchable;
  std::vector<PageId> rest;
  for (PageId p : need) {
    const auto& pm = engine_->page(p);
    if (pm.have_copy && !engine_->full_copy_covers_pending() &&
        engine_->protocol_of(p) == Protocol::kMultiWriter) {
      batchable.push_back(p);
    } else {
      rest.push_back(p);
    }
  }
  if (!batchable.empty()) {
    // No fault span: the batched group's time stays in the GC prepare span.
    system_.stats().counter("dsm.gc_batched_fetch_rounds") +=
        validate_pages(batchable, ctr_gc_validation_faults_,
                       /*fault_span=*/false);
  }
  for (PageId p : rest) {
    validate_pages({&p, 1}, ctr_gc_validation_faults_);
  }
}

// ---------------------------------------------------------------------------
// Message handling (event context — never blocks)
// ---------------------------------------------------------------------------

void DsmProcess::handle(Envelope env) {
  // Segments are dispatched strictly in envelope order — a piggybacked
  // HomeFlush is applied before the BarrierArrive it rides with is
  // processed, which is what replaces its ack round (DESIGN.md §7).
  // Processing is never deferred mid-envelope: a receive-side delay would
  // let a later envelope from the same sender be handled first, and the
  // transport's ordering guarantee would silently break (the apply cost of
  // a piggybacked flush is charged on the writer side, in flush_homes).
  if (checker_ != nullptr) checker_->on_envelope_deliver(env.src, uid_, env);
  for (auto& seg : env.segments) {
    handle_segment(std::move(seg), env.src);
  }
  // Page replies produced for this envelope's requests depart together,
  // one envelope per requester (reply-side coalescing): a batched
  // multi-page fetch request gets a batched reply, so the batching delta
  // is symmetric in both directions.
  flush_reply_batches();
}

void DsmProcess::handle_segment(Segment seg, Uid src) {
  std::visit(
      [&](auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, PageRequest>) {
          handle_page_request(body, src);
        } else if constexpr (std::is_same_v<T, DiffRequest>) {
          handle_diff_request(body, src);
        } else if constexpr (std::is_same_v<T, HomeFlush>) {
          handle_home_flush(body);
        } else if constexpr (std::is_same_v<T, OwnerQuery>) {
          handle_owner_query(body, src);
        } else if constexpr (std::is_same_v<T, OwnerUpdate>) {
          handle_owner_update(body);
        } else if constexpr (std::is_same_v<T, DirDeltaRequest>) {
          handle_dir_delta_request(body, src);
        } else if constexpr (std::is_same_v<T, HomeMove>) {
          handle_home_move(body);
        } else if constexpr (std::is_same_v<T, ShardMove>) {
          handle_shard_move(std::move(body));
        } else if constexpr (std::is_same_v<T, PageReply>) {
          deliver_reply(body.cookie, std::move(seg));
        } else if constexpr (std::is_same_v<T, DiffReply>) {
          deliver_reply(body.cookie, std::move(seg));
        } else if constexpr (std::is_same_v<T, HomeFlushAck>) {
          deliver_reply(body.cookie, std::move(seg));
        } else if constexpr (std::is_same_v<T, OwnerSlice>) {
          deliver_reply(body.cookie, std::move(seg));
        } else if constexpr (std::is_same_v<T, DirDeltaReply>) {
          if (body.cookie != 0) {
            deliver_reply(body.cookie, std::move(seg));
          } else if (is_master()) {
            system_.on_dir_delta_reply(std::move(body));
          } else {
            // Tree barrier GC (DESIGN.md §12): a holder's cookie-0 partial
            // climbs toward the root through this node — re-staged on our
            // channel after the constant interior service charge.
            ANOW_CHECK(tree_routes_collectives());
            const Uid parent = system_.topology().parent_of(uid_);
            system_.rt().defer(
                system_.cluster().cost().tree_combine,
                [this, parent, reply = std::move(body)]() mutable {
                  channel_.send(parent, std::move(reply));
                });
          }
        } else if constexpr (std::is_same_v<T, TreeArrive>) {
          if (is_master()) {
            // Root: unpack the subtree.  Flushes first — they were kept
            // ordered ahead of the arrivals the whole way up, so the
            // ack-before-announce invariant holds exactly as it does for
            // a flat piggybacked envelope (DESIGN.md §7, §12).  They are
            // all cookie-0 (writer pre-paid the apply service), so no ack.
            engine_->apply_home_flushes(body.flushes);
            if (checker_ != nullptr) {
              for (const auto& flush : body.flushes) {
                checker_->on_home_flush_applied(flush.writer);
              }
            }
            for (const auto& arrive : body.arrivals) {
              system_.on_barrier_arrive(arrive);
            }
          } else {
            on_tree_arrive(std::move(body));
          }
        } else if constexpr (std::is_same_v<T, TreeAck>) {
          if (is_master()) {
            system_.on_tree_ack(body);
          } else {
            on_child_tree_ack(body);
          }
        } else if constexpr (std::is_same_v<T, TreeMulticast>) {
          handle_tree_multicast(std::move(body));
        } else if constexpr (std::is_same_v<T, BarrierArrive>) {
          ANOW_CHECK(is_master());
          system_.on_barrier_arrive(body);
        } else if constexpr (std::is_same_v<T, LockAcquireReq>) {
          ANOW_CHECK(is_master());
          system_.on_lock_acquire(body);
        } else if constexpr (std::is_same_v<T, LockReleaseMsg>) {
          ANOW_CHECK(is_master());
          system_.on_lock_release(body);
        } else if constexpr (std::is_same_v<T, GcAck>) {
          ANOW_CHECK(is_master());
          system_.on_gc_ack(body);
        } else if constexpr (std::is_same_v<T, JoinReady>) {
          ANOW_CHECK(is_master());
          system_.on_join_ready(body);
        } else if constexpr (std::is_same_v<T, LockGrant>) {
          lock_grant_intervals_ = body.intervals;
          lock_granted_ = true;
          system_.rt().signal(lock_wp_);
        } else if constexpr (std::is_same_v<T, PageMapMsg>) {
          ANOW_CHECK(static_cast<PageId>(body.owner_by_page.size()) ==
                     engine_->num_pages());
          for (PageId p = 0; p < engine_->num_pages(); ++p) {
            engine_->page(p).owner_hint = body.owner_by_page[p];
          }
        } else {
          // Fork / Terminate / BarrierRelease / GcPrepare: woken in the
          // fiber's instruction loop.
          push_instruction(std::move(seg));
        }
      },
      seg);
}

void DsmProcess::handle_page_request(const PageRequest& req, Uid /*src*/) {
  ANOW_CHECK_MSG(alive_, "page request reached terminated process "
                             << uid_ << " (stale owner hint for page "
                             << req.page << ")");
  if (!engine_->prepare_serve(req.page)) {
    // Stale hint: forward along our best knowledge (Li/Hudak-style chain).
    ANOW_CHECK_MSG(req.forward_hops < 16, "page request forwarding loop");
    const Uid next = engine_->pick_page_source(req.page);
    ANOW_CHECK(next != uid_);
    (*ctr_page_forwards_)++;
    PageRequest f = req;
    f.forward_hops++;
    channel_.send(next, f);
    return;
  }
  ANOW_PTRACE(req.page, "serving page to " << req.requester << " val="
                            << *cptr<std::int64_t>(page_base(req.page)));
  engine_->record_serve(req.page);
  (*ctr_page_fetches_)++;
  PageReply reply;
  reply.page = req.page;
  reply.cookie = req.cookie;
  reply.resolves = req.resolves;
  // Recycled buffer (DESIGN.md §10): the requester hands it back to the
  // pool after install_copy, so steady-state serving allocates nothing.
  reply.data = system_.acquire_page_buffer();
  std::memcpy(reply.data.data(), heap_->prot_base() + page_base(req.page),
              kPageSize);
  reply.applied = engine_->page(req.page).applied;
  // Queued per requester; flush_reply_batches schedules the departure
  // after the summed service cost once the whole inbound envelope is
  // processed.  A solo request therefore departs exactly as before — one
  // reply envelope after one page_service.
  for (auto& batch : reply_batches_) {
    if (batch.requester == req.requester) {
      batch.replies.push_back(std::move(reply));
      return;
    }
  }
  reply_batches_.push_back({req.requester, {}});
  reply_batches_.back().replies.push_back(std::move(reply));
}

void DsmProcess::flush_reply_batches() {
  for (auto& batch : reply_batches_) {
    // Serving n pages costs n service slots before the shared reply
    // envelope departs (the copies happen back to back on this host).
    const sim::Time service =
        system_.cluster().cost().page_service *
        static_cast<sim::Time>(batch.replies.size());
    system_.rt().defer(
        service, [this, requester = batch.requester,
                  replies = std::move(batch.replies)]() mutable {
          for (std::size_t i = 0; i + 1 < replies.size(); ++i) {
            channel_.stage(requester, std::move(replies[i]));
          }
          channel_.send(requester, std::move(replies.back()));
        });
  }
  reply_batches_.clear();
}

void DsmProcess::handle_home_flush(const HomeFlush& msg) {
  ANOW_CHECK_MSG(alive_, "home flush reached terminated process " << uid_);
  const std::int64_t applied = engine_->apply_home_flush(msg.writer,
                                                         msg.pages);
  if (checker_ != nullptr) checker_->on_home_flush_applied(msg.writer);
  // cookie 0: the flush rode the writer's release announcement in this
  // envelope; ordering already guarantees data-before-notice and the
  // writer pre-paid the apply service time (flush_homes), so no ack.
  if (msg.cookie == 0) return;
  // Diff application on the home before the ack leaves.
  const sim::Time service = system_.cluster().cost().diff_service_fixed +
                            system_.cluster().cost().diff_apply_time(applied);
  const Uid writer = msg.writer;
  system_.rt().defer(
      service, [this, writer, ack = HomeFlushAck{applied, msg.cookie}] {
        channel_.send(writer, ack);
      });
}

// ---------------------------------------------------------------------------
// Sharded owner directory, holder side (DESIGN.md §8; event context)
// ---------------------------------------------------------------------------

void DsmProcess::handle_owner_query(const OwnerQuery& query, Uid src) {
  const auto* slice = engine_->dir_slice(query.shard);
  ANOW_CHECK_MSG(slice != nullptr,
                 "owner query for shard " << query.shard
                                          << " reached non-holder " << uid_);
  OwnerSlice reply;
  reply.shard = query.shard;
  reply.owners = slice->owners();
  reply.cookie = query.cookie;
  system_.rt().defer(
      system_.cluster().cost().dir_service,
      [this, src, reply = std::move(reply)]() mutable {
        channel_.send(src, std::move(reply));
      });
}

void DsmProcess::handle_owner_update(const OwnerUpdate& msg) {
  ANOW_CHECK_MSG(engine_->holds_slices(),
                 "owner update reached non-holder " << uid_);
  engine_->apply_delta_to_slices(msg.entries);
}

void DsmProcess::handle_dir_delta_request(const DirDeltaRequest& req,
                                          Uid src) {
  const auto* slice = engine_->dir_slice(req.shard);
  ANOW_CHECK_MSG(slice != nullptr,
                 "dir delta request for shard "
                     << req.shard << " reached non-holder " << uid_);
  DirDeltaReply reply;
  reply.shard = req.shard;
  reply.delta = slice->partial_delta(req.records);
  // Placement slice fetch (DESIGN.md §9): the shard is moving this GC
  // round, so the master also needs the authoritative pre-GC contents.
  if (req.want_slice) reply.slice = slice->owners();
  reply.cookie = req.cookie;
  // A barrier-GC round's reply (cookie 0) climbs back through the holder's
  // parent under the tree topology — the request came down a multicast, and
  // the partial is relayed hop by hop to the master's GC state machine
  // (DESIGN.md §12).  Fiber rounds (nonzero cookie) stay direct to src.
  const Uid to = (req.cookie == 0 && tree_routes_collectives())
                     ? system_.topology().parent_of(uid_)
                     : src;
  // Record-vs-slice comparison on the holder before the reply leaves.
  const sim::Time service =
      system_.cluster().cost().dir_service +
      system_.cluster().cost().gc_per_page *
          static_cast<sim::Time>(req.records.size());
  system_.rt().defer(
      service, [this, to, reply = std::move(reply)]() mutable {
        channel_.send(to, std::move(reply));
      });
}

// ---------------------------------------------------------------------------
// Adaptive placement (DESIGN.md §9; event context).  Both segments ride the
// GcPrepare envelope (staged ahead of it on the master's channel), so they
// are applied before the prepare is processed — no ack round of their own.
// ---------------------------------------------------------------------------

void DsmProcess::handle_home_move(const HomeMove& msg) {
  // The adoption notice for pages the placement policy re-homes *to this
  // node* this GC round.  The moves themselves ride the commit's
  // OwnerDelta (validated at the prepare); this is bookkeeping plus the
  // adoption-side sanity check.
  for (const auto& [page, home] : msg.entries) {
    (void)page;
    ANOW_CHECK_MSG(home == uid_, "home move notice for page " << page
                                     << " -> " << home
                                     << " delivered to node " << uid_);
  }
  system_.stats().counter("dsm.placement.home_moves_adopted") +=
      static_cast<std::int64_t>(msg.entries.size());
}

void DsmProcess::handle_shard_move(ShardMove msg) {
  if (msg.new_holder == uid_) {
    // Adoption: the master shipped the authoritative (post-GC when riding
    // a prepare) contents; the GcPrepare behind this segment re-applies
    // its delta to the new slice, which is idempotent.
    engine_->adopt_dir_slice(msg.shard, system_.shard_map(),
                             std::move(msg.owners));
    system_.stats().counter("dsm.placement.shard_adoptions")++;
    return;
  }
  // Drop instruction for the old holder: authority moved to msg.new_holder.
  ANOW_CHECK_MSG(msg.owners.empty(),
                 "shard move with contents delivered to old holder " << uid_);
  engine_->drop_dir_slice(msg.shard);
}

void DsmProcess::handle_diff_request(const DiffRequest& req, Uid /*src*/) {
  DiffReply reply;
  reply.creator = uid_;
  reply.cookie = req.cookie;
  const int materialized = engine_->collect_diffs(req.pages, reply.pages);
  // Batched requests pay the fixed service cost once; lazy-twin diffs
  // materialized on demand (TreadMarks semantics) charge creation time.
  const sim::Time service =
      system_.cluster().cost().diff_service_fixed +
      materialized * system_.cluster().cost().diff_create_time(kPageSize);
  const Uid requester = req.requester;
  system_.rt().defer(
      service, [this, requester, reply = std::move(reply)]() mutable {
        channel_.send(requester, std::move(reply));
      });
}

// ---------------------------------------------------------------------------
// Hierarchical control plane (DESIGN.md §12).  Combining (TreeArrive /
// TreeAck) runs half in fiber context (the own contribution, posted from
// barrier()/slave_main) and half in event context (children's combined
// envelopes); whichever contribution completes the subtree triggers the
// upward forward.  Multicast splitting is pure event context.
// ---------------------------------------------------------------------------

bool DsmProcess::tree_routes_collectives() const {
  return system_.topology().active() && !is_master();
}

void DsmProcess::tree_post_arrive(std::int32_t barrier_id,
                                  BarrierArrive arrival) {
  if (!tree_arrive_open_) {
    tree_arrive_open_ = true;
    tree_barrier_id_ = barrier_id;
  } else {
    ANOW_CHECK_MSG(tree_barrier_id_ == barrier_id,
                   "combining barrier " << tree_barrier_id_
                                        << " but arrived at " << barrier_id);
  }
  ANOW_CHECK(!tree_self_arrived_);
  tree_self_arrived_ = true;
  for (auto& flush : tree_flushes_pending_) {
    tree_flushes_.push_back(std::move(flush));
  }
  tree_flushes_pending_.clear();
  tree_arrivals_.push_back(std::move(arrival));
  maybe_forward_tree_arrive();
}

void DsmProcess::on_tree_arrive(TreeArrive msg) {
  ANOW_CHECK_MSG(tree_routes_collectives(),
                 "combined arrival reached flat-routing node " << uid_);
  if (!tree_arrive_open_) {
    tree_arrive_open_ = true;
    tree_barrier_id_ = msg.barrier_id;
  } else {
    ANOW_CHECK_MSG(tree_barrier_id_ == msg.barrier_id,
                   "combining barrier " << tree_barrier_id_
                                        << " but child sent "
                                        << msg.barrier_id);
  }
  ++tree_child_arrives_;
  for (auto& flush : msg.flushes) tree_flushes_.push_back(std::move(flush));
  for (auto& arrive : msg.arrivals) {
    tree_arrivals_.push_back(std::move(arrive));
  }
  maybe_forward_tree_arrive();
}

void DsmProcess::maybe_forward_tree_arrive() {
  const auto& topo = system_.topology();
  const int children = static_cast<int>(topo.children_of(uid_).size());
  if (!tree_self_arrived_ || tree_child_arrives_ < children) return;
  ANOW_CHECK(tree_child_arrives_ == children);
  TreeArrive out;
  out.barrier_id = tree_barrier_id_;
  out.flushes = std::move(tree_flushes_);
  out.arrivals = std::move(tree_arrivals_);
  tree_arrive_open_ = false;
  tree_self_arrived_ = false;
  tree_child_arrives_ = 0;
  tree_flushes_.clear();
  tree_arrivals_.clear();
  const Uid parent = topo.parent_of(uid_);
  ANOW_CHECK(parent != kNoUid);
  if (children == 0) {
    // A leaf's "combine" is just its own segment — sent immediately, the
    // exact flat send re-aimed at the parent.
    channel_.send(parent, std::move(out));
    return;
  }
  // Interior: one constant combining charge before the merged envelope
  // departs.  Constant, so per-pair FIFO ordering between consecutive
  // collectives through this node is preserved.
  system_.rt().defer(
      system_.cluster().cost().tree_combine,
      [this, parent, out = std::move(out)]() mutable {
        channel_.send(parent, std::move(out));
      });
}

void DsmProcess::tree_post_ack() {
  ANOW_CHECK(!tree_self_acked_);
  tree_ack_open_ = true;
  tree_self_acked_ = true;
  ++tree_ack_count_;
  maybe_forward_tree_ack();
}

void DsmProcess::on_child_tree_ack(const TreeAck& msg) {
  ANOW_CHECK_MSG(tree_routes_collectives(),
                 "combined ack reached flat-routing node " << uid_);
  ANOW_CHECK(msg.count >= 1);
  tree_ack_open_ = true;
  ++tree_child_acks_;
  tree_ack_count_ += msg.count;
  maybe_forward_tree_ack();
}

void DsmProcess::maybe_forward_tree_ack() {
  const auto& topo = system_.topology();
  const int children = static_cast<int>(topo.children_of(uid_).size());
  if (!tree_self_acked_ || tree_child_acks_ < children) return;
  ANOW_CHECK(tree_child_acks_ == children);
  const TreeAck out{tree_ack_count_};
  tree_ack_open_ = false;
  tree_self_acked_ = false;
  tree_child_acks_ = 0;
  tree_ack_count_ = 0;
  const Uid parent = topo.parent_of(uid_);
  ANOW_CHECK(parent != kNoUid);
  if (children == 0) {
    channel_.send(parent, out);
    return;
  }
  system_.rt().defer(
      system_.cluster().cost().tree_combine,
      [this, parent, out] { channel_.send(parent, out); });
}

void DsmProcess::handle_tree_multicast(TreeMulticast msg) {
  ANOW_CHECK_MSG(!is_master(), "multicast route reached the root");
  const auto& topo = system_.topology();
  std::vector<Segment> own;
  bool have_own = false;
  std::vector<std::pair<Uid, TreeMulticast>> by_child;
  for (auto& route : msg.routes) {
    if (route.dest == uid_) {
      ANOW_CHECK_MSG(!have_own, "duplicate own route in multicast");
      have_own = true;
      own = std::move(route.segments);
      continue;
    }
    const Uid child = topo.next_hop_toward(uid_, route.dest);
    auto it =
        std::find_if(by_child.begin(), by_child.end(),
                     [child](const auto& e) { return e.first == child; });
    if (it == by_child.end()) {
      by_child.emplace_back(child, TreeMulticast{});
      it = std::prev(by_child.end());
    }
    it->second.routes.push_back(std::move(route));
  }
  // Descendant routes are scheduled before the own route is processed: if
  // the own route carries a terminate, the subtree's forwards are already
  // in flight when this process stops.
  for (auto& entry : by_child) {
    system_.rt().defer(
        system_.cluster().cost().tree_combine,
        [this, to = entry.first, mc = std::move(entry.second)]() mutable {
          channel_.send(to, std::move(mc));
        });
  }
  // The own route replays the exact envelope a flat fan-out would have
  // delivered: the destination's staged segments (join-barrier release,
  // adopt/drop notices, ...) strictly before the instruction, processed
  // in order with the master as the logical sender.
  for (auto& seg : own) {
    handle_segment(std::move(seg), kMasterUid);
  }
}

// ---------------------------------------------------------------------------
// Reply rendezvous
// ---------------------------------------------------------------------------

void DsmProcess::register_reply(std::uint64_t cookie) {
  pending_replies_.push_back(std::make_unique<PendingReply>());
  pending_replies_.back()->cookie = cookie;
}

DsmProcess::PendingReply* DsmProcess::find_reply(std::uint64_t cookie) {
  for (auto& pr : pending_replies_) {
    if (pr->cookie == cookie) return pr.get();
  }
  return nullptr;
}

Segment DsmProcess::await_reply(std::uint64_t cookie, const char* tag) {
  PendingReply* pr = find_reply(cookie);
  ANOW_CHECK_MSG(pr != nullptr, "await of unknown reply cookie");
  if (!pr->ready) {
    system_.rt().wait(pr->wp, tag);
  }
  Segment seg = std::move(pr->seg);
  for (auto& entry : pending_replies_) {  // swap-erase
    if (entry->cookie == cookie) {
      entry = std::move(pending_replies_.back());
      pending_replies_.pop_back();
      break;
    }
  }
  return seg;
}

void DsmProcess::deliver_reply(std::uint64_t cookie, Segment seg) {
  PendingReply* pr = find_reply(cookie);
  ANOW_CHECK_MSG(pr != nullptr, "reply with unknown cookie");
  pr->seg = std::move(seg);
  pr->ready = true;
  system_.rt().signal(pr->wp);
}

Segment DsmProcess::rpc(Uid dst, Segment seg, std::uint64_t cookie) {
  flush_cpu();
  register_reply(cookie);
  channel_.send(dst, std::move(seg));
  return await_reply(cookie, "rpc reply");
}

void DsmProcess::push_instruction(Segment seg) {
  instr_q_.push_back(std::move(seg));
  if (instr_waiting_) {
    instr_waiting_ = false;
    system_.rt().signal(instr_wp_);
  }
}

Segment DsmProcess::next_instruction(const char* tag) {
  flush_cpu();
  while (instr_q_.empty()) {
    instr_waiting_ = true;
    system_.rt().wait(instr_wp_, tag);
  }
  Segment m = std::move(instr_q_.front());
  instr_q_.pop_front();
  return m;
}

// ---------------------------------------------------------------------------
// Slave main loop (Tmk_wait / Tmk_fork / Tmk_join)
// ---------------------------------------------------------------------------

void DsmProcess::apply_team(const std::vector<std::pair<Uid, Pid>>& team) {
  team_size_ = static_cast<int>(team.size());
  pid_ = -1;
  for (const auto& [uid, pid] : team) {
    if (uid == uid_) pid_ = pid;
  }
  ANOW_CHECK_MSG(pid_ >= 0, "process " << uid_ << " missing from team");
}

void DsmProcess::run_task(const ForkMsg& fork) {
  // New construct: past exclusive write declarations are settled.
  engine_->begin_construct();
  apply_team(fork.team);
  // Queued ownership transfers (leave protocol) riding the fork; GC
  // entries were already applied at the prepare.
  engine_->apply_delta_to_slices(fork.owner_delta);
  engine_->integrate(fork.intervals);
  if (race_ != nullptr) race_->on_fork_join(uid_);
  if (fork.gc_commit) {
    engine_->gc_commit_node(fork.owner_delta);
  } else {
    apply_owner_hints(fork.owner_delta);
  }
  // Fork-borne invalidations/commits must revoke app-view access before
  // the task body runs.
  heap_sync_all();
  system_.run_task_body(fork.task_id, *this, fork.args);
  barrier(kJoinBarrierId);
}

void DsmProcess::slave_main() {
  if (announce_join_) {
    // Paper §4.1: the new process asynchronously sets up connections to all
    // slaves first, then to the master; the master then knows it is ready.
    const int peers = system_.world_size();
    system_.rt().sleep_for(
        system_.cluster().cost().connection_setup * peers);
    channel_.send(kMasterUid, JoinReady{uid_});
  }
  while (true) {
    Segment m = next_instruction("Tmk_wait");
    if (auto* fork = std::get_if<ForkMsg>(&m)) {
      run_task(*fork);
      continue;
    }
    if (auto* gp = std::get_if<GcPrepare>(&m)) {
      obs::ScopedSpan gc_span(tracer_, uid_, obs::SpanKind::kGcPrepare);
      engine_->apply_delta_to_slices(gp->owners);
      engine_->note_gc_prepare();
      engine_->integrate(gp->intervals);
      gc_validate(gp->owners);
      if (tree_routes_collectives()) {
        tree_post_ack();
      } else {
        channel_.send(kMasterUid, GcAck{uid_});
      }
      continue;
    }
    ANOW_CHECK_MSG(std::holds_alternative<TerminateMsg>(m),
                   "unexpected instruction in Tmk_wait");
    alive_ = false;
    return;
  }
}

// ---------------------------------------------------------------------------
// Real-backend protection check, checking build only (DESIGN.md §14)
// ---------------------------------------------------------------------------

exec::PageAccess DsmProcess::desired_access(PageId page) const {
  const auto& pm = engine_->page(page);
  if (!pm.is_valid()) return exec::PageAccess::kNone;
  if (pm.dirty || (pm.exclusive && pm.exclusive_rw)) {
    return exec::PageAccess::kWrite;
  }
  return exec::PageAccess::kRead;
}

void DsmProcess::heap_sync_all() {
  if (!protect_) return;
  engine_->take_access_transitions(sync_pages_);
  std::sort(sync_pages_.begin(), sync_pages_.end());
  std::size_t i = 0;
  while (i < sync_pages_.size()) {
    // One maximal run of adjacent changed pages with the same target.
    const PageId first = sync_pages_[i];
    const exec::PageAccess want = desired_access(first);
    std::size_t j = i + 1;
    while (j < sync_pages_.size() &&
           sync_pages_[j] == first + static_cast<PageId>(j - i) &&
           desired_access(sync_pages_[j]) == want) {
      ++j;
    }
    const std::int32_t covered =
        heap_->set_access(first, static_cast<std::int32_t>(j - i), want);
    if (covered > 0) {
      (*ctr_protect_calls_)++;
      *ctr_protect_pages_ += covered;
    }
    i = j;
  }
#ifdef ANOW_PROTOCOL_CHECKS
  // Missed-transition cross-check: a mutation site that forgot to
  // mark_access leaves a page whose applied protection is stale.
  for (PageId p = 0; p < system_.num_pages(); ++p) {
    ANOW_CHECK_MSG(heap_->access(p) == desired_access(p),
                   "uid " << uid_ << " page " << p
                          << " protection out of sync with engine state");
  }
#endif
}

}  // namespace anow::dsm
