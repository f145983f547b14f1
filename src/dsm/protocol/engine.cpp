#include "dsm/protocol/engine.hpp"

#include <algorithm>
#include <cstring>

#include "dsm/protocol/home_lrc_engine.hpp"
#include "dsm/protocol/lrc_engine.hpp"
#include "exec/heap.hpp"
#include "util/check.hpp"

namespace anow::dsm::protocol {

void ConsistencyEngine::attach_node(Uid self, std::uint8_t* region,
                                    PageId num_pages,
                                    const std::vector<Protocol>& protocol,
                                    util::StatsRegistry& stats,
                                    const NodeDirInit& dir) {
  ANOW_CHECK_MSG(pages_.empty() && dir_.map().num_pages == 0,
                 "engine already attached");
  self_ = self;
  region_ = region;
  protocol_ = &protocol;
  stats_ = &stats;
  pages_ = std::vector<PageMeta>(static_cast<std::size_t>(num_pages));
  // Only the checking build's RealHeap carries per-page protection to keep
  // in sync.
  if (exec::kCheckedRealHeap && config_->backend == BackendKind::kReal) {
    access_marked_.assign(static_cast<std::size_t>(num_pages), 0);
  }
  if (dir.hint_map != nullptr) {
    // Sharded directory: every process can compute the default holder of
    // every page from the config alone, so hints start there instead of at
    // the master — first-touch fetches spread across the holders.
    for (PageId p = 0; p < num_pages; ++p) {
      pages_[static_cast<std::size_t>(p)].owner_hint =
          dir.hint_map->default_holder_of_page(p);
    }
  }
  // The seeded pages start with a valid, exclusive copy of their (zeroed)
  // contents: the whole heap at the master when unsharded, a holder's own
  // page set when sharded — the initial data distribution.  Exclusivity
  // keeps initialization writes free of twins and write notices.
  auto seed = [&](PageId p) {
    PageMeta& pm = pages_[static_cast<std::size_t>(p)];
    pm.have_copy = true;
    pm.exclusive = true;
    mark_access(p);
  };
  if (dir.seed_shard == NodeDirInit::kSeedAll) {
    for (PageId p = 0; p < num_pages; ++p) seed(p);
  } else if (dir.seed_shard >= 0) {
    ANOW_CHECK(dir.hint_map != nullptr);
    dir.hint_map->for_each_page(dir.seed_shard, seed);
  }
  if (dir.slice_shard >= 0) {
    ANOW_CHECK(dir.hint_map != nullptr);
    dir_slices_.push_back(std::make_unique<DirSlice>(dir.slice_shard,
                                                     *dir.hint_map, self_));
  }
  on_attach_node();
}

void ConsistencyEngine::make_twin(PageId p) {
  PageMeta& pm = page(p);
  ANOW_CHECK(pm.twin == nullptr);
  // Not value-initialized: the copy overwrites every byte.
  pm.twin = std::make_unique_for_overwrite<std::uint8_t[]>(kPageSize);
  std::memcpy(pm.twin.get(), region_ + page_base(p), kPageSize);
  twin_bytes_ += static_cast<std::int64_t>(kPageSize);
}

void ConsistencyEngine::drop_twin(PageId p) {
  PageMeta& pm = page(p);
  pm.twin.reset();
  pm.twin_iseq = 0;
  twin_bytes_ -= static_cast<std::int64_t>(kPageSize);
}

DirSlice* ConsistencyEngine::dir_slice(int shard) {
  for (auto& slice : dir_slices_) {
    if (slice->shard() == shard) return slice.get();
  }
  return nullptr;
}

const DirSlice* ConsistencyEngine::dir_slice(int shard) const {
  for (const auto& slice : dir_slices_) {
    if (slice->shard() == shard) return slice.get();
  }
  return nullptr;
}

void ConsistencyEngine::apply_delta_to_slices(const OwnerDelta& delta) {
  for (auto& slice : dir_slices_) slice->apply_delta(delta);
}

void ConsistencyEngine::adopt_dir_slice(int shard, const ShardMap& map,
                                        std::vector<Uid> owners) {
  ANOW_CHECK_MSG(dir_slice(shard) == nullptr,
                 "node " << self_ << " already holds shard " << shard);
  ANOW_CHECK(static_cast<PageId>(owners.size()) == map.pages_in_shard(shard));
  dir_slices_.push_back(
      std::make_unique<DirSlice>(shard, map, std::move(owners)));
}

void ConsistencyEngine::drop_dir_slice(int shard) {
  for (auto& slice : dir_slices_) {
    if (slice->shard() != shard) continue;
    slice = std::move(dir_slices_.back());
    dir_slices_.pop_back();
    return;
  }
  ANOW_CHECK_MSG(false, "node " << self_ << " asked to drop shard " << shard
                                << " it does not hold");
}

OwnerDelta ConsistencyEngine::stage_owner_moves(const OwnerDelta& moves) {
  ANOW_CHECK_MSG(moves.empty(),
                 "engine " << name() << " has no homes to move");
  return {};
}

void ConsistencyEngine::attach_master(PageId num_pages,
                                      util::StatsRegistry& stats) {
  ANOW_CHECK_MSG(pages_.empty() && dir_.map().num_pages == 0,
                 "engine already attached");
  stats_ = &stats;
  dir_.init(num_pages);
  on_attach_master();
}

void ConsistencyEngine::configure_directory(const ShardMap& map) {
  dir_.configure(map);
}

void ConsistencyEngine::reset_directory_node_state() {
  dir_slices_.clear();
  for (PageId p = 0; p < num_pages(); ++p) {
    PageMeta& pm = page(p);
    // Pre-fork there can be no twins or pending notices anywhere (no
    // interval ever finished); anything else means the restore came too
    // late and the caller's forks==0 check should have fired.
    ANOW_CHECK(pm.twin == nullptr && pm.pending.empty());
    pm.owner_hint = kMasterUid;
    pm.dirty = false;
    const bool master = self_ == kMasterUid;
    pm.have_copy = master;
    pm.exclusive = master;
    pm.exclusive_rw = false;
    mark_access(p);
  }
  dirty_pages_.clear();
}

std::int64_t ConsistencyEngine::resident_pages() const {
  std::int64_t n = 0;
  for (const auto& pm : pages_) {
    if (pm.have_copy) ++n;
  }
  return n;
}

bool ConsistencyEngine::note_exclusive_write(PageId p) {
  PageMeta& pm = page(p);
  if (!pm.exclusive) return false;
  pm.exclusive_rw = true;
  pm.exclusive_epoch = epoch_;
  mark_access(p);
  return true;
}

std::int64_t ConsistencyEngine::apply_home_flush(
    Uid /*writer*/, const std::vector<HomeFlushPage>& /*pages*/) {
  ANOW_CHECK_MSG(false, "engine " << name() << " does not accept home "
                                  << "flushes");
}

std::int64_t ConsistencyEngine::apply_home_flushes(
    const std::vector<HomeFlush>& flushes) {
  std::int64_t applied = 0;
  for (const auto& flush : flushes) {
    applied += apply_home_flush(flush.writer, flush.pages);
  }
  return applied;
}

std::vector<PageId> ConsistencyEngine::pages_owned_by(Uid uid) const {
  return owned_pages(dir_.full_owner_map(), uid);
}

std::vector<std::vector<PageId>> ConsistencyEngine::pages_owned_by_all()
    const {
  return owned_pages_by_all(dir_.full_owner_map());
}

void ConsistencyEngine::set_owner(PageId p, Uid owner) {
  if (dir_.is_held_page(p)) dir_.set_local_owner(p, owner);
  on_owner_changed(p, owner);
}

void ConsistencyEngine::queue_owner_update(PageId p, Uid owner) {
  queued_owner_updates_.emplace_back(p, owner);
  if (dir_.is_held_page(p)) dir_.set_local_owner(p, owner);
  on_owner_changed(p, owner);
}

void ConsistencyEngine::reset_owners_to_master() {
  dir_.reset_owners_to_master();
  on_owners_reset();
}

PendingOwnerCommit ConsistencyEngine::take_pending_commit(
    bool include_queued_updates) {
  PendingOwnerCommit out;
  out.gc_commit = pending_commit_;
  out.delta = std::move(pending_delta_);
  pending_commit_ = false;
  pending_delta_.clear();
  if (include_queued_updates) {
    out.delta.insert(out.delta.end(), queued_owner_updates_.begin(),
                     queued_owner_updates_.end());
    queued_owner_updates_.clear();
  }
  return out;
}

std::unique_ptr<ConsistencyEngine> make_engine(const DsmConfig& config) {
  switch (config.engine) {
    case EngineKind::kLrc:
      return std::make_unique<LrcEngine>(config);
    case EngineKind::kHomeLrc:
      return std::make_unique<HomeLrcEngine>(config);
  }
  ANOW_CHECK_MSG(false, "unknown engine kind");
}

}  // namespace anow::dsm::protocol
