#include "core/adapt.hpp"

#include <algorithm>

#include "dsm/types.hpp"
#include "util/check.hpp"

namespace anow::core {

using dsm::kMasterUid;
using dsm::Uid;

std::string to_string(AdaptKind kind) {
  return kind == AdaptKind::kJoin ? "join" : "leave";
}

AdaptiveRuntime::AdaptiveRuntime(dsm::DsmSystem& system, Options options)
    : system_(system), options_(options) {
  system_.set_fork_hook([this] { on_fork(); });
}

void AdaptiveRuntime::post(AdaptEvent event) {
  if (event.kind == AdaptKind::kJoin) {
    post_join(event.at, event.host);
  } else {
    post_leave(event.at, event.host, event.grace);
  }
}

void AdaptiveRuntime::post_join(sim::Time at, sim::HostId host) {
  auto& sim = system_.cluster().sim();
  sim.at(at, [this, at, host] {
    if (!system_.is_alive(dsm::kMasterUid)) return;  // run already over
    // The master spawns a new process on the specified host (§4.1); process
    // creation takes 0.6–0.8 s, then the process sets up its connections.
    const sim::Time spawn =
        options_.charge_spawn_cost ? system_.cluster().draw_spawn_cost() : 0;
    system_.cluster().sim().after(spawn, [this, at, host] {
      if (!system_.is_alive(dsm::kMasterUid)) return;
      while (system_.cluster().num_hosts() <= host) {
        system_.cluster().add_host();
      }
      const Uid uid = system_.spawn_process(host);
      pending_joins_.push_back({host, at, uid});
    });
  });
}

void AdaptiveRuntime::post_leave(sim::Time at, sim::HostId host,
                                 sim::Time grace) {
  auto& sim = system_.cluster().sim();
  const std::int64_t id = next_leave_id_++;
  sim.at(at, [this, id, at, host, grace] {
    pending_leaves_[id] = PendingLeave{host, at, at + grace, false, false};
    // Arm the urgent-leave timer.
    system_.cluster().sim().after(grace, [this, id] {
      auto it = pending_leaves_.find(id);
      if (it == pending_leaves_.end() || it->second.done ||
          it->second.migrated) {
        return;
      }
      migrate(it->second);
    });
  });
}

Uid AdaptiveRuntime::team_process_on(sim::HostId host) {
  for (Uid uid : system_.team()) {
    if (system_.is_alive(uid) && system_.process(uid).host() == host) {
      return uid;
    }
  }
  return dsm::kNoUid;
}

sim::HostId AdaptiveRuntime::pick_migration_target(Uid leaver) {
  // The host of the next pid in the team: deterministic, spreads repeated
  // migrations, never the leaver's own host.
  const auto& team = system_.team();
  auto it = std::find(team.begin(), team.end(), leaver);
  ANOW_CHECK(it != team.end());
  const std::size_t pid = static_cast<std::size_t>(it - team.begin());
  const Uid target_uid = team[(pid + 1) % team.size()];
  return system_.process(target_uid).host();
}

void AdaptiveRuntime::migrate(PendingLeave& leave) {
  if (!system_.is_alive(dsm::kMasterUid)) {  // run already over
    leave.done = true;
    return;
  }
  // Event context: run the choreography on a dedicated fiber so we can
  // block for the transfer.
  const Uid uid = team_process_on(leave.host);
  if (uid == dsm::kNoUid) {
    // The process already left at an adaptation point we are racing with.
    leave.done = true;
    return;
  }
  leave.migrated = true;
  auto& cluster = system_.cluster();
  cluster.sim().spawn("migration-" + std::to_string(uid), [this, &leave,
                                                           uid] {
    auto& cluster = system_.cluster();
    auto& proc = system_.process(uid);
    const sim::HostId target = pick_migration_target(uid);
    const sim::Time spawn = cluster.draw_spawn_cost();
    const std::int64_t image = proc.image_bytes();
    const sim::Time transfer = cluster.cost().migration_time(image);
    // A new process is first created on the target host; computation
    // continues during that (§4.2).
    cluster.sim().sleep_for(spawn);
    // "All processes then wait for the completion of the migration."
    const int frozen = cluster.freeze_all();
    cluster.sim().sleep_for(transfer);
    cluster.unfreeze_all(frozen);
    system_.move_process(uid, target);
    stats_record_migration(leave, spawn + transfer);
    system_.stats().counter("adapt.migrations")++;
    system_.stats().counter("adapt.migration_bytes") += image;
    // The process now multiplexes on the target host until the next
    // adaptation point turns this into a normal leave.
  });
}

void AdaptiveRuntime::stats_record_migration(PendingLeave& leave,
                                             sim::Time duration) {
  leave.migration_duration = duration;
}

void AdaptiveRuntime::on_fork() {
  // Collect ready joiners first so a single adaptation point can absorb
  // several events at once (§5.4: handling multiple adapt events together
  // is much cheaper).
  for (Uid uid : system_.take_ready_joiners()) {
    for (auto& j : pending_joins_) {
      if (j.uid == uid) j.ready = true;
    }
  }

  bool any_join = std::any_of(pending_joins_.begin(), pending_joins_.end(),
                              [](const PendingJoin& j) { return j.ready; });
  bool any_leave = false;
  for (auto& [id, leave] : pending_leaves_) {
    if (!leave.done && team_process_on(leave.host) != dsm::kNoUid) {
      any_leave = true;
    }
  }
  if (!any_join && !any_leave) return;  // zero cost when nothing is pending

  auto& stats = system_.stats();
  const auto net_before = system_.cluster().net().link_snapshot();
  const std::int64_t bytes_before = stats.counter_value("net.bytes");
  const sim::Time t0 = system_.cluster().sim().now();
  const int world_before = system_.world_size();

  // One GC covers all of this point's joins and leaves (§4.1/§4.2).
  // Leaves force the GC even in the no-GC ablation: without it, other
  // processes could still hold write notices naming the departed process
  // and would fetch diffs from a corpse.  The ablation therefore isolates
  // the join-path benefit of the GC (the clean page-location map).
  if (options_.gc_before_adapt || any_leave) {
    system_.gc_at_fork();
  }

  std::vector<AdaptRecord> point_records;

  // One owner-map scan covers every leaver at this point (leavers own
  // disjoint page sets, so earlier re-owns cannot stale later lists).
  std::vector<std::vector<dsm::PageId>> owned_by_all;
  if (any_leave) owned_by_all = system_.pages_owned_by_all();

  for (auto& [id, leave] : pending_leaves_) {
    if (leave.done) continue;
    const Uid uid = team_process_on(leave.host);
    if (uid == dsm::kNoUid) continue;
    if (uid == kMasterUid) {
      // §4.4: the master cannot perform a normal leave; it stays until a
      // migration moves it (which changes its host, making this entry
      // resolve on a later pass).
      continue;
    }
    handle_leave_of(uid, static_cast<std::size_t>(uid) < owned_by_all.size()
                             ? owned_by_all[static_cast<std::size_t>(uid)]
                             : std::vector<dsm::PageId>{});
    leave.done = true;
    AdaptRecord rec;
    rec.kind = AdaptKind::kLeave;
    rec.raised_at = leave.raised_at;
    rec.handled_at = t0;
    rec.uid = uid;
    rec.urgent = leave.migrated;
    rec.migration_duration = leave.migration_duration;
    point_records.push_back(rec);
    stats.counter("adapt.leaves")++;
  }

  for (auto& join : pending_joins_) {
    if (!join.ready) continue;
    system_.send_page_map(join.uid);
    system_.adopt(join.uid);
    AdaptRecord rec;
    rec.kind = AdaptKind::kJoin;
    rec.raised_at = join.raised_at;
    rec.handled_at = t0;
    rec.uid = join.uid;
    point_records.push_back(rec);
    stats.counter("adapt.joins")++;
  }
  pending_joins_.erase(
      std::remove_if(pending_joins_.begin(), pending_joins_.end(),
                     [](const PendingJoin& j) { return j.ready; }),
      pending_joins_.end());
  // Completed leaves stay in the map (marked done) because an in-flight
  // migration fiber may still hold a reference to its entry.

  // Finalize records with the traffic/time attributable to the point.
  const auto net_after = system_.cluster().net().link_snapshot();
  const std::int64_t hook_bytes =
      stats.counter_value("net.bytes") - bytes_before;
  const std::int64_t max_link =
      sim::Network::max_link_traffic(net_before, net_after);
  const sim::Time dt = system_.cluster().sim().now() - t0;
  for (auto& rec : point_records) {
    rec.world_after = system_.world_size();
    rec.world_before = world_before;
    rec.hook_bytes = hook_bytes;
    rec.hook_max_link_bytes = max_link;
    rec.hook_duration = dt;
    records_.push_back(rec);
  }
  if (!point_records.empty()) {
    ++adaptations_handled_;
    stats.counter("adapt.points_with_events")++;
  }
}

void AdaptiveRuntime::handle_leave_of(Uid uid,
                                      const std::vector<dsm::PageId>& owned) {
  // Paper §4.2: after the GC it suffices for the master to fetch all pages
  // exclusively owned by the leaving process and invalid on the master, and
  // to tell everyone it now owns them.
  auto& master = system_.process(kMasterUid);
  std::int64_t fetched = 0;
  for (dsm::PageId p : owned) {
    master.read_range(dsm::page_base(p), dsm::kPageSize);  // no-op if valid
    system_.queue_owner_update(p, kMasterUid);
    ++fetched;
  }
  system_.stats().counter("adapt.leave_pages_reowned") += fetched;
  system_.expel(uid);
}

}  // namespace anow::core
