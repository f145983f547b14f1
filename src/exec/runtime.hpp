// The execution-backend seam (DESIGN.md §14).
//
// Everything the DSM layer consumes from "the machine" — task spawn/join,
// the clock, blocking waits and their signals, deferred execution, and
// inter-process envelope delivery — goes through this interface.  Two
// implementations exist:
//
//  * SimRuntime  — wraps the discrete-event simulator (sim::Cluster): waits
//    park fibers, defer schedules virtual-time events, post rides the
//    switched-Ethernet model.  Selected by --backend sim (the default) and
//    byte-identical to the pre-seam code.
//
//  * RealRuntime — one pthread per DSM process, envelopes over lock-free
//    SPSC rings, wall-clock time.  Virtual cost modelling (sleep_for,
//    service delays) evaporates; the protocol pays only its real cost.
//
// The seam's key invariant, shared by both backends: a process's inbound
// envelopes are handled in its own execution context, one at a time, and
// only while it is blocked at a wait point.  Every DsmProcess therefore
// stays single-threaded, exactly as under the simulator — the real backend
// needs no per-process locks at all.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/time.hpp"

namespace anow::sim {
class Fiber;
struct WaitPoint;
}  // namespace anow::sim

namespace anow::exec {

/// Process identity at the seam (matches dsm::Uid; exec must not depend on
/// the dsm headers).
using ProcId = std::int32_t;

class Runtime {
 public:
  virtual ~Runtime();

  /// True for the pthread backend; lets rarely-taken call sites branch on
  /// backend-specific behaviour (cost-model skips, thread launch).
  virtual bool real() const = 0;

  /// Simulator: current virtual time.  Real: monotonic wall-clock
  /// nanoseconds since run() started.
  virtual sim::Time now() const = 0;

  /// Blocks the calling process context until `wp` is signaled, then
  /// consumes the signal (wp.signaled is false on return — the simulator's
  /// wait semantics, which the reused WaitPoints in DsmProcess rely on).
  /// The real backend drains the caller's inbound rings while blocked.
  virtual void wait(sim::WaitPoint& wp, const char* tag) = 0;

  /// Marks `wp` signaled, resuming its waiter.  Under the real backend a
  /// WaitPoint is only ever signaled from its owner's own thread (inbound
  /// handlers run in the blocked process's context), so this is a plain
  /// flag write.
  virtual void signal(sim::WaitPoint& wp) = 0;

  /// Runs `fn` after `dt` of virtual time (simulator) or immediately
  /// (real backend — the delay models service latency that a real machine
  /// simply pays in wall-clock time).  `fn` must not block.
  virtual void defer(sim::Time dt, std::function<void()> fn) = 0;

  /// Blocks the calling process for `dt` of virtual time; no-op on the
  /// real backend.
  virtual void sleep_for(sim::Time dt) = 0;

  /// Registers a process body.  Simulator: spawns a fiber immediately
  /// (events only run inside sim().run()) and returns it.  Real backend:
  /// the body is held and launched as a pthread when run() starts, so the
  /// single-threaded setup phase (engine seeding, team wiring) never races
  /// a live process thread; returns nullptr.
  virtual sim::Fiber* start_process(ProcId uid, const std::string& name,
                                    std::function<void()> body) = 0;

  /// Transport: delivers `deliver` at process `dst`.  Simulator: schedules
  /// through the switched-Ethernet model (returns the arrival time).  Real:
  /// enqueues on the (src, dst) SPSC ring — per-pair FIFO — and wakes the
  /// destination if it is blocked; returns 0.
  virtual sim::Time post(ProcId src, ProcId dst, int src_host, int dst_host,
                         std::int64_t wire_bytes,
                         std::function<void()> deliver) = 0;

  /// Drives the master body to completion: the simulator spawns the master
  /// fiber and runs the event loop; the real backend launches the
  /// registered process threads, runs `master_body` on the calling thread
  /// (as process 0), and joins everything.
  virtual void run(std::function<void()> master_body) = 0;

  /// Whether the caller is executing in `uid`'s context (its fiber under
  /// the simulator, its thread under the real backend).
  virtual bool in_context_of(ProcId uid) const = 0;

  /// Real backend only: a hook run after every inbound envelope delivered to
  /// `uid` — the app-view protection resync of the checking build's
  /// RealHeap.  No-op under the simulator (there is no protection to keep
  /// in step).
  virtual void set_delivery_hook(ProcId /*uid*/,
                                 std::function<void()> /*after*/) {}
};

}  // namespace anow::exec
