// Cooperative fiber: a user-space context on its own mmap'd stack.
//
// Exactly one fiber (or the scheduler) runs at any instant; the scheduler
// hands control to a fiber with resume() and regains it when the fiber parks
// or finishes.  This gives simulated DSM processes a natural blocking
// programming model (page faults, barriers, locks simply park the fiber)
// while keeping the whole simulation logically single-threaded and therefore
// deterministic.
//
// The whole simulation runs on the caller's thread: a switch is one call to
// a small x86-64 routine (anow_fiber_switch in fiber.cpp) that saves the
// callee-saved registers, MXCSR and the x87 control word on the current
// stack and pops the same set off the other one.  That is the state libc's
// user-context switch keeps apart from the signal mask, whose save and
// restore cost that switch a syscall each time.  No syscall, no kernel
// scheduling, no cross-thread publication.  Each stack is 8 MiB, reserved
// with MAP_NORESERVE so only touched pages are committed, above a PROT_NONE
// guard page — the same shape as a default pthread stack.  A new fiber
// starts from a hand-built first frame that enters its body with the ABI's
// 16-byte stack alignment and the constructing thread's MXCSR and x87
// control word.
//
// Per-thread runtime state that a blocked body must keep as its own is
// switched with the stack: the C++ caught-exception stack (so a fiber parked
// inside a catch block still rethrows its own exception), and the ASan/TSan
// notion of the current stack when those sanitizers are on.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <string>

namespace anow::sim {

class Simulator;

class Fiber {
 public:
  using Body = std::function<void()>;

  Fiber(Simulator& sim, std::string name, Body body);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  const std::string& name() const { return name_; }
  bool done() const { return done_; }
  bool parked() const { return parked_; }

  /// Free-form label describing what the fiber is blocked on; shown in
  /// deadlock diagnostics.
  void set_wait_tag(std::string tag) { wait_tag_ = std::move(tag); }
  const std::string& wait_tag() const { return wait_tag_; }

 private:
  friend class Simulator;

  /// Thrown inside a parked fiber when the simulator shuts down, so the
  /// fiber's stack unwinds cleanly (RAII) instead of being abandoned.
  struct Killed {};

  /// The ABI layout of abi::__cxa_eh_globals (an incomplete type in
  /// <cxxabi.h>): the caught-exception stack and the uncaught count.
  struct EhGlobals {
    void* caught = nullptr;
    unsigned int uncaught = 0;
  };

  /// First-frame entry point, called on the fiber's own stack.
  static void entry(Fiber* self);
  void fiber_main();
  /// Scheduler side: lets the fiber run; returns once it parks or finishes.
  void resume();
  /// Fiber side: yields control back to the scheduler; returns when resumed.
  void park();
  /// Fiber side: the one switch from the fiber's stack back to the caller.
  void switch_out(bool exiting);
  /// Fiber side: bookkeeping on arrival on the fiber's stack.
  void switched_in();

  Simulator& sim_;
  std::string name_;
  Body body_;
  std::string wait_tag_;

  bool parked_ = true;  // fiber is parked (or not yet started)
  bool started_ = false;
  bool killed_ = false;
  bool done_ = false;
  std::exception_ptr error_;

  void* map_ = nullptr;        // guard page + stack
  void* sp_ = nullptr;         // the fiber's saved stack pointer
  void* caller_sp_ = nullptr;  // whoever last resumed it
  EhGlobals eh_;  // the fiber's exception state while switched out

  // Sanitizer bookkeeping (unused unless built with ASan / TSan).
  void* asan_fake_stack_ = nullptr;
  const void* caller_stack_ = nullptr;
  std::size_t caller_stack_bytes_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace anow::sim
