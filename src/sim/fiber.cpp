#include "sim/fiber.hpp"

#include <sys/mman.h>

#include <cstdint>
#include <cstring>
#include <cxxabi.h>

#include "util/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define ANOW_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ANOW_FIBER_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define ANOW_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ANOW_FIBER_TSAN 1
#endif
#endif

#if defined(ANOW_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(ANOW_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "sim::Fiber: port anow_fiber_switch and anow_fiber_start (fiber.cpp)"
#endif

// anow_fiber_switch(void** save_sp, void* load_sp) saves the callee-saved
// state of the System V x86-64 ABI — rbp, rbx, r12-r15, MXCSR and the x87
// control word — on the current stack, stores the stack pointer through
// save_sp, then pops the same layout (SwitchFrame below) off load_sp and
// returns into that context.  Caller-saved registers need no saving: to
// the compiler this is an ordinary call.
//
// anow_fiber_start is where a new fiber's first frame returns to: it calls
// r13 (Fiber::entry) with r12 (the Fiber*).  Its CFI marks the return
// address undefined, so unwinders stop at the root of the fiber's stack.
asm(R"(
  .pushsection .text
  .globl anow_fiber_switch
  .hidden anow_fiber_switch
  .type anow_fiber_switch, @function
  .p2align 4
anow_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw (%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size anow_fiber_switch, .-anow_fiber_switch

  .globl anow_fiber_start
  .hidden anow_fiber_start
  .type anow_fiber_start, @function
  .p2align 4
anow_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size anow_fiber_start, .-anow_fiber_start
  .popsection
)");

extern "C" {
void anow_fiber_switch(void** save_sp, void* load_sp);
void anow_fiber_start();
}

namespace anow::sim {

namespace {

constexpr std::size_t kGuardBytes = 4096;
constexpr std::size_t kStackBytes = std::size_t{8} << 20;
constexpr std::size_t kMapBytes = kGuardBytes + kStackBytes;

std::uint8_t* stack_base(void* map) {
  return static_cast<std::uint8_t*>(map) + kGuardBytes;
}

/// The calling thread's exception state, viewed through its ABI layout.
void* eh_globals() { return abi::__cxa_get_globals(); }

/// What anow_fiber_switch leaves on a suspended stack, lowest address
/// first.
struct SwitchFrame {
  std::uint16_t x87_cw;
  std::uint16_t pad0[3];
  std::uint32_t mxcsr;
  std::uint32_t pad1;
  std::uint64_t r15, r14, r13, r12, rbx, rbp;
  void (*ret)();
};
static_assert(sizeof(SwitchFrame) == 72);

}  // namespace

Fiber::Fiber(Simulator& sim, std::string name, Body body)
    : sim_(sim), name_(std::move(name)), body_(std::move(body)) {
  // Reserve without committing: only the pages the body touches cost RSS.
  map_ = mmap(nullptr, kMapBytes, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  ANOW_CHECK_MSG(map_ != MAP_FAILED, "fiber stack mmap failed");
  const bool guarded = mprotect(map_, kGuardBytes, PROT_NONE) == 0;
  if (!guarded) munmap(map_, kMapBytes);
  ANOW_CHECK_MSG(guarded, "fiber guard page mprotect failed");

  // The first resume pops this frame and returns into anow_fiber_start
  // with rsp 16 bytes below the (page-aligned) stack top, so its call
  // enters entry() with the ABI's alignment.  rbp = 0 ends the
  // frame-pointer chain; the FP control state is the constructing
  // thread's.
  auto* frame = reinterpret_cast<SwitchFrame*>(stack_base(map_) +
                                               kStackBytes - 16 -
                                               sizeof(SwitchFrame));
  *frame = SwitchFrame{};
  asm volatile("fnstcw %0" : "=m"(frame->x87_cw));
  asm volatile("stmxcsr %0" : "=m"(frame->mxcsr));
  frame->r13 = reinterpret_cast<std::uint64_t>(&Fiber::entry);
  frame->r12 = reinterpret_cast<std::uint64_t>(this);
  frame->ret = &anow_fiber_start;
  sp_ = frame;
#if defined(ANOW_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  if (started_ && !done_) {
    // Unwind the parked body: park() throws Killed, fiber_main() catches it.
    killed_ = true;
    resume();
  }
#if defined(ANOW_FIBER_TSAN)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#if defined(ANOW_FIBER_ASAN)
  // Frames abandoned by the final switch leave poisoned shadow behind;
  // clear it before the range can be mapped again.
  __asan_unpoison_memory_region(map_, kMapBytes);
#endif
  munmap(map_, kMapBytes);
}

void Fiber::entry(Fiber* self) { self->fiber_main(); }

void Fiber::fiber_main() {
  switched_in();
  try {
    body_();
  } catch (const Killed&) {
    // Normal teardown path: unwound by the destructor.
  } catch (...) {
    error_ = std::current_exception();
  }
  done_ = true;
  parked_ = true;
  switch_out(/*exiting=*/true);
}

void Fiber::resume() {
  ANOW_CHECK_MSG(parked_ && !done_, "resume of fiber '"
                                        << name_ << "' that is not parked");
  parked_ = false;
  started_ = true;
  // Install the fiber's exception state for the time it runs, and keep the
  // caller's aside.
  EhGlobals caller_eh;
  std::memcpy(&caller_eh, eh_globals(), sizeof(EhGlobals));
  std::memcpy(eh_globals(), &eh_, sizeof(EhGlobals));
#if defined(ANOW_FIBER_TSAN)
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(ANOW_FIBER_ASAN)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, stack_base(map_), kStackBytes);
#endif
  anow_fiber_switch(&caller_sp_, sp_);
#if defined(ANOW_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  std::memcpy(&eh_, eh_globals(), sizeof(EhGlobals));
  std::memcpy(eh_globals(), &caller_eh, sizeof(EhGlobals));
}

void Fiber::park() {
  parked_ = true;
  switch_out(/*exiting=*/false);
  switched_in();
  if (killed_) {
    throw Killed{};
  }
}

void Fiber::switched_in() {
#if defined(ANOW_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &caller_stack_,
                                  &caller_stack_bytes_);
#endif
}

void Fiber::switch_out([[maybe_unused]] bool exiting) {
#if defined(ANOW_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
#if defined(ANOW_FIBER_ASAN)
  // A null save slot tells ASan this stack is finished with for good.
  __sanitizer_start_switch_fiber(exiting ? nullptr : &asan_fake_stack_,
                                 caller_stack_, caller_stack_bytes_);
#endif
  anow_fiber_switch(&sp_, caller_sp_);
}

}  // namespace anow::sim
