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

  ANOW_CHECK(getcontext(&ctx_) == 0);
  ctx_.uc_stack.ss_sp = stack_base(map_);
  ctx_.uc_stack.ss_size = kStackBytes;
  ctx_.uc_link = nullptr;  // entry() never returns
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::entry), 2,
              static_cast<unsigned int>(self),
              static_cast<unsigned int>(self >> 32));
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

void Fiber::entry(unsigned int lo, unsigned int hi) {
  const std::uint64_t bits = (std::uint64_t{hi} << 32) | lo;
  Fiber* self = nullptr;
  static_assert(sizeof(self) == sizeof(bits));
  std::memcpy(&self, &bits, sizeof(self));
  self->fiber_main();
}

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
  ANOW_CHECK(swapcontext(&caller_, &ctx_) == 0);
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
  ANOW_CHECK(swapcontext(&ctx_, &caller_) == 0);
}

}  // namespace anow::sim
