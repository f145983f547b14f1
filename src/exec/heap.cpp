#include "exec/heap.hpp"

#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>

#include "util/check.hpp"

namespace anow::exec {

namespace {

int prot_for(PageAccess a) {
  switch (a) {
    case PageAccess::kNone:
      return PROT_NONE;
    case PageAccess::kRead:
      return PROT_READ;
    case PageAccess::kWrite:
      return PROT_READ | PROT_WRITE;
  }
  return PROT_NONE;
}

}  // namespace

ProcessHeap::~ProcessHeap() = default;

PlainHeap::PlainHeap(std::size_t bytes) {
  ANOW_CHECK(bytes % kPageBytes == 0);
  // An anonymous mapping, not calloc and not an explicit zero fill: its
  // pages are zero by construction and are committed only when the
  // program first touches them.  calloc gives that only while malloc
  // hands back fresh memory; once the arena holds freed blocks (fiber
  // bodies allocate on the same thread as the scheduler), calloc reuses
  // dirty memory and must zero-fill every process's whole heap up front.
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ANOW_CHECK_MSG(map != MAP_FAILED, "heap mmap failed");
  app_ = static_cast<std::uint8_t*>(map);
  prot_ = app_;
  bytes_ = bytes;
}

PlainHeap::~PlainHeap() { munmap(app_, bytes_); }

RealHeap::RealHeap(std::size_t bytes) {
  ANOW_CHECK(bytes % kPageBytes == 0);
  ANOW_CHECK_MSG(static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) == kPageBytes,
                 "real backend requires 4 KiB hardware pages");
  bytes_ = bytes;

  // One memfd, mapped twice: the protocol view is always RW, the app view
  // starts PROT_NONE (every page invalid) and is opened in page runs by
  // set_access.
  const int fd =
      static_cast<int>(syscall(SYS_memfd_create, "anow-heap", 0u));
  ANOW_CHECK_MSG(fd >= 0, "memfd_create failed");
  ANOW_CHECK(ftruncate(fd, static_cast<off_t>(bytes)) == 0);
  void* prot_map =
      mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ANOW_CHECK_MSG(prot_map != MAP_FAILED, "mmap(protocol view) failed");
  void* app_map = mmap(nullptr, bytes, PROT_NONE, MAP_SHARED, fd, 0);
  ANOW_CHECK_MSG(app_map != MAP_FAILED, "mmap(app view) failed");
  close(fd);  // mappings keep the pages alive
  // No zero fill: a fresh memfd's pages read as zero, and a page is
  // committed only when the protocol or the application first touches it.
  prot_ = static_cast<std::uint8_t*>(prot_map);
  app_ = static_cast<std::uint8_t*>(app_map);

  access_.assign(bytes / kPageBytes, PageAccess::kNone);
}

RealHeap::~RealHeap() {
  munmap(app_, bytes_);
  munmap(prot_, bytes_);
}

std::int32_t RealHeap::set_access(std::int32_t first, std::int32_t count,
                                  PageAccess a) {
  auto lo = static_cast<std::size_t>(first);
  auto hi = lo + static_cast<std::size_t>(count);
  while (lo < hi && access_[lo] == a) ++lo;
  while (hi > lo && access_[hi - 1] == a) --hi;
  if (lo == hi) return 0;
  std::fill(access_.begin() + static_cast<std::ptrdiff_t>(lo),
            access_.begin() + static_cast<std::ptrdiff_t>(hi), a);
  ANOW_CHECK(mprotect(app_ + lo * kPageBytes, (hi - lo) * kPageBytes,
                      prot_for(a)) == 0);
  return static_cast<std::int32_t>(hi - lo);
}

}  // namespace anow::exec
