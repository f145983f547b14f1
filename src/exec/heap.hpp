// Per-process shared-heap storage behind the execution seam (DESIGN.md §14).
//
// A DsmProcess sees its copy of the shared region through two pointers:
//
//  * app_base()  — the view handed to application code via ptr<T>/cptr<T>.
//  * prot_base() — the view the protocol machinery (engine install/serve,
//    diff apply, region restore) reads and writes.
//
// SimHeap aliases both views onto one zeroed buffer.  RealHeap maps the
// same memfd pages (zero by construction) twice: the app view carries
// per-page mprotect state that checks the declaration contract (every
// shared access goes through read_range / write_range), while the protocol
// view stays PROT_READ|PROT_WRITE so protocol writes never fault.  Desired
// page protection is derived from engine state by the owning DsmProcess:
//
//    invalid (no copy / pending notices)  -> kNone   (any touch = app bug)
//    valid, clean                         -> kRead   (undeclared write = app bug)
//    valid and dirty / exclusive-writable -> kWrite  (declared this interval)
//
// Nothing handles the resulting SIGSEGV: an undeclared access dies on the
// default disposition (or the sanitizer's report).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace anow::exec {

constexpr std::size_t kPageBytes = 4096;

enum class PageAccess : std::uint8_t { kNone = 0, kRead = 1, kWrite = 2 };

class ProcessHeap {
 public:
  virtual ~ProcessHeap();

  std::uint8_t* app_base() const { return app_; }
  std::uint8_t* prot_base() const { return prot_; }
  std::size_t bytes() const { return bytes_; }
  std::int32_t npages() const {
    return static_cast<std::int32_t>(bytes_ / kPageBytes);
  }

  /// Real backend: sets the app view's protection of pages [first,
  /// first + count) with at most one mprotect, skipping the leading and
  /// trailing pages that already have it.  Returns the number of pages the
  /// call covered (0: no syscall).  No-op on SimHeap.
  virtual std::int32_t set_access(std::int32_t /*first*/,
                                  std::int32_t /*count*/, PageAccess /*a*/) {
    return 0;
  }
  /// The one-page run [page, page + 1).
  std::int32_t set_access(std::int32_t page, PageAccess a) {
    return set_access(page, 1, a);
  }
  /// The app view's current protection of `page` (SimHeap: always
  /// writable).
  virtual PageAccess access(std::int32_t /*page*/) const {
    return PageAccess::kWrite;
  }

 protected:
  std::uint8_t* app_ = nullptr;
  std::uint8_t* prot_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Simulator backend: one zeroed buffer, both views alias it.
class SimHeap final : public ProcessHeap {
 public:
  explicit SimHeap(std::size_t bytes);
  ~SimHeap() override;
};

/// Real backend: dual-mapped memfd pages, app view under mprotect.
class RealHeap final : public ProcessHeap {
 public:
  explicit RealHeap(std::size_t bytes);
  ~RealHeap() override;

  using ProcessHeap::set_access;
  std::int32_t set_access(std::int32_t first, std::int32_t count,
                          PageAccess a) override;
  PageAccess access(std::int32_t page) const override {
    return access_[static_cast<std::size_t>(page)];
  }

 private:
  /// Current app-view protection per page, so unchanged pages cost no
  /// syscall.
  std::vector<PageAccess> access_;
};

}  // namespace anow::exec
