// Word-granularity run-length diffs (TreadMarks' mechanism for merging
// concurrent writers to one page).
//
// Encoding: a sequence of runs, each
//   u16 word_offset | u16 word_count | word_count * 8 bytes of data.
// A diff of a page against its twin captures exactly the words the local
// process modified during the interval; applying the diff to any other copy
// merges those modifications.
//
// The encoder is a two-phase block scan (DESIGN.md §10): phase one skips
// each 512-byte block that memcmp finds equal and compares the others 16
// bytes at a time (SSE2 when available, u64 loads otherwise) into a 512-bit
// changed-word bitmask; phase two sizes the output exactly from the mask's
// popcount and run count, then walks the runs with ctz and bulk-copies
// their payloads.  `make_diff_scalar` keeps the original word-at-a-time
// reference implementation compiled in every build as the differential-test
// oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsm/types.hpp"

namespace anow::util {
class Arena;
}  // namespace anow::util

namespace anow::dsm {

using DiffBytes = std::vector<std::uint8_t>;

/// Non-owning view of an encoded diff.  The archive stores these over
/// arena-backed bytes; the pointed-to storage outlives the view (it is
/// freed wholesale at GC, which also clears the archive).
struct DiffView {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
  bool empty() const { return size == 0; }
};

/// Encodes the difference new_page - twin.  Both must be kPageSize bytes.
/// Returns an empty vector when the page is unchanged.
DiffBytes make_diff(const std::uint8_t* twin, const std::uint8_t* new_page);

/// make_diff into arena-backed storage: one bump allocation of the exact
/// encoded size, no vector round trip.  Returns an empty view when the page
/// is unchanged.
DiffView make_diff_arena(const std::uint8_t* twin,
                         const std::uint8_t* new_page, util::Arena& arena);

/// Reference encoder: the original word-at-a-time scan.  Kept in every
/// build as the oracle for the differential property tests; the vectorized
/// make_diff must produce byte-identical output.
DiffBytes make_diff_scalar(const std::uint8_t* twin,
                           const std::uint8_t* new_page);

/// Applies an encoded diff to a page in place.
void apply_diff(std::uint8_t* page, const std::uint8_t* diff,
                std::size_t size);
inline void apply_diff(std::uint8_t* page, const DiffBytes& diff) {
  apply_diff(page, diff.data(), diff.size());
}

/// Number of runs in an encoded diff (validation/debug).  Malformed input
/// (truncated header or data, out-of-bounds run) throws util::CheckError,
/// exactly where apply_diff throws and diff_is_valid returns false.
std::size_t diff_run_count(const DiffBytes& diff);

/// True when the encoding is structurally valid for a kPageSize page.
bool diff_is_valid(const DiffBytes& diff);

}  // namespace anow::dsm
