#include "dsm/diff.hpp"

#include <bit>
#include <cstring>

#include "util/arena.hpp"
#include "util/check.hpp"

// SIMD dispatch policy (DESIGN.md §10): the 16-byte-compare scan uses SSE2
// when the target has it; every other target (and any build with
// ANOW_DIFF_FORCE_SCALAR defined, the CI fallback-coverage leg) uses the
// portable u64-load path.  Both feed the same bitmask encoder, so the
// encoded bytes are identical either way.
#if !defined(ANOW_DIFF_FORCE_SCALAR) && \
    (defined(__SSE2__) || defined(_M_AMD64) || defined(_M_X64))
#define ANOW_DIFF_SSE2 1
#include <emmintrin.h>
#endif

namespace anow::dsm {

namespace {

constexpr std::size_t kMaskWords = kWordsPerPage / 64;  // 8 × u64 per page
static_assert(kWordsPerPage % 64 == 0);
static_assert(kWordSize == 8, "the scan reads 8-byte words");

constexpr std::size_t kBlockBytes = 64 * kWordSize;  // one mask word's span

/// Phase one: one bit per page word, set when the word differs.  Each
/// 512-byte block is first compared whole with memcmp (dispatched by libc
/// to the host's widest vector unit); only a block that differs is scanned
/// word by word into its mask.  Most blocks of most pages are unchanged.
void scan_changed_words(const std::uint8_t* twin, const std::uint8_t* cur,
                        std::uint64_t mask[kMaskWords]) {
  for (std::size_t blk = 0; blk < kMaskWords; ++blk) {
    const std::uint8_t* a = twin + blk * kBlockBytes;
    const std::uint8_t* b = cur + blk * kBlockBytes;
    if (std::memcmp(a, b, kBlockBytes) == 0) {
      mask[blk] = 0;
      continue;
    }
    std::uint64_t m = 0;
#ifdef ANOW_DIFF_SSE2
    for (std::size_t j = 0; j < 64; j += 2) {
      const __m128i va =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + j * kWordSize));
      const __m128i vb =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j * kWordSize));
      const int eq = _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb));
      m |= static_cast<std::uint64_t>((eq & 0xff) != 0xff) << j;
      m |= static_cast<std::uint64_t>((eq >> 8) != 0xff) << (j + 1);
    }
#else
    for (std::size_t j = 0; j < 64; ++j) {
      std::uint64_t wa, wb;
      std::memcpy(&wa, a + j * kWordSize, kWordSize);
      std::memcpy(&wb, b + j * kWordSize, kWordSize);
      m |= static_cast<std::uint64_t>(wa != wb) << j;
    }
#endif
    mask[blk] = m;
  }
}

/// Exact encoded size from the mask: 4 header bytes per run plus 8 payload
/// bytes per changed word.  Run starts are 1-bits whose predecessor bit
/// (carrying across block boundaries) is 0.
std::size_t encoded_size(const std::uint64_t mask[kMaskWords]) {
  std::size_t changed = 0;
  std::size_t runs = 0;
  std::uint64_t carry = 0;  // bit 63 of the previous block
  for (std::size_t blk = 0; blk < kMaskWords; ++blk) {
    const std::uint64_t m = mask[blk];
    // Skipped rather than counted: without -mpopcnt each popcount is a
    // libgcc call.
    if (m == 0) {
      carry = 0;
      continue;
    }
    changed += static_cast<std::size_t>(std::popcount(m));
    runs += static_cast<std::size_t>(std::popcount(m & ~((m << 1) | carry)));
    carry = m >> 63;
  }
  return runs * 4 + changed * kWordSize;
}

/// Phase two: walk the mask's runs with ctz and encode them into `out`
/// (which must hold exactly encoded_size() bytes).  Returns one past the
/// last byte written.
std::uint8_t* encode_runs(const std::uint64_t mask[kMaskWords],
                          const std::uint8_t* cur, std::uint8_t* out) {
  const auto emit = [&](std::size_t start, std::size_t len) {
    out[0] = static_cast<std::uint8_t>(start & 0xff);
    out[1] = static_cast<std::uint8_t>(start >> 8);
    out[2] = static_cast<std::uint8_t>(len & 0xff);
    out[3] = static_cast<std::uint8_t>(len >> 8);
    out += 4;
    if (len == 1) {
      // The dominant false-sharing shape: a fixed-size copy the compiler
      // inlines instead of a variable-length memcpy call.
      std::memcpy(out, cur + start * kWordSize, kWordSize);
      out += kWordSize;
    } else {
      const std::size_t byte_len = len * kWordSize;
      std::memcpy(out, cur + start * kWordSize, byte_len);
      out += byte_len;
    }
  };
  // Open run, accumulated across block boundaries.
  std::size_t run_start = kWordsPerPage;
  std::size_t run_end = kWordsPerPage;
  for (std::size_t blk = 0; blk < kMaskWords; ++blk) {
    std::uint64_t m = mask[blk];
    while (m != 0) {
      const int bit = std::countr_zero(m);
      const int ones = std::countr_one(m >> bit);
      const std::size_t start = blk * 64 + static_cast<std::size_t>(bit);
      if (start == run_end) {
        run_end += static_cast<std::size_t>(ones);  // spans a block boundary
      } else {
        if (run_start < kWordsPerPage) emit(run_start, run_end - run_start);
        run_start = start;
        run_end = start + static_cast<std::size_t>(ones);
      }
      const int consumed = bit + ones;
      m = consumed >= 64 ? 0 : (m >> consumed) << consumed;
    }
  }
  if (run_start < kWordsPerPage) emit(run_start, run_end - run_start);
  return out;
}

}  // namespace

DiffBytes make_diff(const std::uint8_t* twin, const std::uint8_t* new_page) {
  std::uint64_t mask[kMaskWords];
  scan_changed_words(twin, new_page, mask);
  const std::size_t size = encoded_size(mask);
  DiffBytes out(size);
  if (size != 0) encode_runs(mask, new_page, out.data());
  return out;
}

DiffView make_diff_arena(const std::uint8_t* twin,
                         const std::uint8_t* new_page, util::Arena& arena) {
  std::uint64_t mask[kMaskWords];
  scan_changed_words(twin, new_page, mask);
  const std::size_t size = encoded_size(mask);
  if (size == 0) return {};
  std::uint8_t* out = arena.alloc(size);
  encode_runs(mask, new_page, out);
  return {out, size};
}

namespace {

bool word_equal_scalar(const std::uint8_t* a, const std::uint8_t* b) {
  std::uint32_t a0, a1, b0, b1;
  std::memcpy(&a0, a, 4);
  std::memcpy(&a1, a + 4, 4);
  std::memcpy(&b0, b, 4);
  std::memcpy(&b1, b + 4, 4);
  return a0 == b0 && a1 == b1;
}

void put_u16(DiffBytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

}  // namespace

DiffBytes make_diff_scalar(const std::uint8_t* twin,
                           const std::uint8_t* new_page) {
  DiffBytes out;
  std::size_t w = 0;
  while (w < kWordsPerPage) {
    // Find the next modified word.
    while (w < kWordsPerPage &&
           word_equal_scalar(twin + w * kWordSize, new_page + w * kWordSize)) {
      ++w;
    }
    if (w == kWordsPerPage) break;
    if (out.capacity() == 0) {
      out.reserve(4 + kPageSize - w * kWordSize);
    }
    const std::size_t run_start = w;
    while (w < kWordsPerPage &&
           !word_equal_scalar(twin + w * kWordSize,
                              new_page + w * kWordSize)) {
      ++w;
    }
    const std::size_t run_len = w - run_start;
    put_u16(out, static_cast<std::uint16_t>(run_start));
    put_u16(out, static_cast<std::uint16_t>(run_len));
    const std::size_t byte_start = run_start * kWordSize;
    const std::size_t byte_len = run_len * kWordSize;
    out.insert(out.end(), new_page + byte_start,
               new_page + byte_start + byte_len);
  }
  out.shrink_to_fit();
  return out;
}

void apply_diff(std::uint8_t* page, const std::uint8_t* diff,
                std::size_t size) {
  const std::uint8_t* p = diff;
  const std::uint8_t* const end = diff + size;
  while (p < end) {
    ANOW_CHECK_MSG(end - p >= 4, "truncated diff header");
    const std::size_t word_offset =
        p[0] | (static_cast<std::size_t>(p[1]) << 8);
    const std::size_t word_count =
        p[2] | (static_cast<std::size_t>(p[3]) << 8);
    p += 4;
    ANOW_CHECK_MSG(word_count > 0 && word_offset + word_count <= kWordsPerPage,
                   "diff run out of page bounds");
    const std::size_t byte_len = word_count * kWordSize;
    ANOW_CHECK_MSG(static_cast<std::size_t>(end - p) >= byte_len,
                   "truncated diff data");
    if (word_count == 1) {
      std::memcpy(page + word_offset * kWordSize, p, kWordSize);
    } else {
      std::memcpy(page + word_offset * kWordSize, p, byte_len);
    }
    p += byte_len;
  }
}

std::size_t diff_run_count(const DiffBytes& diff) {
  std::size_t pos = 0;
  std::size_t runs = 0;
  while (pos < diff.size()) {
    ANOW_CHECK_MSG(pos + 4 <= diff.size(), "truncated diff header");
    const std::size_t word_offset =
        diff[pos] | (static_cast<std::size_t>(diff[pos + 1]) << 8);
    const std::size_t word_count =
        diff[pos + 2] | (static_cast<std::size_t>(diff[pos + 3]) << 8);
    pos += 4;
    ANOW_CHECK_MSG(word_count > 0 && word_offset + word_count <= kWordsPerPage,
                   "diff run out of page bounds");
    ANOW_CHECK_MSG(pos + word_count * kWordSize <= diff.size(),
                   "truncated diff data");
    pos += word_count * kWordSize;
    ++runs;
  }
  return runs;
}

bool diff_is_valid(const DiffBytes& diff) {
  std::size_t pos = 0;
  std::size_t prev_end = 0;
  while (pos < diff.size()) {
    if (pos + 4 > diff.size()) return false;
    const std::size_t word_offset =
        diff[pos] | (static_cast<std::size_t>(diff[pos + 1]) << 8);
    const std::size_t word_count =
        diff[pos + 2] | (static_cast<std::size_t>(diff[pos + 3]) << 8);
    pos += 4;
    if (word_count == 0) return false;
    if (word_offset < prev_end) return false;  // runs must be ordered
    if (word_offset + word_count > kWordsPerPage) return false;
    if (pos + word_count * kWordSize > diff.size()) return false;
    pos += word_count * kWordSize;
    prev_end = word_offset + word_count;
  }
  return pos == diff.size();
}

}  // namespace anow::dsm
