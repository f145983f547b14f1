// Unit tests for the utility layer: checks, rng, stats, table, options,
// and the bump arena behind the hot-path payloads (DESIGN.md §10).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace anow::util {
namespace {

TEST(Check, PassingCheckDoesNothing) { ANOW_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsCheckError) {
  EXPECT_THROW(ANOW_CHECK(false), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    ANOW_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng r(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng r(1);
  EXPECT_THROW(r.next_exponential(0.0), CheckError);
}

TEST(Stats, CounterStartsAtZeroAndAccumulates) {
  StatsRegistry s;
  EXPECT_EQ(s.counter_value("x"), 0);
  s.counter("x") += 5;
  s.counter("x") += 2;
  EXPECT_EQ(s.counter_value("x"), 7);
}

TEST(Stats, AccumAccumulates) {
  StatsRegistry s;
  s.accum("t") += 1.5;
  s.accum("t") += 2.5;
  EXPECT_DOUBLE_EQ(s.accum_value("t"), 4.0);
}

TEST(Stats, SnapshotDelta) {
  StatsRegistry s;
  s.counter("a") = 10;
  auto before = s.snapshot();
  s.counter("a") += 7;
  s.counter("b") = 3;
  auto delta = s.snapshot().delta_since(before);
  EXPECT_EQ(delta.counter("a"), 7);
  EXPECT_EQ(delta.counter("b"), 3);
  EXPECT_EQ(delta.counter("missing"), 0);
}

TEST(Stats, SnapshotDeltaCoversAccums) {
  StatsRegistry s;
  s.accum("t") = 1.5;
  auto before = s.snapshot();
  s.accum("t") += 2.0;
  s.accum("u") = 0.25;
  auto delta = s.snapshot().delta_since(before);
  EXPECT_DOUBLE_EQ(delta.accum("t"), 2.0);
  EXPECT_DOUBLE_EQ(delta.accum("u"), 0.25);
  EXPECT_DOUBLE_EQ(delta.accum("missing"), 0.0);
}

TEST(Stats, ClearResets) {
  StatsRegistry s;
  s.counter("a") = 1;
  s.accum("t") = 2.5;
  s.clear();
  EXPECT_EQ(s.counter_value("a"), 0);
  EXPECT_DOUBLE_EQ(s.accum_value("t"), 0.0);
}

TEST(Stats, HandlesSurviveClearAndStayInterned) {
  StatsRegistry s;
  StatsRegistry::Counter* h = s.handle("hot");
  double* a = s.accum_handle("warm");
  *h += 3;
  *a += 1.5;
  EXPECT_EQ(s.counter_value("hot"), 3);
  EXPECT_DOUBLE_EQ(s.accum_value("warm"), 1.5);
  s.clear();  // zeroes in place; the map nodes (and handles) survive
  EXPECT_EQ(*h, 0);
  EXPECT_DOUBLE_EQ(*a, 0.0);
  *h += 7;
  *a += 0.5;
  EXPECT_EQ(s.counter_value("hot"), 7);
  EXPECT_DOUBLE_EQ(s.accum_value("warm"), 0.5);
  // handle() is interning: the same name always yields the same address.
  EXPECT_EQ(s.handle("hot"), h);
  EXPECT_EQ(s.accum_handle("warm"), a);
}

TEST(Summary, MeanMinMaxStddev) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(1.25), 1e-12);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW(s.mean(), CheckError);
}

TEST(Table, FormatsHeadersAndRows) {
  Table t({"App", "Time"});
  t.row().add("Jacobi").add(215.06, 2);
  t.row().add("Gauss").add(243.46, 2);
  std::string out = t.to_string();
  EXPECT_NE(out.find("App"), std::string::npos);
  EXPECT_NE(out.find("215.06"), std::string::npos);
  EXPECT_NE(out.find("Gauss"), std::string::npos);
}

TEST(Table, ThousandsSeparators) {
  EXPECT_EQ(format_thousands(0), "0");
  EXPECT_EQ(format_thousands(999), "999");
  EXPECT_EQ(format_thousands(1000), "1,000");
  EXPECT_EQ(format_thousands(236453), "236,453");
  EXPECT_EQ(format_thousands(-1234567), "-1,234,567");
}

TEST(Table, FormatMb) {
  EXPECT_EQ(format_mb(1024 * 1024), "1.00");
  EXPECT_EQ(format_mb(336148234, 2), "320.58");
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.row().add("x");
  EXPECT_THROW(t.add("y"), CheckError);
}

TEST(Json, ObjectsAndFields) {
  JsonWriter j;
  j.begin_object();
  j.field("name", "jacobi");
  j.field("nodes", 8);
  j.begin_object("inner").field("x", 1.5).end_object();
  j.end_object();
  EXPECT_EQ(j.str(),
            "{\"name\":\"jacobi\",\"nodes\":8,\"inner\":{\"x\":1.5}}");
}

TEST(Json, ArraysOfScalarsAndObjects) {
  JsonWriter j;
  j.begin_object();
  j.begin_array("xs").value(1).value(2.5).value("three").end_array();
  j.begin_array("objs");
  j.begin_object().field("a", 1).end_object();
  j.begin_object().field("b", 2).end_object();
  j.end_array();
  j.end_object();
  EXPECT_EQ(j.str(),
            "{\"xs\":[1,2.5,\"three\"],\"objs\":[{\"a\":1},{\"b\":2}]}");
}

TEST(Json, RootArrayAndNestedArrays) {
  JsonWriter j;
  j.begin_array();
  j.begin_array().value(1).value(2).end_array();
  j.begin_array().end_array();
  j.end_array();
  EXPECT_EQ(j.str(), "[[1,2],[]]");
}

TEST(Json, MisuseThrows) {
  {
    JsonWriter j;
    j.begin_object();
    EXPECT_THROW(j.value(1), CheckError);  // scalar element outside an array
  }
  {
    JsonWriter j;
    j.begin_array();
    EXPECT_THROW(j.field("k", 1), CheckError);  // keyed field inside array
  }
  {
    JsonWriter j;
    j.begin_object();
    EXPECT_THROW(j.str(), CheckError);  // unclosed container
  }
}

TEST(Options, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--nodes=8", "--app=jacobi"};
  Options o(3, argv);
  EXPECT_EQ(o.get_int("nodes", 0), 8);
  EXPECT_EQ(o.get_string("app", ""), "jacobi");
}

TEST(Options, ParsesSeparateValue) {
  const char* argv[] = {"prog", "--nodes", "4"};
  Options o(3, argv);
  EXPECT_EQ(o.get_int("nodes", 0), 4);
}

TEST(Options, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--full"};
  Options o(2, argv);
  EXPECT_TRUE(o.get_bool("full", false));
}

TEST(Options, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Options o(1, argv);
  EXPECT_EQ(o.get_int("nodes", 6), 6);
  EXPECT_DOUBLE_EQ(o.get_double("grace", 3.0), 3.0);
  EXPECT_FALSE(o.get_bool("full", false));
}

TEST(Options, RejectsNonOption) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_EXIT(Options(2, argv), ::testing::ExitedWithCode(2),
              "error: expected --option, got 'oops'");
}

TEST(Options, RejectsBadInteger) {
  const char* argv[] = {"prog", "--nodes=abc"};
  Options o(2, argv);
  EXPECT_EXIT(o.get_int("nodes", 0), ::testing::ExitedWithCode(2),
              "error: option --nodes expects an integer, got 'abc'");
}

TEST(Options, RejectsTrailingGarbageInInteger) {
  const char* argv[] = {"prog", "--nodes=4x"};
  Options o(2, argv);
  EXPECT_EXIT(o.get_int("nodes", 0), ::testing::ExitedWithCode(2),
              "error: option --nodes expects an integer, got '4x'");
}

TEST(Options, IntListParsesAndDefaults) {
  const char* argv[] = {"prog", "--dir-shards=1,4,16"};
  Options o(2, argv);
  EXPECT_EQ(o.get_int_list("dir-shards", {1}, 1), (std::vector<int>{1, 4, 16}));
  EXPECT_EQ(o.get_int_list("scale-nodes", {8, 64}, 1),
            (std::vector<int>{8, 64}));
}

TEST(Options, IntListRejectsBadEntries) {
  // A bad entry, a zero, an empty entry or trailing garbage.
  for (const char* list : {"1,x", "8,abc", "1,0", "4x", "1,,4", "1,"}) {
    const std::string arg = std::string("--dir-shards=") + list;
    const char* argv[] = {"prog", arg.c_str()};
    Options o(2, argv);
    EXPECT_EXIT(o.get_int_list("dir-shards", {1}, 1),
                ::testing::ExitedWithCode(2),
                "error: option --dir-shards expects a comma-separated list "
                "of integers >= 1")
        << list;
  }
}

TEST(Options, AllowOnlyCatchesTypos) {
  const char* argv[] = {"prog", "--nodse=8"};
  Options o(2, argv);
  EXPECT_EXIT(o.allow_only({"nodes"}), ::testing::ExitedWithCode(2),
              "error: unknown option --nodse");
}

TEST(Options, HelpListsAcceptedFlagsAndExitsZero) {
  const char* argv[] = {"/path/to/prog", "--help"};
  Options o(2, argv);
  // The flag list goes to stdout; the death-test matcher only sees stderr.
  EXPECT_EXIT(o.allow_only({"nodes", "size"}), ::testing::ExitedWithCode(0),
              "");
}

TEST(Options, DescribedKeysAreAcceptedAndListedInHelp) {
  const char* argv[] = {"prog", "--engine=home"};
  Options o(2, argv);
  o.describe("engine", "one of {lrc,home}");
  o.allow_only({"nodes"});  // accepts the described key without exiting
  const char* help[] = {"prog", "--help"};
  Options h(2, help);
  h.describe("engine", "one of {lrc,home}");
  EXPECT_EXIT(
      {
        ::dup2(STDERR_FILENO, STDOUT_FILENO);  // the matcher reads stderr
        h.allow_only({"nodes"});
      },
      ::testing::ExitedWithCode(0), "--nodes.*--engine  one of");
}

TEST(Arena, AllocationsAreAlignedDisjointAndWritable) {
  Arena a;
  std::vector<std::pair<std::uint8_t*, std::size_t>> blocks;
  std::size_t sizes[] = {1, 7, 8, 9, 64, 1000, 4096};
  std::uint8_t fill = 1;
  for (std::size_t n : sizes) {
    std::uint8_t* p = a.alloc(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
    std::memset(p, fill, n);
    blocks.emplace_back(p, n);
    ++fill;
  }
  // Every block still holds its fill byte: blocks never overlapped.
  fill = 1;
  for (const auto& [p, n] : blocks) {
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(p[i], fill);
    ++fill;
  }
  std::size_t total = 0;
  for (std::size_t n : sizes) total += n;
  EXPECT_EQ(a.bytes_allocated(), total);
  EXPECT_GE(a.bytes_reserved(), total);
}

TEST(Arena, ResetRecyclesChunksWithoutFreeing) {
  Arena a(/*chunk_bytes=*/256);
  for (int i = 0; i < 10; ++i) a.alloc(100);
  const std::size_t reserved = a.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  a.reset();
  EXPECT_EQ(a.bytes_allocated(), 0u);
  EXPECT_EQ(a.bytes_reserved(), reserved);
  // The second generation fits in the recycled chunks: no new reservation.
  for (int i = 0; i < 10; ++i) a.alloc(100);
  EXPECT_EQ(a.bytes_reserved(), reserved);
}

TEST(Arena, OversizedAllocationGetsItsOwnChunk) {
  Arena a(/*chunk_bytes=*/64);
  std::uint8_t* p = a.alloc(10000);  // far beyond the configured chunk size
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xEE, 10000);
  EXPECT_EQ(p[9999], 0xEE);
  EXPECT_GE(a.bytes_reserved(), 10000u);
}

TEST(Arena, ReleaseDropsAllStorage) {
  Arena a;
  a.alloc(500);
  EXPECT_GT(a.bytes_reserved(), 0u);
  a.release();
  EXPECT_EQ(a.bytes_allocated(), 0u);
  EXPECT_EQ(a.bytes_reserved(), 0u);
  // Still usable afterwards.
  std::uint8_t* p = a.alloc(16);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 16);
}

TEST(Options, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1", "--d=false"};
  Options o(5, argv);
  EXPECT_TRUE(o.get_bool("a", false));
  EXPECT_FALSE(o.get_bool("b", true));
  EXPECT_TRUE(o.get_bool("c", false));
  EXPECT_FALSE(o.get_bool("d", true));
}

}  // namespace
}  // namespace anow::util
