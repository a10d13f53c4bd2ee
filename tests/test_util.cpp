#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/text.h"
#include "util/thread_pool.h"

namespace tsyn::util {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (int bound : {1, 2, 3, 10, 1000}) {
    for (int i = 0; i < 200; ++i)
      EXPECT_LT(r.next_below(bound), static_cast<std::uint64_t>(bound));
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng r(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = r.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng r(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.next_bool(0.5);
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(Rng, ShufflePermutes) {
  Rng r(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer-name"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

TEST(Fmt, Decimals) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt_factor(1.5), "1.50x");
  EXPECT_EQ(fmt_pct(0.973, 1), "97.3%");
}

TEST(Text, SplitDropsEmptyTokens) {
  const auto tokens = split("a  b\tc ", " \t");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[2], "c");
}

TEST(Text, SplitEmptyInput) { EXPECT_TRUE(split("", " ").empty()); }

TEST(Text, Trim) {
  EXPECT_EQ(trim("  hello \n"), "hello");
  EXPECT_EQ(trim("\t\t"), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Text, StartsWith) {
  EXPECT_TRUE(starts_with("input x", "input"));
  EXPECT_FALSE(starts_with("in", "input"));
}

TEST(Text, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Fnv1a, MatchesReferenceVectors) {
  // Standard FNV-1a 64-bit vectors.
  EXPECT_EQ(fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a, LengthFramingSeparatesAdjacentStrings) {
  const auto ab_c = Fnv1a().str("ab").str("c").value();
  const auto a_bc = Fnv1a().str("a").str("bc").value();
  EXPECT_NE(ab_c, a_bc);
}

TEST(Fnv1a, HexIsSixteenLowercaseDigits) {
  const std::string h = Fnv1a().str("x").hex();
  EXPECT_EQ(h.size(), 16u);
  for (char c : h)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << h;
  EXPECT_EQ(Fnv1a::hash_hex(0), "0000000000000000");
  EXPECT_EQ(Fnv1a::hash_hex(0xdeadbeefull), "00000000deadbeef");
}

TEST(ThreadPool, ZeroTasksReturnsImmediately) {
  ThreadPool pool(4);
  int calls = 0;
  pool.run(0, 4, [&](int, int) { ++calls; });
  pool.run(-3, 4, [&](int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, MoreThreadsThanTasks) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  std::vector<std::atomic<int>> seen(3);
  pool.run(3, 8, [&](int item, int slot) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, 8);
    seen[item].fetch_add(1);
    sum.fetch_add(item);
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2);
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);  // each item exactly once
}

TEST(ThreadPool, TaskThrowPropagatesWithoutDeadlock) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run(64, 4,
               [&](int item, int) {
                 if (item == 17) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // The pool must survive a throwing batch: workers are parked again and
  // the next run completes normally.
  std::atomic<int> done{0};
  pool.run(32, 4, [&](int, int) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, ThrowOnCallerThreadAlsoRecovers) {
  ThreadPool pool(4);
  // Item 0 is claimed by some slot (often the caller); whichever thread
  // throws, run() must rethrow exactly once on the caller.
  EXPECT_THROW(pool.run(1, 4, [&](int, int) { throw std::logic_error("x"); }),
               std::logic_error);
  int calls = 0;
  pool.run(2, 1, [&](int, int) { ++calls; });  // inline degenerate path
  EXPECT_EQ(calls, 2);
}

TEST(ThreadPool, ReentrantRunDoesNotDeadlock) {
  // A pool task that submits follow-on work to the same pool (an engine
  // run from a pool task that itself calls ThreadPool::shared().run). The
  // caller always participates in its own batch, so the nested run
  // completes even with every worker busy.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.run(4, 2, [&](int, int) {
    pool.run(8, 2, [&](int, int) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ThreadPool, ReentrantRunOnSharedPool) {
  // Same property on the process-wide pool the subsystems actually share,
  // nested two levels deep.
  std::atomic<int> leaves{0};
  ThreadPool::shared().run(3, 4, [&](int, int) {
    ThreadPool::shared().run(3, 4, [&](int, int) {
      ThreadPool::shared().run(2, 2, [&](int, int) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 3 * 3 * 2);
}

TEST(ThreadPool, ReentrantThrowStillPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run(2, 2,
                        [&](int, int) {
                          pool.run(4, 2, [&](int item, int) {
                            if (item == 3) throw std::runtime_error("inner");
                          });
                        }),
               std::runtime_error);
  // And the pool still works afterwards.
  std::atomic<int> done{0};
  pool.run(16, 2, [&](int, int) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 16);
}

// ---- JSON reader ----

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").boolean);
  EXPECT_FALSE(Json::parse("false").boolean);
  EXPECT_DOUBLE_EQ(Json::parse("42").number, 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").number, -350.0);
  EXPECT_EQ(Json::parse("\"hi\"").str, "hi");
}

TEST(Json, ParsesNestedStructure) {
  const Json doc = Json::parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": "x"}, "e": null})");
  ASSERT_TRUE(doc.is_object());
  const Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->arr.size(), 3u);
  EXPECT_DOUBLE_EQ(a->arr[1].number, 2.0);
  EXPECT_TRUE(a->arr[2].find("b")->boolean);
  EXPECT_EQ(doc.find("c")->find("d")->str, "x");
  EXPECT_TRUE(doc.find("e")->is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, NumberOrFallsBack) {
  const Json doc = Json::parse(R"({"n": 7, "s": "x"})");
  EXPECT_DOUBLE_EQ(doc.number_or("n", -1), 7.0);
  EXPECT_DOUBLE_EQ(doc.number_or("s", -1), -1.0);   // wrong type
  EXPECT_DOUBLE_EQ(doc.number_or("gone", -1), -1.0);  // missing
}

TEST(Json, DecodesStringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\nd")").str, "a\"b\\c\nd");
  EXPECT_EQ(Json::parse("\"A\\u00e9\"").str, "A\xc3\xa9");  // \u -> UTF-8
}

TEST(Json, KeepsObjectOrder) {
  const Json doc = Json::parse(R"({"z": 1, "a": 2})");
  ASSERT_EQ(doc.obj.size(), 2u);
  EXPECT_EQ(doc.obj[0].first, "z");
  EXPECT_EQ(doc.obj[1].first, "a");
}

TEST(Json, MalformedInputThrowsWithOffset) {
  EXPECT_THROW(Json::parse(""), JsonParseError);
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1, ]"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW(Json::parse("tru"), JsonParseError);
  EXPECT_THROW(Json::parse("1 2"), JsonParseError);  // trailing content
  try {
    Json::parse("[1, ");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_GT(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, ParseErrorCarriesLineAndColumn) {
  // Error on line 3: "designs" value is not valid JSON.
  try {
    Json::parse("{\n  \"schema\": 1,\n  \"designs\": oops\n}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 14u);
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("column 14"), std::string::npos) << what;
    // The context snippet shows the offending line with a caret under it.
    EXPECT_NE(what.find("\"designs\": oops"), std::string::npos) << what;
    EXPECT_NE(what.find('^'), std::string::npos) << what;
  }
}

TEST(Json, ParseErrorOnFirstLine) {
  try {
    Json::parse("nope");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 1u);
    EXPECT_EQ(e.column(), 1u);
  }
}

TEST(Json, ParseErrorAtEndOfInput) {
  // Truncated document: the error points one past the last character.
  try {
    Json::parse("{\"a\": [1,\n2,\n");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.column(), 1u);
    EXPECT_EQ(e.offset(), 13u);
  }
}

TEST(Json, ParseErrorContextClipsLongLines) {
  // A very long single-line document must not dump the whole line into
  // the message; the snippet is clipped around the error position.
  std::string doc = "{\"key\": \"";
  doc += std::string(500, 'x');
  doc += "\", \"oops\": }";
  try {
    Json::parse(doc);
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    const std::string what = e.what();
    EXPECT_LT(what.size(), 300u) << what;
    EXPECT_NE(what.find("\"oops\": }"), std::string::npos) << what;
  }
}

TEST(Json, ParseErrorColumnCountsTabsAsOne) {
  try {
    Json::parse("{\n\t\"a\": !\n}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_EQ(e.column(), 7u);  // tab is one column, like offsets
  }
}

TEST(Json, RoundTripsBenchStyleDocument) {
  const Json doc = Json::parse(R"({
    "schema": 2, "seed": 24301,
    "ppsfp": [{"circuit": "diffeq", "gates": 1714, "serial_ms": 12.25}]
  })");
  EXPECT_DOUBLE_EQ(doc.number_or("schema", 0), 2.0);
  const Json* rows = doc.find("ppsfp");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->arr.size(), 1u);
  EXPECT_EQ(rows->arr[0].find("circuit")->str, "diffeq");
  EXPECT_DOUBLE_EQ(rows->arr[0].number_or("serial_ms", 0), 12.25);
}

}  // namespace
}  // namespace tsyn::util
