#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/arena.h"
#include "common/date.h"
#include "common/rng.h"
#include "common/status.h"

namespace bufferdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err(Status::InvalidArgument("bad"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArenaTest, AllocationsAreAligned) {
  Arena arena;
  for (size_t size : {1u, 3u, 7u, 8u, 13u, 100u}) {
    uint8_t* p = arena.Allocate(size);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
  }
}

TEST(ArenaTest, AllocationsDoNotOverlap) {
  Arena arena(128);  // Small chunks to force growth.
  std::vector<std::pair<uint8_t*, size_t>> blocks;
  for (int i = 0; i < 100; ++i) {
    size_t size = 1 + static_cast<size_t>(i * 7 % 60);
    uint8_t* p = arena.Allocate(size);
    std::memset(p, i, size);
    blocks.emplace_back(p, size);
  }
  for (int i = 0; i < 100; ++i) {
    for (size_t b = 0; b < blocks[i].second; ++b) {
      EXPECT_EQ(blocks[i].first[b], static_cast<uint8_t>(i));
    }
  }
}

TEST(ArenaTest, LargeAllocationExceedingChunk) {
  Arena arena(64);
  uint8_t* p = arena.Allocate(10000);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xab, 10000);
  EXPECT_GE(arena.bytes_allocated(), 10000u);
}

TEST(ArenaTest, ResetReleasesAccounting) {
  Arena arena;
  arena.Allocate(100);
  EXPECT_GT(arena.bytes_allocated(), 0u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_NE(arena.Allocate(8), nullptr);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(3, 17);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 17);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 15u);  // All values hit.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(77);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(DateTest, EpochIsZero) { EXPECT_EQ(MakeDate(1970, 1, 1), 0); }

TEST(DateTest, KnownDates) {
  EXPECT_EQ(MakeDate(1970, 1, 2), 1);
  EXPECT_EQ(MakeDate(1969, 12, 31), -1);
  EXPECT_EQ(MakeDate(2000, 3, 1) - MakeDate(2000, 2, 28), 2);  // Leap year.
  EXPECT_EQ(MakeDate(1900, 3, 1) - MakeDate(1900, 2, 28), 1);  // Not leap.
}

TEST(DateTest, RoundTripYmd) {
  for (int64_t days : {0L, 1L, -1L, 8035L, 10592L, -719468L}) {
    int y, m, d;
    DateToYmd(days, &y, &m, &d);
    EXPECT_EQ(MakeDate(y, m, d), days);
  }
}

TEST(DateTest, RoundTripAllTpchDates) {
  // Every day in the TPC-H range survives a format/parse round trip.
  for (int64_t days = MakeDate(1992, 1, 1); days <= MakeDate(1998, 12, 31);
       ++days) {
    auto parsed = ParseDate(DateToString(days));
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(*parsed, days);
  }
}

TEST(DateTest, FormatsIso) {
  EXPECT_EQ(DateToString(MakeDate(1998, 9, 2)), "1998-09-02");
}

TEST(DateTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseDate("not a date").ok());
  EXPECT_FALSE(ParseDate("1998-13-02").ok());
  EXPECT_FALSE(ParseDate("1998-00-02").ok());
  EXPECT_FALSE(ParseDate("1998-01-40").ok());
  // Years past four digits, found by sql_fuzz_test: MakeDate's int
  // arithmetic overflowed on the way to an answer.
  EXPECT_FALSE(ParseDate("-2147483648-01-01").ok());
  EXPECT_FALSE(ParseDate("-1-01-01").ok());
  EXPECT_FALSE(ParseDate("10000-01-01").ok());
  // A year too long for int: reading it through int truncated it to 1998.
  EXPECT_FALSE(ParseDate("4294969294-01-01").ok());
  EXPECT_FALSE(ParseDate("99999999999999999999-01-01").ok());
  // Text after the day, and a day past its month's end.
  EXPECT_FALSE(ParseDate("1998-09-02 and then some").ok());
  EXPECT_FALSE(ParseDate("1998-02-31").ok());
  EXPECT_FALSE(ParseDate("1998-04-31").ok());
  EXPECT_FALSE(ParseDate("1998-09").ok());
  EXPECT_FALSE(ParseDate("").ok());
  auto leap_day = ParseDate("1996-02-29");
  ASSERT_TRUE(leap_day.ok());
  EXPECT_EQ(*leap_day, MakeDate(1996, 2, 29));
  EXPECT_FALSE(ParseDate("1997-02-29").ok());
  auto year_zero = ParseDate("0000-03-01");
  ASSERT_TRUE(year_zero.ok());
  EXPECT_EQ(*year_zero, -719468);
}

}  // namespace
}  // namespace bufferdb
