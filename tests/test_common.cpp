// Unit tests for the common vocabulary: Status/Result, strings, ids, clocks.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"

namespace mdsm {
namespace {

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kOk);
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, FactoryHelpersCarryCodeAndMessage) {
  Status status = NotFound("missing widget");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(status.message(), "missing widget");
  EXPECT_EQ(status.to_string(), "not-found: missing widget");
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(NotFound("a"), NotFound("b"));
  EXPECT_FALSE(NotFound("a") == Timeout("a"));
}

TEST(Status, AllCodesHaveNames) {
  for (int code = 0; code <= static_cast<int>(ErrorCode::kInternal); ++code) {
    EXPECT_NE(to_string(static_cast<ErrorCode>(code)), "unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> result = 42;
  EXPECT_TRUE(result.status().ok());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(Result, HoldsError) {
  Result<int> result = InvalidArgument("nope");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(result.value_or(-1), -1);
  EXPECT_THROW((void)result.value(), BadResultAccess);
}

TEST(Result, OkStatusAsErrorIsRewrittenToInternal) {
  Result<int> result = Status::Ok();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInternal);
}

TEST(Result, MoveOutValue) {
  Result<std::string> result = std::string("payload");
  std::string taken = std::move(result).value();
  EXPECT_EQ(taken, "payload");
}

TEST(Strings, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitPreservesEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmptyFields) {
  auto parts = split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, JoinRoundTripsSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, ","), "x,y,z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, IdentifierValidation) {
  EXPECT_TRUE(is_identifier("session-1"));
  EXPECT_TRUE(is_identifier("_x.y"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier("a b"));
}

TEST(Ids, MonotoneAndUniqueAcrossThreads) {
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::uint64_t>> results(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&results, t] {
      for (int i = 0; i < kPerThread; ++i) results[t].push_back(next_id());
    });
  }
  for (auto& thread : threads) thread.join();
  std::set<std::uint64_t> all;
  for (const auto& batch : results) {
    for (auto id : batch) EXPECT_TRUE(all.insert(id).second);
  }
  EXPECT_EQ(all.size(), 4u * kPerThread);
}

TEST(Ids, TaggedIdsCarryPrefix) {
  std::string id = next_tagged_id("sig");
  EXPECT_EQ(id.rfind("sig-", 0), 0u);
}

TEST(SimClock, AdvancesManually) {
  SimClock clock;
  TimePoint t0 = clock.now();
  clock.advance(std::chrono::milliseconds(5));
  EXPECT_EQ((clock.now() - t0), Duration(5000));
  clock.advance(Duration(-100));  // never goes backward
  EXPECT_EQ((clock.now() - t0), Duration(5000));
}

TEST(SimClock, SetNeverMovesBackward) {
  SimClock clock;
  clock.advance(Duration(1000));
  TimePoint t = clock.now();
  clock.set(t - Duration(500));
  EXPECT_EQ(clock.now(), t);
  clock.set(t + Duration(500));
  EXPECT_EQ(clock.now(), t + Duration(500));
}

TEST(Stopwatch, MeasuresSimTime) {
  SimClock clock;
  Stopwatch watch(clock);
  clock.advance(std::chrono::milliseconds(12));
  EXPECT_DOUBLE_EQ(watch.elapsed_ms(), 12.0);
  watch.reset();
  EXPECT_DOUBLE_EQ(watch.elapsed_ms(), 0.0);
}

TEST(SteadyClock, IsMonotone) {
  SteadyClock clock;
  TimePoint a = clock.now();
  TimePoint b = clock.now();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace mdsm
