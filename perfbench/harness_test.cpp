// Unit tests of the perfbench harness: percentile ranks and their
// thin-tail refusal, the exactly-once ledger, open-loop lateness
// (latency counted from the due time, not the send time), the
// closed/open loop drivers and the per-slice phase sampler.
#include "harness.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

using std::chrono::milliseconds;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnOneToN) {
  const auto samples = one_to(2000);
  EXPECT_EQ(tail_percentile(samples, 0.5), 1000.0);
  EXPECT_EQ(tail_percentile(samples, 0.99), 1980.0);
  EXPECT_EQ(tail_percentile(samples, 0.9), 1800.0);
}

TEST(Percentile, IgnoresInputOrder) {
  auto samples = one_to(1500);
  std::reverse(samples.begin(), samples.end());
  EXPECT_EQ(tail_percentile(samples, 0.99), 1485.0);
  EXPECT_EQ(median(samples), 750.0);
}

TEST(Percentile, RequiresTenSamplesBeyondTheRank) {
  // 1000 samples: p99 is rank 990, with exactly 10 samples after it.
  EXPECT_EQ(tail_percentile(one_to(1000), 0.99), 990.0);
  // 999 samples: rank 990 leaves only 9 beyond — refused.
  EXPECT_FALSE(tail_percentile(one_to(999), 0.99).has_value());
  EXPECT_FALSE(tail_percentile(one_to(50), 0.99).has_value());
  EXPECT_FALSE(tail_percentile({}, 0.5).has_value());
}

TEST(Percentile, HighestSupportedQuantileLeavesTenBeyond) {
  const double q = highest_supported_quantile(200);
  EXPECT_DOUBLE_EQ(q, 0.95);
  EXPECT_EQ(tail_percentile(one_to(200), q), 190.0);
  EXPECT_EQ(highest_supported_quantile(10), 0.0);
}

TEST(Ledger, ClassifiesOkLateFailedAndRefused) {
  const auto t0 = BenchClock::now();
  Ledger ledger(8, milliseconds(25));
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ledger.open(t0).has_value());
  ledger.resolve(0, Outcome::kOk, t0 + milliseconds(3));
  ledger.resolve(1, Outcome::kOk, t0 + milliseconds(40));  // late ok
  ledger.resolve(2, Outcome::kFailed, t0 + milliseconds(1));
  ledger.refuse(3, t0);
  EXPECT_EQ(ledger.outstanding(), 0);
  const auto s = ledger.summarize();
  EXPECT_EQ(s.attempted, 4u);
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.late_ok, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.refused, 1u);
  EXPECT_TRUE(s.exactly_once());
  EXPECT_DOUBLE_EQ(s.attained_ratio(), 0.25);
  // A failure or refusal counts as missing the limit.
  std::vector<double> latencies = s.latency_ms;
  std::sort(latencies.begin(), latencies.end());
  EXPECT_NEAR(latencies[0], 3.0, 1e-6);
  EXPECT_NEAR(latencies[1], 25.0, 1e-6);
  EXPECT_NEAR(latencies[2], 25.0, 1e-6);
  EXPECT_NEAR(latencies[3], 40.0, 1e-6);
}

TEST(Ledger, FlagsDuplicateSilentAndPostRefusalCallbacks) {
  const auto t0 = BenchClock::now();
  Ledger ledger(8, milliseconds(25));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ledger.open(t0).has_value());
  ledger.resolve(0, Outcome::kOk, t0);
  ledger.resolve(0, Outcome::kFailed, t0);  // duplicate
  ledger.refuse(1, t0);
  ledger.resolve(1, Outcome::kOk, t0);  // callback after a door refusal
  // request 2 never resolves
  EXPECT_EQ(ledger.outstanding(), 1);
  EXPECT_FALSE(ledger.wait_settled(milliseconds(1)));
  const auto s = ledger.summarize();
  EXPECT_EQ(s.ok, 1u);  // the duplicate did not count twice
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.duplicates, 1u);
  EXPECT_EQ(s.resolved_after_refusal, 1u);
  EXPECT_EQ(s.unresolved, 1u);
  EXPECT_FALSE(s.exactly_once());
}

TEST(Ledger, CountsOkRepliesLateOnesIncluded) {
  const auto t0 = BenchClock::time_point{} + std::chrono::seconds(100);
  Ledger ledger(4, milliseconds(25));
  const Outcome outcomes[] = {Outcome::kOk, Outcome::kFailed, Outcome::kOk};
  const int at_ms[] = {1, 2, 500};  // the last ok is late
  for (int i = 0; i < 3; ++i) {
    const auto index = ledger.open(t0);
    ledger.resolve(*index, outcomes[i], t0 + milliseconds(at_ms[i]));
  }
  ledger.resolve(0, Outcome::kOk, t0 + milliseconds(3));  // duplicate
  EXPECT_EQ(ledger.ok_replies(), 2u);
  EXPECT_EQ(ledger.failures(), 1u);
}

TEST(Slices, RatePerSliceAndCpuPerOkReply) {
  const auto t0 = BenchClock::time_point{} + std::chrono::seconds(100);
  const std::vector<PhaseSample> samples = {
      {t0, 10, 1.0},
      {t0 + milliseconds(100), 110, 1.02},  // 100 ok, 20 ms CPU
      {t0 + milliseconds(300), 110, 1.03},  // none ok
      {t0 + milliseconds(400), 160, 1.04},  // 50 ok, 10 ms CPU
  };
  const SliceFigures figures = slice_figures(samples);
  ASSERT_EQ(figures.ok_per_s.size(), 3u);
  EXPECT_NEAR(figures.ok_per_s[0], 1000.0, 1e-6);
  EXPECT_NEAR(figures.ok_per_s[1], 0.0, 1e-6);
  EXPECT_NEAR(figures.ok_per_s[2], 500.0, 1e-6);
  ASSERT_EQ(figures.cpu_us_per_ok.size(), 2u);
  EXPECT_NEAR(figures.cpu_us_per_ok[0], 200.0, 1e-6);
  EXPECT_NEAR(figures.cpu_us_per_ok[1], 200.0, 1e-6);
}

TEST(Slices, SamplerReadsAtEachPeriodAndOnStop) {
  std::uint64_t reads = 0;
  const auto start = BenchClock::now();
  PhaseSampler sampler(milliseconds(5), [&reads] {
    return PhaseSample{BenchClock::now(), reads++, 0.0};
  });
  std::this_thread::sleep_for(milliseconds(52));
  const auto samples = sampler.stop();
  // The first read, at most one per period passed, and the last on stop().
  const auto periods = static_cast<std::size_t>(
      (BenchClock::now() - start) / milliseconds(5));
  EXPECT_GE(samples.size(), 2u);
  EXPECT_LE(samples.size(), periods + 2);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].ok, samples[i - 1].ok + 1);
    EXPECT_GE(samples[i].at, samples[i - 1].at);
  }
  EXPECT_EQ(sampler.stop().size(), samples.size());  // stopping twice
}

TEST(Slices, LeastStealMedianKeepsCleanSlicesAndAMinimumShare) {
  const std::vector<double> values = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  const std::vector<double> steal = {0.0,  0.1, 0.0, 0.2, 0.0,
                                     0.5,  0.01, 0.3, 0.4, 0.05};
  // The four slices at or below 3% steal: 10, 30, 50, 70.
  EXPECT_DOUBLE_EQ(least_steal_median(values, steal, 0.03, 0.2), 30.0);
  // Half the slices at least: the next least stolen (100) joins.
  EXPECT_DOUBLE_EQ(least_steal_median(values, steal, 0.03, 0.5), 50.0);
  // No steal at all: every slice counts.
  EXPECT_DOUBLE_EQ(
      least_steal_median(values, std::vector<double>(10, 0.0), 0.03, 0.2),
      50.0);
  EXPECT_DOUBLE_EQ(least_steal_median({}, {}, 0.03, 0.2), 0.0);
}

TEST(Percentile, QuantileIsNearestRankAndMedianTheLowerMiddle) {
  EXPECT_DOUBLE_EQ(quantile(one_to(10), 0.1), 1.0);
  EXPECT_DOUBLE_EQ(quantile(one_to(10), 0.9), 9.0);
  EXPECT_DOUBLE_EQ(quantile(one_to(10), 1.0), 10.0);
  EXPECT_DOUBLE_EQ(median(one_to(10)), 5.0);
  EXPECT_DOUBLE_EQ(median(one_to(9)), 5.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Ledger, RefusesToOpenBeyondCapacity) {
  Ledger ledger(2, milliseconds(1));
  EXPECT_TRUE(ledger.open(BenchClock::now()).has_value());
  EXPECT_TRUE(ledger.open(BenchClock::now()).has_value());
  EXPECT_FALSE(ledger.open(BenchClock::now()).has_value());
}

TEST(OpenLoop, DueTimesFollowTheRateNotTheSends) {
  const auto t0 = BenchClock::time_point{} + std::chrono::seconds(100);
  OpenLoopSchedule schedule(t0, 1000.0);
  EXPECT_EQ(schedule.due(0), t0);
  EXPECT_EQ(schedule.due(5), t0 + milliseconds(5));
  EXPECT_EQ(schedule.due(1000), t0 + std::chrono::seconds(1));
  EXPECT_EQ(schedule.count_before(t0 + milliseconds(10)), 10u);
  EXPECT_EQ(schedule.count_before(t0), 0u);
}

TEST(OpenLoop, LatenessIsMeasuredFromTheDueTime) {
  const auto t0 = BenchClock::time_point{} + std::chrono::seconds(100);
  OpenLoopSchedule schedule(t0, 1000.0);
  EXPECT_EQ(schedule.lateness(3, t0 + milliseconds(2)),
            BenchClock::duration::zero());  // early is not negative
  EXPECT_EQ(schedule.lateness(3, t0 + milliseconds(8)), milliseconds(5));
}

TEST(OpenLoop, AStallCountsAgainstEveryRequestItDelays) {
  // The sender stalls 20 ms at request 0; requests 0..19 go out late in
  // a burst and each completes 1 ms after its send. Timed from the due
  // time, the stall shows on all of them (coordinated omission).
  const auto t0 = BenchClock::time_point{} + std::chrono::seconds(100);
  OpenLoopSchedule schedule(t0, 1000.0);
  Ledger ledger(32, milliseconds(10));
  const auto resumed = t0 + milliseconds(20);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto index = ledger.open(schedule.due(i));
    ASSERT_TRUE(index.has_value());
    ledger.resolve(*index, Outcome::kOk, resumed + milliseconds(1));
  }
  const auto s = ledger.summarize();
  EXPECT_EQ(s.ok + s.late_ok, 20u);
  EXPECT_EQ(s.late_ok, 11u);  // due at 0..10 ms, done at 21 ms
  EXPECT_NEAR(*std::max_element(s.latency_ms.begin(), s.latency_ms.end()),
              21.0, 1e-6);
  EXPECT_NEAR(*std::min_element(s.latency_ms.begin(), s.latency_ms.end()),
              2.0, 1e-6);
}

TEST(OpenLoop, WindowedFiguresTakeTheMedianWindow) {
  const auto t0 = BenchClock::time_point{} + std::chrono::seconds(100);
  OpenLoopSchedule schedule(t0, 1000.0);
  Ledger ledger(6000, milliseconds(100));
  // Five 1000-request windows at 2 ms; the middle one stalls at 50 ms.
  for (std::size_t i = 0; i < 5000; ++i) {
    const auto index = ledger.open(schedule.due(i));
    const bool stalled = i >= 2000 && i < 3000;
    ledger.resolve(*index, Outcome::kOk,
                   schedule.due(i) + milliseconds(stalled ? 50 : 2));
  }
  const auto figures = latency_figures(ledger.summarize(5));
  EXPECT_NEAR(figures.p50_ms, 2.0, 1e-6);
  EXPECT_NEAR(figures.p99_ms, 2.0, 1e-6);
  EXPECT_EQ(figures.samples, 5000u);
  EXPECT_DOUBLE_EQ(figures.quantile, 0.99);
}

TEST(OpenLoop, WindowCountKeepsAThousandSamplesPerWindow) {
  EXPECT_EQ(window_count(500), 1u);
  EXPECT_EQ(window_count(2199), 1u);
  EXPECT_EQ(window_count(21000), 19u);
  EXPECT_EQ(window_count(1000000), 50u);
}

TEST(OpenLoop, ThinPhaseReportsTheHighestSupportedQuantile) {
  const auto t0 = BenchClock::now();
  Ledger ledger(300, milliseconds(100));
  for (std::size_t i = 0; i < 200; ++i) {
    const auto index = ledger.open(t0);
    ledger.resolve(*index, Outcome::kOk,
                   t0 + std::chrono::microseconds(1000 * (i + 1)));
  }
  const auto figures = latency_figures(ledger.summarize(5));
  EXPECT_DOUBLE_EQ(figures.quantile, 0.95);
  EXPECT_NEAR(figures.p99_ms, 190.0, 1e-6);
}

TEST(Drivers, ClosedLoopStopsAtMaxRequestsOrDeadline) {
  Ledger ledger(100, milliseconds(25));
  int prepared = 0;
  auto send = [&ledger](int, std::size_t index, auto release) {
    ledger.resolve(index, Outcome::kOk, BenchClock::now());
    release();
  };
  drive_closed_loop(ledger, 4, 30, BenchClock::time_point::max(),
                    [&prepared] { return prepared++; }, send);
  EXPECT_EQ(ledger.opened(), 30u);
  EXPECT_EQ(ledger.outstanding(), 0);
  Ledger late(100, milliseconds(25));
  drive_closed_loop(late, 4, 30, BenchClock::now(), [] { return 0; },
                    [&late](int, std::size_t index, auto release) {
                      late.resolve(index, Outcome::kOk, BenchClock::now());
                      release();
                    });
  EXPECT_EQ(late.opened(), 0u);
}

TEST(Drivers, ClosedLoopBacksOffAfterEachFailure) {
  Ledger ledger(100, milliseconds(25));
  const auto start = BenchClock::now();
  drive_closed_loop(ledger, 1, 6, BenchClock::time_point::max(),
                    [] { return 0; },
                    [&ledger](int, std::size_t index, auto release) {
                      ledger.resolve(index, Outcome::kFailed,
                                     BenchClock::now());
                      release();
                    });
  EXPECT_EQ(ledger.failures(), 6u);
  // Sends 2..6 each follow a failure and wait 1 ms first.
  EXPECT_GE(BenchClock::now() - start, milliseconds(5));
}

TEST(Drivers, OpenLoopSendsEveryRequestDueInTheWindow) {
  Ledger ledger(1000, milliseconds(25));
  std::vector<std::size_t> sent;
  const auto late_us = drive_open_loop(
      ledger, 20000.0, 0.01, [] { return 0; },
      [&sent](int, std::size_t index) { sent.push_back(index); });
  ASSERT_EQ(sent.size(), 200u);
  EXPECT_EQ(late_us.size(), 200u);
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(sent[i], i);
  for (const double late : late_us) EXPECT_GE(late, 0.0);
}

}  // namespace
}  // namespace perfbench
