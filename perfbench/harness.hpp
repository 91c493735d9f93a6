// Measurement harness shared by every perfbench workload: nearest-rank
// percentiles that refuse thin tails, an open-loop schedule that times
// each request from when it was due, a per-request ledger that proves
// every submission resolved exactly once, and a phase sampler whose
// slice medians can skip the slices disturbed by CPU steal.
//
// Header-only and free of middleware dependencies so harness_test.cpp
// can exercise it on synthetic timelines.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {

using BenchClock = std::chrono::steady_clock;

inline double to_us(BenchClock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double to_ms(BenchClock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double to_s(BenchClock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Samples a reported percentile needs beyond its rank.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of `samples` (q in (0, 1]): the smallest
/// sample with at least q of all samples at or below it. Returns nullopt
/// when fewer than kMinBeyond samples lie after that rank — a tail
/// percentile read off a handful of samples is noise, not a measurement.
inline std::optional<double> tail_percentile(std::vector<double> samples,
                                             double q) {
  if (samples.empty() || q <= 0.0 || q > 1.0) return std::nullopt;
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Highest percentile of `n` samples that still has kMinBeyond samples
/// after its rank (0 when n is too small for any).
inline double highest_supported_quantile(std::size_t n) {
  if (n <= kMinBeyond) return 0.0;
  return static_cast<double>(n - kMinBeyond) / static_cast<double>(n);
}

/// Nearest-rank q-quantile of `samples` (q in (0, 1]) without the tail
/// check of tail_percentile(); 0 for no samples.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9)),
      1, n);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median (nearest rank, lower middle for even counts); 0 for no samples.
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Fixed-rate arrival schedule. Request i is due at start + i/rate no
/// matter when request i-1 was actually sent, so a stall in the sender
/// or the system shows up as latency on every request it delays.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(BenchClock::time_point start, double rate_per_s)
      : start_(start), rate_(rate_per_s) {
    if (!(rate_per_s > 0.0)) throw std::invalid_argument("rate must be > 0");
  }

  [[nodiscard]] BenchClock::time_point due(std::size_t i) const {
    return start_ + std::chrono::duration_cast<BenchClock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate_));
  }
  /// Requests due strictly before `end`.
  [[nodiscard]] std::size_t count_before(BenchClock::time_point end) const {
    if (end <= start_) return 0;
    return static_cast<std::size_t>(std::ceil(to_s(end - start_) * rate_));
  }
  /// How late a send at `now` is for request i (never negative).
  [[nodiscard]] BenchClock::duration lateness(std::size_t i,
                                              BenchClock::time_point now) const {
    const BenchClock::time_point at = due(i);
    return now > at ? now - at : BenchClock::duration::zero();
  }
  /// Sleep until request i is due; returns the send lateness.
  BenchClock::duration wait(std::size_t i) const {
    std::this_thread::sleep_until(due(i));
    return lateness(i, BenchClock::now());
  }
  [[nodiscard]] BenchClock::time_point start() const noexcept { return start_; }

 private:
  BenchClock::time_point start_;
  double rate_;
};

/// How one submission ended.
enum class Outcome : std::uint8_t {
  kPending = 0,
  kOk,       ///< success reply
  kFailed,   ///< error reply (timeout, execution failure, ...)
  kRefused,  ///< refused at the door: no reply is owed
};

/// Per-request ledger for one phase. The generator thread opens entries
/// in order; completion callbacks resolve them from any thread. Every
/// request is timed from its due time, and an ok reply after the
/// deadline is a late ok — a miss, like a failure or refusal.
class Ledger {
 public:
  Ledger(std::size_t capacity, BenchClock::duration deadline)
      : deadline_(deadline), entries_(new Entry[capacity]),
        capacity_(capacity) {}

  /// Open request `index()` due at `due` (generator thread only).
  /// Returns the entry index, or nullopt when the ledger is full.
  std::optional<std::size_t> open(BenchClock::time_point due) {
    const std::size_t i = opened_.load(std::memory_order_relaxed);
    if (i >= capacity_) return std::nullopt;
    entries_[i].due = due;
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    opened_.store(i + 1, std::memory_order_release);
    return i;
  }

  /// The submit call itself refused request `i`: no callback may follow.
  void refuse(std::size_t i, BenchClock::time_point at) {
    failures_.fetch_add(1, std::memory_order_relaxed);
    Entry& entry = entries_[i];
    entry.done_ns.store(at.time_since_epoch().count(),
                        std::memory_order_relaxed);
    entry.outcome.store(static_cast<std::uint8_t>(Outcome::kRefused),
                        std::memory_order_release);
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// A reply (or local resolution) for request `i` arrived at `at`.
  /// A repeated resolve is recorded as a duplicate, never double-counted.
  void resolve(std::size_t i, Outcome outcome, BenchClock::time_point at) {
    Entry& entry = entries_[i];
    if (entry.fires.fetch_add(1, std::memory_order_acq_rel) != 0) return;
    std::uint8_t expected = static_cast<std::uint8_t>(Outcome::kPending);
    if (!entry.outcome.compare_exchange_strong(
            expected, static_cast<std::uint8_t>(outcome),
            std::memory_order_acq_rel)) {
      return;  // resolved after a door refusal: flagged by summarize()
    }
    entry.done_ns.store(at.time_since_epoch().count(),
                        std::memory_order_release);
    if (outcome == Outcome::kOk) {
      ok_replies_.fetch_add(1, std::memory_order_relaxed);
    } else {
      failures_.fetch_add(1, std::memory_order_relaxed);
    }
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// Requests refused or resolved with an error so far.
  [[nodiscard]] std::uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }
  /// Ok replies so far, late ones included.
  [[nodiscard]] std::uint64_t ok_replies() const {
    return ok_replies_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t opened() const {
    return opened_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }
  /// Poll until every opened request resolved or `timeout` passed.
  bool wait_settled(BenchClock::duration timeout) const {
    const auto until = BenchClock::now() + timeout;
    while (outstanding() > 0) {
      if (BenchClock::now() >= until) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  struct Summary {
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;       ///< ok within the deadline
    std::uint64_t late_ok = 0;  ///< ok after the deadline (a miss)
    std::uint64_t failed = 0;
    std::uint64_t refused = 0;
    std::uint64_t unresolved = 0;          ///< accepted, never resolved
    std::uint64_t duplicates = 0;          ///< resolved more than once
    std::uint64_t resolved_after_refusal = 0;
    /// Latency from due time, ms, one per resolved or refused request.
    /// A failure or refusal counts as missing the limit: its latency is
    /// at least the deadline.
    std::vector<double> latency_ms;
    /// Per-window latency samples (windows split the due-time span).
    std::vector<std::vector<double>> window_latency_ms;

    [[nodiscard]] bool exactly_once() const {
      return unresolved == 0 && duplicates == 0 && resolved_after_refusal == 0;
    }
    [[nodiscard]] double attained_ratio() const {
      return attempted == 0 ? 0.0
                            : static_cast<double>(ok) /
                                  static_cast<double>(attempted);
    }
  };

  /// Latency from due time of request `i` when it resolved ok.
  [[nodiscard]] std::optional<double> ok_latency_ms(std::size_t i) const {
    const Entry& e = entries_[i];
    if (static_cast<Outcome>(e.outcome.load(std::memory_order_acquire)) !=
        Outcome::kOk) {
      return std::nullopt;
    }
    const BenchClock::time_point done{
        BenchClock::duration(e.done_ns.load(std::memory_order_acquire))};
    return to_ms(done - e.due);
  }

  /// Summarize after the phase settled. `windows` splits the due-time
  /// span [first due, last due] into equal parts for windowed
  /// percentiles.
  [[nodiscard]] Summary summarize(std::size_t windows = 1) const {
    Summary s;
    const std::size_t n = opened();
    s.attempted = n;
    if (n == 0) return s;
    windows = std::max<std::size_t>(windows, 1);
    s.window_latency_ms.resize(windows);
    const auto first = entries_[0].due;
    const auto span = entries_[n - 1].due - first;
    const double deadline_ms = to_ms(deadline_);
    s.latency_ms.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Entry& e = entries_[i];
      const auto outcome =
          static_cast<Outcome>(e.outcome.load(std::memory_order_acquire));
      const std::uint32_t fires = e.fires.load(std::memory_order_acquire);
      if (fires > 1) ++s.duplicates;
      if (outcome == Outcome::kRefused && fires > 0) {
        ++s.resolved_after_refusal;
      }
      if (outcome == Outcome::kPending) {
        ++s.unresolved;
        continue;
      }
      const BenchClock::time_point done{BenchClock::duration(
          e.done_ns.load(std::memory_order_acquire))};
      double latency = to_ms(done - e.due);
      switch (outcome) {
        case Outcome::kOk:
          if (done - e.due > deadline_) {
            ++s.late_ok;
          } else {
            ++s.ok;
          }
          break;
        case Outcome::kFailed:
          ++s.failed;
          latency = std::max(latency, deadline_ms);
          break;
        case Outcome::kRefused:
          ++s.refused;
          latency = std::max(latency, deadline_ms);
          break;
        case Outcome::kPending:
          break;
      }
      s.latency_ms.push_back(latency);
      std::size_t w = 0;
      if (span.count() > 0) {
        w = static_cast<std::size_t>(
            static_cast<double>((e.due - first).count()) /
            static_cast<double>(span.count()) * static_cast<double>(windows));
        w = std::min(w, windows - 1);
      }
      s.window_latency_ms[w].push_back(latency);
    }
    return s;
  }

 private:
  struct Entry {
    BenchClock::time_point due{};
    std::atomic<std::int64_t> done_ns{0};
    std::atomic<std::uint8_t> outcome{
        static_cast<std::uint8_t>(Outcome::kPending)};
    std::atomic<std::uint32_t> fires{0};
  };

  BenchClock::duration deadline_;
  std::unique_ptr<Entry[]> entries_;
  std::size_t capacity_;
  std::atomic<std::size_t> opened_{0};
  std::atomic<std::int64_t> outstanding_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> ok_replies_{0};
};

/// Closed loop of `window` callers: each sends its next request once the
/// previous one resolved, until `max_requests` were sent or `until`
/// passed. `prepare()` builds a request off the clock; `send(request,
/// index, release)` submits it as ledger entry `index` and must call
/// `release()` once it resolved or was refused. After a failure a caller
/// backs off 1 ms, as a real client would, so a burst of fast refusals
/// cannot turn the loop into a spin. Returns when every request resolved.
template <class Prepare, class Send>
void drive_closed_loop(Ledger& ledger, std::size_t window,
                       std::size_t max_requests, BenchClock::time_point until,
                       Prepare prepare, Send send) {
  // Shared with the releases: a waking acquire must not outlive a
  // release still returning on another thread.
  auto slots = std::make_shared<std::counting_semaphore<>>(
      static_cast<std::ptrdiff_t>(window));
  std::uint64_t failures_seen = ledger.failures();
  for (std::size_t sent = 0; sent < max_requests; ++sent) {
    auto request = prepare();
    slots->acquire();
    if (const std::uint64_t failures = ledger.failures();
        failures != failures_seen) {
      failures_seen = failures;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto now = BenchClock::now();
    const auto index = now < until ? ledger.open(now) : std::nullopt;
    if (!index.has_value()) {
      slots->release();
      break;
    }
    send(std::move(request), *index, [slots] { slots->release(); });
  }
  for (std::size_t i = 0; i < window; ++i) slots->acquire();
}

/// Open loop at `rate` requests/s for `seconds`: request i is prepared
/// off the clock, sent when due and timed from its due time.
/// `send(request, index)` submits it as ledger entry `index`. Returns how
/// late each send was, µs.
template <class Prepare, class Send>
std::vector<double> drive_open_loop(Ledger& ledger, double rate,
                                    double seconds, Prepare prepare,
                                    Send send) {
  const OpenLoopSchedule schedule(
      BenchClock::now() + std::chrono::milliseconds(2), rate);
  const std::size_t total = schedule.count_before(
      schedule.start() + std::chrono::duration_cast<BenchClock::duration>(
                             std::chrono::duration<double>(seconds)));
  std::vector<double> late_us;
  late_us.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    auto request = prepare();
    late_us.push_back(to_us(schedule.wait(i)));
    const auto index = ledger.open(schedule.due(i));
    if (!index.has_value()) break;
    send(std::move(request), *index);
  }
  return late_us;
}

/// How many equal windows to split `samples` into so each still holds
/// about 1100 samples — enough, with a margin for uneven splits, for a
/// p99 with kMinBeyond samples beyond it. At most 50 windows.
inline std::size_t window_count(std::size_t samples) {
  return std::clamp<std::size_t>(samples / 1100, 1, 50);
}

/// Latency figures of one open-loop phase: the median over windows of
/// each window's p50 and p99, so one scheduler hiccup moves one window,
/// not the reported figure. Falls back to the whole phase when a window
/// is too thin for its p99.
struct LatencyFigures {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double quantile = 0.99;  ///< tail quantile actually reported
  std::size_t samples = 0;
};

inline LatencyFigures latency_figures(const Ledger::Summary& summary) {
  LatencyFigures out;
  out.samples = summary.latency_ms.size();
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const auto& window : summary.window_latency_ms) {
    const auto p99 = tail_percentile(window, 0.99);
    if (!p99.has_value()) {
      p50s.clear();
      p99s.clear();
      break;
    }
    p50s.push_back(median(window));
    p99s.push_back(*p99);
  }
  if (!p99s.empty()) {
    out.p50_ms = median(p50s);
    out.p99_ms = median(p99s);
    return out;
  }
  out.p50_ms = median(summary.latency_ms);
  const auto p99 = tail_percentile(summary.latency_ms, 0.99);
  if (p99.has_value()) {
    out.p99_ms = *p99;
  } else {
    out.quantile = highest_supported_quantile(summary.latency_ms.size());
    const auto tail = out.quantile > 0.0
                          ? tail_percentile(summary.latency_ms, out.quantile)
                          : std::nullopt;
    out.p99_ms = tail.value_or(out.p50_ms);
  }
  return out;
}

/// A running phase read at one instant: ok replies so far, CPU seconds
/// of work so far, and the machine's CPU clock ticks so far — those
/// the hypervisor gave to other guests (steal) and all of them.
struct PhaseSample {
  BenchClock::time_point at;
  std::uint64_t ok = 0;
  double cpu_s = 0.0;
  double steal_ticks = 0.0;
  double all_ticks = 0.0;
};

/// Figures of each slice between consecutive samples: ok replies per
/// second, the share of the machine's CPU time stolen, and CPU µs per ok
/// reply for the slices that had one.
struct SliceFigures {
  std::vector<double> ok_per_s;
  std::vector<double> steal_share;
  std::vector<double> cpu_us_per_ok;
};

inline SliceFigures slice_figures(const std::vector<PhaseSample>& samples) {
  SliceFigures out;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double seconds = to_s(samples[i].at - samples[i - 1].at);
    if (!(seconds > 0.0)) continue;
    const auto ok = static_cast<double>(samples[i].ok - samples[i - 1].ok);
    out.ok_per_s.push_back(ok / seconds);
    const double ticks = samples[i].all_ticks - samples[i - 1].all_ticks;
    out.steal_share.push_back(
        ticks > 0.0
            ? (samples[i].steal_ticks - samples[i - 1].steal_ticks) / ticks
            : 0.0);
    if (ok > 0.0) {
      out.cpu_us_per_ok.push_back(
          (samples[i].cpu_s - samples[i - 1].cpu_s) * 1e6 / ok);
    }
  }
  return out;
}

/// Median of the slice `values` least disturbed by CPU steal: those of
/// every slice whose steal share is at most `clean_share`, and of no
/// fewer than `min_fraction` of all slices (the least stolen first).
/// With no steal at all it is the median of every slice.
inline double least_steal_median(const std::vector<double>& values,
                                 const std::vector<double>& steal_share,
                                 double clean_share, double min_fraction) {
  const std::size_t n = std::min(values.size(), steal_share.size());
  if (n == 0) return 0.0;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&steal_share](std::size_t a, std::size_t b) {
                     return steal_share[a] < steal_share[b];
                   });
  std::size_t keep = static_cast<std::size_t>(
      std::ceil(min_fraction * static_cast<double>(n)));
  while (keep < n && steal_share[order[keep]] <= clean_share) ++keep;
  keep = std::clamp<std::size_t>(keep, 1, n);
  std::vector<double> kept;
  kept.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) kept.push_back(values[order[i]]);
  return median(std::move(kept));
}

/// Takes a PhaseSample with `read()` at once and then every `period` on
/// its own thread, until stop() takes a last one and returns them all.
class PhaseSampler {
 public:
  PhaseSampler(BenchClock::duration period, std::function<PhaseSample()> read)
      : read_(std::move(read)) {
    samples_.push_back(read_());
    thread_ = std::thread([this, period] {
      const auto start = samples_.front().at;
      std::unique_lock lock(mutex_);
      for (std::size_t k = 1;; ++k) {
        if (wake_.wait_until(lock, start + period * static_cast<long>(k),
                             [this] { return stopping_; })) {
          return;
        }
        samples_.push_back(read_());
      }
    });
  }
  ~PhaseSampler() { (void)stop(); }
  PhaseSampler(const PhaseSampler&) = delete;
  PhaseSampler& operator=(const PhaseSampler&) = delete;

  std::vector<PhaseSample> stop() {
    if (thread_.joinable()) {
      {
        std::lock_guard lock(mutex_);
        stopping_ = true;
      }
      wake_.notify_all();
      thread_.join();
      samples_.push_back(read_());
    }
    return samples_;
  }

 private:
  std::function<PhaseSample()> read_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::vector<PhaseSample> samples_;
  std::thread thread_;
};

}  // namespace perfbench
