// Shared pieces of the perfbench workloads: options, the metric report,
// the seeded request sources, the benchmark's resource adapter, and the
// layer probes every workload runs in its traced pass.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "harness.hpp"

namespace perfbench {

/// Share of a `--trace 0` run spent in the closed loop (the rest is the
/// open loop), and the length of the slices it is sampled in.
inline constexpr double kClosedShare = 0.8;
inline constexpr auto kSlice = std::chrono::milliseconds(100);
/// Closed-loop throughput and setup time are medians over the slices (or
/// setups) least disturbed by CPU steal: those with at most kCleanSteal
/// of the machine's CPU time stolen (one 10 ms clock tick of a slice on
/// 4 CPUs), and no fewer than kMinCleanShare of all.
inline constexpr double kCleanSteal = 0.03;
inline constexpr double kMinCleanShare = 0.2;
/// Closed-loop ledger capacity per second of loop: over three times the
/// highest throughput any workload reached on a 4-core machine.
inline constexpr double kClosedCapacityRps = 50000.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports: the result line's fields plus run metadata.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;
  /// Extra "key": value pairs (already JSON-encoded values) for the
  /// metadata line printed ahead of the result.
  std::vector<std::pair<std::string, std::string>> meta;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void check(bool condition, const std::string& violation) {
    if (!condition) {
      correct = false;
      violations.push_back(violation);
    }
  }
  void note(std::string key, double value);
  void note(std::string key, const std::string& value);
};

// ---- request sources --------------------------------------------------

/// A seeded stream of application-model texts. The same seed yields the
/// same sequence; the platform only ever sees the rendered texts.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  virtual std::string next() = 0;
  /// Commands the last request's own new objects need (0: not tracked).
  [[nodiscard]] virtual int last_additions() const { return 0; }
};

/// session_update: one conference Connection of 16-32 participants and
/// two media streams; each request is the full model after one small
/// seeded change — a quality retune, one participant joining, or one
/// leaving. Participant ids are never reused.
class UpdateSource final : public RequestSource {
 public:
  explicit UpdateSource(std::uint64_t seed);
  std::string next() override;

 private:
  [[nodiscard]] std::string render() const;

  std::mt19937_64 rng_;
  std::vector<std::uint64_t> participants_;
  std::uint64_t next_participant_ = 0;
  std::string quality_[2];
};

/// session_churn: fresh small connections rotating through three CML
/// shapes (bare session; session + two parties; session + party +
/// medium), shape order and addresses seeded.
class ChurnSource final : public RequestSource {
 public:
  explicit ChurnSource(std::uint64_t seed) : rng_(seed) {}
  std::string next() override;
  /// session.create, one party.add per participant, media.open.
  [[nodiscard]] int last_additions() const override { return additions_; }

 private:
  std::mt19937_64 rng_;
  std::uint64_t counter_ = 0;
  int additions_ = 0;
};

// ---- resource adapter ------------------------------------------------

/// The benchmark's stand-in for the comm service. It does no work and
/// never sleeps: execute() returns at once. With a park time set,
/// execute_async() completes on the platform's event loop after that
/// time and holds no thread meanwhile (an asynchronous device). Counts
/// invocations; while `timed` is set it also sums the time spent inside
/// execute(), so layer timings can subtract it.
class BenchDevice final : public mdsm::broker::ResourceAdapter {
 public:
  BenchDevice(mdsm::core::Platform** platform, mdsm::Duration park)
      : ResourceAdapter("comm"), platform_(platform), park_(park) {}

  mdsm::Result<mdsm::model::Value> execute(
      const std::string& command, const mdsm::broker::Args& args) override;
  void execute_async(const std::string& command,
                     const mdsm::broker::Args& args,
                     Completion done) override;

  [[nodiscard]] std::uint64_t invocations() const noexcept {
    return invocations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t busy_ns() const noexcept {
    return busy_ns_.load(std::memory_order_relaxed);
  }
  void set_timed(bool timed) noexcept {
    timed_.store(timed, std::memory_order_relaxed);
  }

 private:
  mdsm::core::Platform** platform_;
  mdsm::Duration park_;
  std::atomic<bool> timed_{false};
  std::atomic<std::uint64_t> invocations_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

/// The CVM middleware model with model-driven overload protection
/// spliced into its MiddlewarePlatform root (bounded queue, reject on
/// overflow, deadline-aware admission) and, when > 0, the cluster's
/// session checkpoint cadence.
std::string overload_cvm_text(int queue_capacity, int checkpoint_interval);

// ---- layer probes (traced pass) ---------------------------------------

/// Sync decomposition: drives the same request sequence through two
/// fresh platforms assembled from `middleware_text` with an instant
/// synchronous BenchDevice — one via the layers' public calls one by one
/// (parse, validate, diff, commit_model, execute_script), the other via
/// submit_model_text — and reports the per-layer means plus
/// bench.layer_sum_ratio.
struct SyncLayers {
  double parts_median_us = 0.0;  ///< per request: parse + commit + execute
  double sum_ratio = 0.0;        ///< Σ parts / Σ submit_model_text
};
SyncLayers probe_sync_layers(const std::string& middleware_text,
                             RequestSource& source, double seconds,
                             Report& report);

/// Per-layer probes that need only a quiesced platform carrying the
/// workload's state: IM generation, ingress codec on `sample_text`,
/// checkpoint export, obs counter and span overhead.
void probe_platform(mdsm::core::Platform& platform,
                    const std::string& sample_text, RequestSource& source,
                    Report& report);

/// The paper's Section VII rows: Exp-2 broker overhead ratio over the
/// eight comm scenarios and Exp-3 IM cycle over 100 procedures.
void probe_paper_rows(Report& report);

/// Time of all CPUs of the machine so far, in clock ticks (/proc/stat).
struct CpuTicks {
  double steal = 0.0;  ///< the hypervisor ran another guest
  double all = 0.0;    ///< every state, steal included
};
CpuTicks cpu_ticks();

/// Wall time and CPU steal share of each run of a repeated step.
struct StepTimes {
  std::vector<double> seconds;
  std::vector<double> steal_share;

  template <class Step>
  auto time(Step step) {
    const CpuTicks before = cpu_ticks();
    const auto start = BenchClock::now();
    auto result = step();
    seconds.push_back(to_s(BenchClock::now() - start));
    const CpuTicks after = cpu_ticks();
    steal_share.push_back(after.all > before.all
                              ? (after.steal - before.steal) /
                                    (after.all - before.all)
                              : 0.0);
    return result;
  }
};

/// CPU time of every thread of this process so far, seconds.
double process_cpu_seconds();

/// Peak resident set of this process, MB (VmHWM).
double peak_rss_mb();

/// Records a phase's outcome counts in the run metadata.
void note_outcomes(Report& report, const Ledger::Summary& summary,
                   const std::string& phase);

/// Samples `ledger`'s ok replies and process_cpu_seconds() every kSlice
/// while it lives.
PhaseSampler sample_phase(const Ledger& ledger);

/// The end-to-end metrics of a `--trace 0` run: the median setup time and
/// closed-loop slice throughput, both over the runs least disturbed by
/// CPU steal, open-loop attainment and peak RSS; the median slice CPU per
/// ok reply, the windowed open-loop p50/p99 and outcome counts go to
/// metadata.
void report_end_to_end(Report& report, const StepTimes& setups,
                       const SliceFigures& closed_slices,
                       const Ledger::Summary& closed,
                       const Ledger::Summary& open,
                       const std::vector<double>& late_us);

// ---- workloads -------------------------------------------------------

Report run_session_update(const Options& options);
Report run_session_churn(const Options& options);
Report run_cluster_wire(const Options& options);

}  // namespace perfbench
