// Pieces every workload shares: seeded request sources, the benchmark's
// resource adapter, the overload-configured CVM middleware model and the
// end-to-end report.
#include <time.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "domains/comm/cvm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr const char* kQualities[] = {"low", "standard", "high"};
constexpr std::size_t kMinParticipants = 16;
constexpr std::size_t kMaxParticipants = 32;

}  // namespace

// ---- UpdateSource ---------------------------------------------------------

UpdateSource::UpdateSource(std::uint64_t seed) : rng_(seed) {
  // Start mid-range, not at a seeded size: a short stretch such as the
  // 400-request warm-up then costs about the same on every seed.
  const std::size_t initial = (kMinParticipants + kMaxParticipants) / 2;
  for (std::size_t i = 0; i < initial; ++i) {
    participants_.push_back(next_participant_++);
  }
  quality_[0] = kQualities[rng_() % 3];
  quality_[1] = kQualities[rng_() % 3];
}

std::string UpdateSource::render() const {
  std::string text =
      "model conf conforms cml\nobject Connection conf {\n"
      "  state = pending\n  topology = conference\n";
  for (const std::uint64_t p : participants_) {
    const std::string id = "p" + std::to_string(p);
    text += "  child participants Participant " + id + " { address = \"" +
            id + "@net\" }\n";
  }
  text += "  child media Medium audio0 { kind = audio quality = " +
          quality_[0] + " }\n";
  text += "  child media Medium video0 { kind = video quality = " +
          quality_[1] + " }\n}\n";
  return text;
}

std::string UpdateSource::next() {
  // One seeded change per request. Joins and leaves keep the size in
  // [16, 32]; a retune always picks a different quality.
  const std::uint64_t pick = rng_() % 3;
  if (pick == 0 && participants_.size() < kMaxParticipants) {
    participants_.push_back(next_participant_++);
  } else if (pick == 1 && participants_.size() > kMinParticipants) {
    participants_.erase(participants_.begin() +
                        static_cast<std::ptrdiff_t>(rng_() %
                                                    participants_.size()));
  } else {
    std::string& quality = quality_[rng_() % 2];
    std::string fresh = quality;
    while (fresh == quality) fresh = kQualities[rng_() % 3];
    quality = fresh;
  }
  return render();
}

// ---- ChurnSource ----------------------------------------------------------

std::string ChurnSource::next() {
  const std::string id = "c" + std::to_string(counter_++);
  const std::string a = "u" + std::to_string(rng_() % 10000) + "@net";
  std::string text = "model app_" + id + " conforms cml\n";
  switch (rng_() % 3) {
    case 0:  // bare session establishment (Case 2)
      text += "object Connection " + id + " { state = pending }\n";
      additions_ = 1;
      break;
    case 1: {  // session + two parties (adds Case-1 pass-throughs)
      const std::string b = "u" + std::to_string(rng_() % 10000) + "@net";
      text += "object Connection " + id + " {\n  state = pending\n" +
              "  child participants Participant pa_" + id +
              " { address = \"" + a + "\" }\n" +
              "  child participants Participant pb_" + id +
              " { address = \"" + b + "\" }\n}\n";
      additions_ = 3;
      break;
    }
    default:  // session + party + medium (Case-2 media path)
      text += "object Connection " + id + " {\n  state = pending\n" +
              "  child participants Participant pa_" + id +
              " { address = \"" + a + "\" }\n" +
              "  child media Medium m_" + id + " { kind = audio }\n}\n";
      additions_ = 3;
      break;
  }
  return text;
}

// ---- BenchDevice ----------------------------------------------------------

mdsm::Result<mdsm::model::Value> BenchDevice::execute(
    const std::string&, const mdsm::broker::Args&) {
  const bool timed = timed_.load(std::memory_order_relaxed);
  const auto start = timed ? BenchClock::now() : BenchClock::time_point{};
  invocations_.fetch_add(1, std::memory_order_relaxed);
  mdsm::model::Value result(true);
  if (timed) {
    busy_ns_.fetch_add(
        static_cast<std::uint64_t>((BenchClock::now() - start).count()),
        std::memory_order_relaxed);
  }
  return result;
}

void BenchDevice::execute_async(const std::string& command,
                                const mdsm::broker::Args& args,
                                Completion done) {
  if (park_.count() == 0) {
    done(execute(command, args));
    return;
  }
  const bool timed = timed_.load(std::memory_order_relaxed);
  const auto start = timed ? BenchClock::now() : BenchClock::time_point{};
  invocations_.fetch_add(1, std::memory_order_relaxed);
  (*platform_)->event_loop()->schedule(
      park_, [done = std::move(done)] { done(mdsm::model::Value(true)); });
  if (timed) {
    busy_ns_.fetch_add(
        static_cast<std::uint64_t>((BenchClock::now() - start).count()),
        std::memory_order_relaxed);
  }
}

// ---- models and process facts -----------------------------------------------

std::string overload_cvm_text(int queue_capacity, int checkpoint_interval) {
  std::string text(mdsm::comm::cvm_middleware_model_text());
  const std::string anchor = "domain = \"communication\"";
  std::string attrs = "\n  queue_capacity = " +
                      std::to_string(queue_capacity) +
                      "\n  overflow_policy = reject"
                      "\n  admission = false";
  if (checkpoint_interval > 0) {
    attrs += "\n  checkpoint_interval = " +
             std::to_string(checkpoint_interval);
  }
  text.insert(text.find(anchor) + anchor.size(), attrs);
  return text;
}

void note_outcomes(Report& report, const Ledger::Summary& summary,
                   const std::string& phase) {
  report.note(phase + "_attempted", static_cast<double>(summary.attempted));
  report.note(phase + "_ok", static_cast<double>(summary.ok));
  report.note(phase + "_late_ok", static_cast<double>(summary.late_ok));
  report.note(phase + "_failed", static_cast<double>(summary.failed));
  report.note(phase + "_refused", static_cast<double>(summary.refused));
}

PhaseSampler sample_phase(const Ledger& ledger) {
  return PhaseSampler(kSlice, [&ledger] {
    const CpuTicks ticks = cpu_ticks();
    return PhaseSample{BenchClock::now(), ledger.ok_replies(),
                       process_cpu_seconds(), ticks.steal, ticks.all};
  });
}

void report_end_to_end(Report& report, const StepTimes& setups,
                       const SliceFigures& closed_slices,
                       const Ledger::Summary& closed,
                       const Ledger::Summary& open,
                       const std::vector<double>& late_us) {
  const LatencyFigures figures = latency_figures(open);
  report.add("setup_s", "s",
             least_steal_median(setups.seconds, setups.steal_share,
                                kCleanSteal, kMinCleanShare));
  report.note("setup_all_s", median(setups.seconds));
  report.add("throughput_rps", "1/s",
             least_steal_median(closed_slices.ok_per_s,
                                closed_slices.steal_share, kCleanSteal,
                                kMinCleanShare));
  report.note("throughput_all_slices_rps", median(closed_slices.ok_per_s));
  report.note("closed_slices",
              static_cast<double>(closed_slices.ok_per_s.size()));
  report.note("cpu_us_per_request", median(closed_slices.cpu_us_per_ok));
  // The open-loop latency figures track the host's CPU steal on a shared
  // virtual machine too closely to gate on (see README.md).
  report.note("latency_p50_ms", figures.p50_ms);
  report.note("latency_p99_ms", figures.p99_ms);
  report.add("attained_ratio", "ratio", open.attained_ratio());
  report.add("peak_rss_mb", "MB", peak_rss_mb());
  report.attempted = closed.attempted + open.attempted;
  report.failed = closed.failed + closed.refused + open.failed + open.refused;
  note_outcomes(report, closed, "closed");
  note_outcomes(report, open, "open");
  report.note("error_ratio",
              open.attempted == 0
                  ? 0.0
                  : static_cast<double>(open.failed + open.refused) /
                        static_cast<double>(open.attempted));
  report.note("latency_samples", static_cast<double>(figures.samples));
  report.note("latency_tail_quantile", figures.quantile);
  report.note("generator_late_p99_us",
              tail_percentile(late_us, 0.99).value_or(0.0));
}

// ---- process facts ----------------------------------------------------------

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  in >> cpu;
  for (double& field : fields) in >> field;
  CpuTicks ticks;
  ticks.steal = fields[7];
  for (const double field : fields) ticks.all += field;
  return ticks;
}

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
