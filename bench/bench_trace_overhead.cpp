// Tracing-overhead bench: latency of Platform::submit_model_text on the
// CVM conference scenario with a real (enabled) RequestContext — span
// tree + metrics recording active — vs the shared noop context, where
// every observability operation early-returns.
//
// Acceptance target: enabling tracing costs < 5% median latency. Each
// repetition is one pair — a traced and a noop submit back to back, in
// alternating order, each on a fresh platform — and the gate is the
// median of the per-pair relative differences, so load drift that hits
// both halves of a pair cancels instead of moving the verdict. The ratio
// of the two independent medians is printed beside it (not gated).
// Emits one JSON object so CI can assert on it, and exits 1 when it
// prints "pass": false.
#include <cstdio>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "domains/comm/cvm.hpp"
#include "harness.hpp"

namespace {

using mdsm::SteadyClock;
using mdsm::Stopwatch;

constexpr int kWarmup = 5;
constexpr int kRepetitions = 400;

constexpr std::string_view kConferenceModel = R"(
model conference conforms cml
object Connection standup {
  state = active
  topology = conference
  child participants Participant ana { address = "ana@hq" role = initiator }
  child participants Participant bruno { address = "bruno@lab" }
  child participants Participant carla { address = "carla@home" }
  child media Medium voice { kind = audio }
  child media Medium cam { kind = video }
}
)";

/// One submit latency (µs) on a fresh platform (built untimed). With
/// `traced`, the submission runs under a fresh enabled context;
/// otherwise under RequestContext::noop().
double time_one(bool traced) {
  static SteadyClock clock;
  auto cvm = mdsm::comm::make_cvm();
  if (!cvm.ok()) return -1.0;
  mdsm::core::Platform& platform = *(*cvm)->platform;
  mdsm::Result<mdsm::controller::ControlScript> script =
      mdsm::InvalidArgument("not run");
  Stopwatch watch(clock);
  if (traced) {
    mdsm::obs::RequestContext request = platform.make_context();
    script = platform.submit_model_text(kConferenceModel, request);
  } else {
    script = platform.submit_model_text(kConferenceModel,
                                        mdsm::obs::RequestContext::noop());
  }
  double elapsed_us = watch.elapsed_ms() * 1000.0;
  return script.ok() ? elapsed_us : -1.0;
}

}  // namespace

int main() {
  std::vector<double> enabled_samples;
  std::vector<double> noop_samples;
  std::vector<double> pair_overheads;  ///< (traced - noop) / noop per pair
  for (int rep = 0; rep < kWarmup + kRepetitions; ++rep) {
    const bool traced_first = (rep % 2) == 0;
    double first = time_one(traced_first);
    double second = time_one(!traced_first);
    if (first < 0.0 || second < 0.0) {
      std::printf("{\"bench\": \"trace_overhead\", \"error\": \"run failed\"}\n");
      return 1;
    }
    if (rep < kWarmup) continue;
    const double enabled = traced_first ? first : second;
    const double noop = traced_first ? second : first;
    enabled_samples.push_back(enabled);
    noop_samples.push_back(noop);
    if (noop > 0.0) pair_overheads.push_back((enabled - noop) / noop);
  }
  const double enabled_us = perfbench::median(enabled_samples);
  const double noop_us = perfbench::median(noop_samples);
  const double overhead_pct = perfbench::median(pair_overheads) * 100.0;
  const double median_ratio_pct =
      noop_us > 0.0 ? (enabled_us - noop_us) / noop_us * 100.0 : 0.0;
  const bool pass = overhead_pct < 5.0;
  std::printf(
      "{\"bench\": \"trace_overhead\", \"scenario\": \"cvm_conference\", "
      "\"repetitions\": %d, \"enabled_us\": %.2f, \"noop_us\": %.2f, "
      "\"overhead_pct\": %.2f, \"median_ratio_pct\": %.2f, "
      "\"target_pct\": 5.0, \"pass\": %s}\n",
      kRepetitions, enabled_us, noop_us, overhead_pct, median_ratio_pct,
      pass ? "true" : "false");
  return pass ? 0 : 1;
}
