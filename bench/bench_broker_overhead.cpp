// Exp-2 (paper §VII-A): raw performance of the model-based Broker layer
// vs the original handcrafted one across the eight multimedia scenarios.
//
// Paper result: "the model-based version spent, on average, 17% more
// time to execute the scenarios than the original version. This overhead
// is a direct consequence of the extra flexibility allowed by the
// model-based approach."
//
// Method: per scenario, build a fresh bundle per repetition (untimed)
// and time only the scenario execution; report per-scenario means and
// the average overhead. Absolute numbers are simulator-scale; the shape
// to compare with the paper is the overhead column.
#include <cstdio>
#include <vector>

#include "common/clock.hpp"
#include "domains/comm/cvm.hpp"
#include "domains/comm/handcrafted_broker.hpp"
#include "domains/comm/scenarios.hpp"
#include "harness.hpp"

namespace {

using mdsm::SteadyClock;
using mdsm::Stopwatch;

constexpr int kWarmup = 5;
constexpr int kRepetitions = 60;

/// Median time (µs) for the model-based broker to run `scenario`.
double time_model_based(const mdsm::comm::Scenario& scenario) {
  SteadyClock clock;
  std::vector<double> samples;
  for (int rep = 0; rep < kWarmup + kRepetitions; ++rep) {
    auto cvm = mdsm::comm::make_cvm();
    if (!cvm.ok()) return -1.0;
    Stopwatch watch(clock);
    mdsm::Status status = mdsm::comm::run_scenario(
        scenario, (*cvm)->platform->broker(), (*cvm)->service,
        (*cvm)->platform->context());
    double elapsed_us = watch.elapsed_ms() * 1000.0;
    if (!status.ok()) return -1.0;
    if (rep >= kWarmup) samples.push_back(elapsed_us);
  }
  return perfbench::median(std::move(samples));
}

double time_handcrafted(const mdsm::comm::Scenario& scenario) {
  SteadyClock clock;
  std::vector<double> samples;
  for (int rep = 0; rep < kWarmup + kRepetitions; ++rep) {
    auto ncb = mdsm::comm::make_handcrafted_ncb();
    Stopwatch watch(clock);
    mdsm::Status status = mdsm::comm::run_scenario(
        scenario, ncb->broker, ncb->service, ncb->context);
    double elapsed_us = watch.elapsed_ms() * 1000.0;
    if (!status.ok()) return -1.0;
    if (rep >= kWarmup) samples.push_back(elapsed_us);
  }
  return perfbench::median(std::move(samples));
}

}  // namespace

int main() {
  std::printf(
      "Exp-2: model-based vs handcrafted broker latency, 8 scenarios\n");
  std::printf("| %-22s | %-14s | %-14s | %-9s |\n", "scenario",
              "model-based us", "handcrafted us", "overhead");
  std::printf(
      "|------------------------|----------------|----------------|--------"
      "---|\n");
  double overhead_sum = 0.0;
  int counted = 0;
  for (const mdsm::comm::Scenario& scenario : mdsm::comm::comm_scenarios()) {
    double model_us = time_model_based(scenario);
    double hand_us = time_handcrafted(scenario);
    if (model_us < 0 || hand_us < 0) {
      std::printf("| %-22s | scenario failed to run                   |\n",
                  scenario.name.c_str());
      continue;
    }
    double overhead = (model_us / hand_us - 1.0) * 100.0;
    overhead_sum += overhead;
    ++counted;
    std::printf("| %-22s | %14.1f | %14.1f | %+8.1f%% |\n",
                scenario.name.c_str(), model_us, hand_us, overhead);
  }
  if (counted > 0) {
    std::printf("\nMean overhead of the model-based broker: %+.1f%% "
                "(paper: ~+17%%)\n",
                overhead_sum / counted);
  }
  return 0;
}
