// Resilience bench: goodput and invoke latency of the Broker layer's
// fault-tolerance path against a chaotic resource, across fault rates and
// policies. Three configurations per fault rate:
//
//   fire_once  — no policy: every injected fault is user-visible
//   retries    — 3 attempts, decorrelated-jitter backoff: transient
//                faults are absorbed at the cost of extra attempts
//   breaker    — retries + circuit breaker: under a hard outage the
//                breaker sheds load by fast-failing instead of burning
//                the full retry budget per invoke
//
// Emits one JSON object. Pass criteria: at a 10% fault rate, retries
// strictly improve goodput over fire-once; under a 100% outage, the
// breaker issues fewer physical attempts per invoke than bare retries.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker_layer.hpp"
#include "broker/chaos_adapter.hpp"
#include "common/clock.hpp"
#include "common/log.hpp"
#include "harness.hpp"

namespace {

using mdsm::Duration;
using mdsm::SteadyClock;
using mdsm::Stopwatch;
namespace broker = mdsm::broker;

/// The well-behaved resource underneath the chaos wrapper.
class EchoAdapter final : public broker::ResourceAdapter {
 public:
  explicit EchoAdapter(std::string name)
      : ResourceAdapter(std::move(name)) {}
  mdsm::Result<mdsm::model::Value> execute(const std::string& command,
                                           const broker::Args&) override {
    return mdsm::model::Value("ok:" + command);
  }
};

struct RunResult {
  double goodput_pct = 0.0;
  double median_us = 0.0;
  double p99_us = 0.0;
  double attempts_per_invoke = 0.0;
};

RunResult run(double fail_rate, const broker::InvocationPolicy* policy,
              int invokes) {
  mdsm::runtime::EventBus bus;
  mdsm::policy::ContextStore store;
  broker::BrokerLayer layer("bench", bus, store);
  broker::ChaosConfig chaos_config;
  chaos_config.fail_rate = fail_rate;
  auto chaos = std::make_unique<broker::ChaosAdapter>(
      std::make_unique<EchoAdapter>("svc"), chaos_config);
  const broker::ChaosAdapter* chaos_view = chaos.get();
  if (!layer.resources().add_adapter(std::move(chaos)).ok()) return {};
  if (policy != nullptr &&
      !layer.resources().set_policy("svc", *policy).ok()) {
    return {};
  }

  static SteadyClock clock;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(invokes));
  int ok = 0;
  for (int i = 0; i < invokes; ++i) {
    mdsm::obs::RequestContext context(clock);
    Stopwatch watch(clock);
    if (layer.resources().invoke("svc", "op", {}, context).ok()) ++ok;
    latencies.push_back(watch.elapsed_ms() * 1000.0);
  }
  RunResult out;
  out.goodput_pct = 100.0 * ok / invokes;
  out.median_us = perfbench::median(latencies);
  out.p99_us = perfbench::quantile(latencies, 0.99);
  out.attempts_per_invoke =
      static_cast<double>(chaos_view->stats().executed) / invokes;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  mdsm::set_log_level(mdsm::LogLevel::kOff);
  int invokes = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) invokes = 200;
  }

  broker::InvocationPolicy retries;
  retries.max_attempts = 3;
  retries.initial_backoff = Duration(20);
  retries.max_backoff = Duration(200);

  broker::InvocationPolicy with_breaker = retries;
  with_breaker.breaker.window = 16;
  with_breaker.breaker.min_samples = 8;
  with_breaker.breaker.failure_threshold = 0.5;
  with_breaker.breaker.cooldown = Duration(5'000);

  const double fail_rates[] = {0.0, 0.1, 0.3, 1.0};
  std::string rows;
  double goodput_fire_once_10 = 0.0;
  double goodput_retries_10 = 0.0;
  double attempts_retries_outage = 0.0;
  double attempts_breaker_outage = 0.0;
  for (double fail_rate : fail_rates) {
    struct Config {
      const char* name;
      const broker::InvocationPolicy* policy;
    };
    const Config configs[] = {{"fire_once", nullptr},
                              {"retries", &retries},
                              {"breaker", &with_breaker}};
    for (const Config& config : configs) {
      RunResult result = run(fail_rate, config.policy, invokes);
      char row[256];
      std::snprintf(row, sizeof(row),
                    "    {\"fail_rate\": %.2f, \"policy\": \"%s\", "
                    "\"invokes\": %d, \"goodput_pct\": %.2f, "
                    "\"median_us\": %.2f, \"p99_us\": %.2f, "
                    "\"attempts_per_invoke\": %.3f}",
                    fail_rate, config.name, invokes, result.goodput_pct,
                    result.median_us, result.p99_us,
                    result.attempts_per_invoke);
      if (!rows.empty()) rows += ",\n";
      rows += row;
      if (fail_rate == 0.1 && config.policy == nullptr) {
        goodput_fire_once_10 = result.goodput_pct;
      }
      if (fail_rate == 0.1 && config.policy == &retries) {
        goodput_retries_10 = result.goodput_pct;
      }
      if (fail_rate == 1.0 && config.policy == &retries) {
        attempts_retries_outage = result.attempts_per_invoke;
      }
      if (fail_rate == 1.0 && config.policy == &with_breaker) {
        attempts_breaker_outage = result.attempts_per_invoke;
      }
    }
  }

  const bool retries_absorb = goodput_retries_10 > goodput_fire_once_10;
  const bool breaker_sheds =
      attempts_breaker_outage < attempts_retries_outage;
  std::printf(
      "{\n  \"bench\": \"resilience\",\n  \"rows\": [\n%s\n  ],\n"
      "  \"retries_absorb_faults\": %s,\n"
      "  \"breaker_sheds_outage_load\": %s,\n  \"pass\": %s\n}\n",
      rows.c_str(), retries_absorb ? "true" : "false",
      breaker_sheds ? "true" : "false",
      (retries_absorb && breaker_sheds) ? "true" : "false");
  return (retries_absorb && breaker_sheds) ? 0 : 1;
}
