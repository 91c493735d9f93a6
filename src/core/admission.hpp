// Deadline-aware admission control at the UI layer (PR 5).
//
// Under sustained overload, queue delay silently consumes every
// request's deadline budget: an expired request still marches through
// Synthesis and into the Controller before the per-crossing deadline
// checks finally kill it — all of that work is wasted. Admission control
// sheds such requests at the door instead:
//
//   - a request whose deadline has already passed is shed immediately
//     ("ui.shed_expired");
//   - a request whose remaining budget is smaller than the platform's
//     predicted pipeline latency — an EWMA over recently observed
//     request latencies (queue delay included for async submissions) —
//     is shed as doomed ("ui.shed_predicted").
//
// Only executed requests feed the EWMA, so a prediction that no sample
// has refreshed for longer than the latency it predicts is stale: the
// next request is admitted as a probe instead of shed, and its sample
// moves the prediction. Without that, one stall that pushed the
// prediction past a budget would shed every later request with that
// budget for good.
//
// Every shed publishes a "request.shed" bus event (payload
// ["expired"|"predicted", request tag]) so autonomic symptoms and
// monitors can react to load shedding exactly like any other condition.
// Requests without a deadline are always admitted: with no budget there
// is no basis to predict doom.
#pragma once

#include <atomic>

#include "common/clock.hpp"
#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "runtime/event_bus.hpp"

namespace mdsm::core {

struct AdmissionConfig {
  bool enabled = false;
  /// EWMA weight of the newest latency sample (0 < alpha <= 1).
  double ewma_alpha = 0.2;
  /// Shed when remaining budget < safety_factor * predicted latency.
  double safety_factor = 1.0;
};

class AdmissionController {
 public:
  void configure(AdmissionConfig config) noexcept { config_ = config; }
  [[nodiscard]] const AdmissionConfig& config() const noexcept {
    return config_;
  }

  /// Wire the platform's metrics registry, event bus and clock (the one
  /// its request contexts run on). Call once, before traffic.
  void wire(obs::MetricsRegistry& metrics, runtime::EventBus& bus,
            const Clock& clock) {
    metrics_.wire(&metrics);
    bus_ = &bus;
    clock_ = &clock;
  }

  /// Gate a request at the UI boundary. Ok admits; kTimeout means the
  /// deadline is already spent; kUnavailable means the remaining budget
  /// cannot cover the predicted pipeline latency. Disabled controllers
  /// admit everything.
  [[nodiscard]] Status admit(const obs::RequestContext& context);

  /// Feed one completed request's observed end-to-end pipeline latency
  /// (UI admit → script executed, queue delay included) into the EWMA.
  void record_latency(Duration observed) noexcept;

  /// Current EWMA of pipeline latency; zero until the first sample.
  [[nodiscard]] Duration predicted_latency() const noexcept {
    return Duration(static_cast<Duration::rep>(
        ewma_us_.load(std::memory_order_relaxed)));
  }

 private:
  void publish_shed(const obs::RequestContext& context, const char* reason);

  AdmissionConfig config_;
  std::atomic<double> ewma_us_{0.0};
  std::atomic<bool> seeded_{false};
  /// Clock reading (µs since its epoch) when the last sample arrived.
  std::atomic<Duration::rep> last_sample_us_{0};
  struct Counters {
    obs::MetricsRegistry& registry;
    obs::Counter& shed_expired = registry.counter("ui.shed_expired");
    obs::Counter& shed_predicted = registry.counter("ui.shed_predicted");
  };
  obs::MetricHandles<Counters> metrics_;
  runtime::EventBus* bus_ = nullptr;
  const Clock* clock_ = &obs::steady_clock();
};

}  // namespace mdsm::core
