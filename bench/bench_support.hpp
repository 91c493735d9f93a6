// Bench-side pieces the experiment benches share on top of the
// perfbench measuring harness (perfbench/harness.hpp: open-loop
// schedule, exactly-once ledger, percentiles): the simulated comm
// service, the CVM model with overload protection spliced in, the
// Connection scenario, the open-loop feed, and the pump that slaves a
// simulated network's clock to wall time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "broker/resource_manager.hpp"
#include "common/clock.hpp"
#include "domains/comm/cvm.hpp"
#include "harness.hpp"
#include "net/network.hpp"

namespace mdsm::bench {

using perfbench::BenchClock;
using perfbench::Ledger;
using perfbench::OpenLoopSchedule;

/// Wall-clock budget for a feed's replies to arrive after its last send.
inline constexpr auto kSettleTimeout = std::chrono::seconds(30);

/// Thread-safe stand-in for the comm services: each invocation sleeps
/// for the configured service latency. Executions whose object id
/// carries the "probe" prefix are counted: bench_cluster's resume row
/// reads that count as its re-execution evidence.
class SimulatedCommService final : public broker::ResourceAdapter {
 public:
  SimulatedCommService(std::string name, std::chrono::microseconds delay)
      : ResourceAdapter(std::move(name)), delay_(delay) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    (void)command;
    auto it = args.find("id");
    if (it != args.end() && it->second.is_string() &&
        it->second.as_string().rfind("probe", 0) == 0) {
      probe_executions_.fetch_add(1, std::memory_order_relaxed);
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    return model::Value(true);
  }

  [[nodiscard]] std::uint64_t probe_executions() const {
    return probe_executions_.load(std::memory_order_relaxed);
  }

 private:
  std::chrono::microseconds delay_;
  std::atomic<std::uint64_t> probe_executions_{0};
};

/// The CVM middleware model with the overload attributes spliced into
/// its MiddlewarePlatform root (bounded queue, reject on overflow,
/// deadline-aware admission), so an overloaded platform sheds with
/// typed refusals instead of collapsing. A positive
/// `checkpoint_interval` also turns on session-state checkpoints.
inline std::string overload_cvm_text(int queue_capacity,
                                     int checkpoint_interval = 0) {
  std::string text(comm::cvm_middleware_model_text());
  const std::string anchor = "domain = \"communication\"";
  std::string attrs = "\n  queue_capacity = " +
                      std::to_string(queue_capacity) +
                      "\n  overflow_policy = reject"
                      "\n  admission = true";
  if (checkpoint_interval > 0) {
    attrs += "\n  checkpoint_interval = " +
             std::to_string(checkpoint_interval);
  }
  text.insert(text.find(anchor) + anchor.size(), attrs);
  return text;
}

/// A one-Connection application model, unique per `rep`.
inline std::string scenario_text(std::size_t rep) {
  std::string id = "c" + std::to_string(rep);
  return "model app_" + id + " conforms cml\nobject Connection " + id +
         " { state = pending }\n";
}

/// Open-loop feed of `total` requests on `schedule`. Request i is opened
/// in `ledger` the instant it is handed to `send(i, entry)`, so its
/// latency counts from the submit call, as perfbench::drive_closed_loop
/// times it. `send` returns false when the submit call itself refused
/// the request (no callback follows). Returns each request's send time.
template <class Send>
std::vector<BenchClock::time_point> feed_open_loop(
    Ledger& ledger, const OpenLoopSchedule& schedule, std::size_t total,
    Send send) {
  std::vector<BenchClock::time_point> sent;
  sent.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    schedule.wait(i);
    const auto now = BenchClock::now();
    const auto entry = ledger.open(now);
    if (!entry.has_value()) break;
    sent.push_back(now);
    if (!send(i, *entry)) ledger.refuse(*entry, BenchClock::now());
  }
  return sent;
}

/// A reply for ledger entry `entry` arrived just now.
inline void resolve_now(Ledger& ledger, std::size_t entry, bool ok) {
  ledger.resolve(entry,
                 ok ? perfbench::Outcome::kOk : perfbench::Outcome::kFailed,
                 BenchClock::now());
}

/// Latency percentiles of a feed's ok replies, late ones included.
struct OkLatency {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

inline OkLatency ok_latency(const Ledger& ledger) {
  std::vector<double> us;
  us.reserve(ledger.opened());
  for (std::size_t i = 0; i < ledger.opened(); ++i) {
    if (const auto ms = ledger.ok_latency_ms(i)) us.push_back(*ms * 1000.0);
  }
  const double p99_us = perfbench::quantile(us, 0.99);
  return {perfbench::median(std::move(us)), p99_us};
}

/// Drives a simulated network from its own thread in wall time: each
/// lap moves the SimClock up to the wall time elapsed since start
/// (tracking the absolute target, so truncation never drifts), delivers
/// what is due, runs `lap` (housekeeping and mid-run kill/join/leave,
/// between delivery batches so they never race a delivery) and sleeps
/// 50 µs. stop() ends the loop and lets every in-flight message land:
/// the clock jumps 2 s, the network drains and `lap` runs once more.
class WallClockPump {
 public:
  WallClockPump(SimClock& sim, net::Network& network,
                std::function<void()> lap = [] {})
      : thread_([this, &sim, &network, lap = std::move(lap)] {
          const auto origin = std::chrono::steady_clock::now();
          Duration advanced{0};
          while (!stop_.load(std::memory_order_acquire)) {
            const auto target = std::chrono::duration_cast<Duration>(
                std::chrono::steady_clock::now() - origin);
            if (target > advanced) {
              sim.advance(target - advanced);
              advanced = target;
            }
            network.deliver_due();
            lap();
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          sim.advance(std::chrono::seconds(2));
          network.run_until_idle();
          lap();
        }) {}
  ~WallClockPump() { stop(); }
  WallClockPump(const WallClockPump&) = delete;
  WallClockPump& operator=(const WallClockPump&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace mdsm::bench
