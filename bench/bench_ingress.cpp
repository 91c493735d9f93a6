// Ingress bench (PR 7): what does the networked front-end cost? The same
// CVM platform is loaded two ways at each offered-load multiplier —
//
//   in-process:    the open-loop feed calls submit_async() directly
//                  (the PR-5/PR-6 baseline);
//   over-the-wire: an IngressClient submits through the simulated
//                  network into an IngressServer, whose router +
//                  middleware chain hand the request to the same
//                  submit_async(), and every outcome travels back as a
//                  typed reply.
//
// A WallClockPump slaves the network's SimClock to real time, so wire
// latency (100us each way here) and codec/routing overhead show up in
// the measured latencies exactly once. Both modes feed, count and time
// through perfbench/harness.hpp (via bench_support.hpp): each request is
// timed from its submit call. Per (mode, multiplier) we record goodput
// (every ok reply), typed-refusal counts, p50/p99 of the successful
// requests and late_ok — ok replies after the 25 ms deadline, reported
// but not gated.
//
// Pass criteria (recorded in BENCH_7.json): over-the-wire goodput at 1x
// stays within 70% of in-process goodput at 1x — the front-end may tax
// each request with codec + two hops, but it must not throttle a
// pipeline that is keeping up — and every request in every row resolves
// exactly once. At 10x both deployments shed via the overload
// admission gates; the wire rows show the refusals arriving as typed
// replies instead of silence.
//
// Output: human summary on stderr, one JSON document on stdout so
// run_benches.sh can record the rows in BENCH_7.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "common/log.hpp"
#include "core/platform.hpp"
#include "domains/comm/cml.hpp"
#include "ingress/ingress_client.hpp"
#include "ingress/ingress_server.hpp"
#include "net/network.hpp"

namespace {

using namespace mdsm;
using namespace mdsm::bench;

struct BenchConfig {
  int pipeline_threads = 4;
  int queue_capacity = 64;
  int service_delay_us = 300;
  int deadline_ms = 25;
  int wire_latency_us = 100;
  double seconds_per_step = 1.0;
  bool json_only = false;
};

enum class Mode { kInProcess, kOverTheWire };

struct Row {
  Mode mode = Mode::kInProcess;
  double multiplier = 0.0;
  double offered_rps = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;  ///< every ok reply, late ones included
  std::uint64_t late_ok = 0;       ///< ok replies after the deadline
  std::uint64_t refused = 0;  ///< door refusals + typed refusal replies
  bool exactly_once = false;  ///< one terminal outcome per request
  double goodput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

Result<std::unique_ptr<core::Platform>> make_platform(
    const BenchConfig& config) {
  core::PlatformConfig platform_config;
  platform_config.dsml = comm::cml_metamodel();
  platform_config.pipeline_threads =
      static_cast<unsigned>(config.pipeline_threads);
  auto assembled = core::Platform::assemble_from_text(
      overload_cvm_text(config.queue_capacity), platform_config);
  if (!assembled.ok()) return assembled.status();
  auto platform = std::move(assembled.value());
  MDSM_RETURN_IF_ERROR(platform->add_resource_adapter(
      std::make_unique<SimulatedCommService>(
          "comm", std::chrono::microseconds(config.service_delay_us))));
  MDSM_RETURN_IF_ERROR(platform->start());
  return platform;
}

/// Offered load and request count of one (mode, multiplier) step.
struct Step {
  Step(const BenchConfig& config, Mode mode, double multiplier,
       double capacity_rps)
      : offered_rps(multiplier * capacity_rps),
        total(static_cast<std::size_t>(offered_rps *
                                       config.seconds_per_step)),
        ledger(total, std::chrono::milliseconds(config.deadline_ms)),
        schedule(BenchClock::now(), offered_rps) {
    row.mode = mode;
    row.multiplier = multiplier;
    row.offered_rps = offered_rps;
  }

  /// Fill the row once the feed settled (or gave up waiting).
  Row finish() {
    const double elapsed_s =
        perfbench::to_s(BenchClock::now() - schedule.start());
    const Ledger::Summary summary = ledger.summarize();
    row.submitted = summary.attempted;
    row.completed_ok = summary.ok + summary.late_ok;
    row.late_ok = summary.late_ok;
    row.refused = summary.failed + summary.refused;
    row.exactly_once = summary.exactly_once();
    row.goodput_rps = elapsed_s > 0.0
                          ? static_cast<double>(row.completed_ok) / elapsed_s
                          : 0.0;
    const OkLatency latency = ok_latency(ledger);
    row.p50_us = latency.p50_us;
    row.p99_us = latency.p99_us;
    return row;
  }

  double offered_rps;
  std::size_t total;
  Ledger ledger;
  OpenLoopSchedule schedule;
  Row row;
};

Result<Row> run_in_process(const BenchConfig& config, double multiplier,
                           double capacity_rps) {
  auto platform = make_platform(config);
  if (!platform.ok()) return platform.status();
  core::SubmitOptions options;
  options.deadline = std::chrono::milliseconds(config.deadline_ms);

  Step step(config, Mode::kInProcess, multiplier, capacity_rps);
  Ledger& ledger = step.ledger;
  feed_open_loop(ledger, step.schedule, step.total,
                 [&](std::size_t i, std::size_t entry) {
                   return platform.value()
                       ->submit_async(
                           scenario_text(i),
                           [&ledger, entry](
                               Result<controller::ControlScript> outcome) {
                             resolve_now(ledger, entry, outcome.ok());
                           },
                           options)
                       .ok();
                 });
  (void)ledger.wait_settled(kSettleTimeout);
  Row row = step.finish();
  MDSM_RETURN_IF_ERROR(platform.value()->stop());
  return row;
}

Result<Row> run_over_the_wire(const BenchConfig& config, double multiplier,
                              double capacity_rps) {
  auto platform = make_platform(config);
  if (!platform.ok()) return platform.status();

  SimClock sim;
  net::NetworkConfig network_config;
  network_config.base_latency =
      std::chrono::microseconds(config.wire_latency_us);
  network_config.jitter = Duration(0);
  network_config.drop_rate = 0.0;
  net::Network network(sim, network_config);

  auto server = ingress::IngressServer::attach(*platform.value(), network);
  if (!server.ok()) return server.status();
  auto client =
      ingress::IngressClient::attach(network, server.value()->endpoint_name());
  if (!client.ok()) return client.status();

  // Requests into the server's handler, replies back into the client's.
  WallClockPump pump(sim, network);

  ingress::RemoteSubmitOptions options;
  options.deadline = std::chrono::milliseconds(config.deadline_ms);
  Step step(config, Mode::kOverTheWire, multiplier, capacity_rps);
  Ledger& ledger = step.ledger;
  feed_open_loop(ledger, step.schedule, step.total,
                 [&](std::size_t i, std::size_t entry) {
                   return client.value()
                       ->submit(
                           "cml", "s" + std::to_string(i), scenario_text(i),
                           [&ledger,
                            entry](const ingress::RemoteOutcome& outcome) {
                             resolve_now(ledger, entry, outcome.status.ok());
                           },
                           options)
                       .ok();
                 });
  // Every request resolves: success reply, typed refusal reply, or (with
  // a lossless link, only if something went badly wrong) expiry.
  if (!ledger.wait_settled(kSettleTimeout)) {
    sim.advance(std::chrono::minutes(10));
    client.value()->expire_overdue();
  }
  Row row = step.finish();

  MDSM_RETURN_IF_ERROR(platform.value()->stop());
  pump.stop();
  client.value().reset();
  server.value().reset();
  return row;
}

void print_row_json(const Row& row, bool last) {
  std::printf(
      "    {\"mode\": \"%s\", \"multiplier\": %.1f, \"offered_rps\": %.0f, "
      "\"submitted\": %llu, \"completed_ok\": %llu, \"late_ok\": %llu, "
      "\"refused\": %llu, \"exactly_once\": %s, \"goodput_rps\": %.1f, "
      "\"p50_us\": %.1f, \"p99_us\": %.1f}%s\n",
      row.mode == Mode::kInProcess ? "in-process" : "wire", row.multiplier,
      row.offered_rps, static_cast<unsigned long long>(row.submitted),
      static_cast<unsigned long long>(row.completed_ok),
      static_cast<unsigned long long>(row.late_ok),
      static_cast<unsigned long long>(row.refused),
      row.exactly_once ? "true" : "false", row.goodput_rps, row.p50_us,
      row.p99_us, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      config.seconds_per_step = 0.2;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      config.seconds_per_step = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--service-delay-us") == 0 &&
               i + 1 < argc) {
      config.service_delay_us = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--wire-latency-us") == 0 &&
               i + 1 < argc) {
      config.wire_latency_us = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--seconds S] [--service-delay-us D] "
                   "[--wire-latency-us L] [--json]\n",
                   argv[0]);
      return 2;
    }
  }
  set_log_level(LogLevel::kOff);

  // Nominal pipeline capacity, as in bench_overload: each request costs
  // two serialized service invocations on one worker.
  const double request_cost_s = 2.0 * config.service_delay_us * 1e-6;
  const double capacity_rps =
      static_cast<double>(config.pipeline_threads) / request_cost_s;

  const double multipliers[] = {1.0, 10.0};
  std::vector<Row> rows;
  for (double multiplier : multipliers) {
    for (Mode mode : {Mode::kInProcess, Mode::kOverTheWire}) {
      auto row = mode == Mode::kInProcess
                     ? run_in_process(config, multiplier, capacity_rps)
                     : run_over_the_wire(config, multiplier, capacity_rps);
      if (!row.ok()) {
        std::fprintf(stderr, "bench step failed: %s\n",
                     row.status().to_string().c_str());
        return 1;
      }
      rows.push_back(std::move(row.value()));
    }
  }

  double inproc_1x = 0.0;
  double wire_1x = 0.0;
  bool exactly_once = true;
  if (!config.json_only) {
    std::fprintf(stderr, "%12s %6s %12s %10s %10s %8s %9s %10s %10s\n",
                 "mode", "mult", "offered/s", "goodput/s", "ok", "late ok",
                 "refused", "p50 us", "p99 us");
  }
  for (const Row& row : rows) {
    exactly_once = exactly_once && row.exactly_once;
    if (row.multiplier == 1.0 && row.mode == Mode::kInProcess) {
      inproc_1x = row.goodput_rps;
    }
    if (row.multiplier == 1.0 && row.mode == Mode::kOverTheWire) {
      wire_1x = row.goodput_rps;
    }
    if (!config.json_only) {
      std::fprintf(
          stderr,
          "%12s %6.1f %12.0f %10.1f %10llu %8llu %9llu %10.1f %10.1f\n",
          row.mode == Mode::kInProcess ? "in-process" : "wire", row.multiplier,
          row.offered_rps, row.goodput_rps,
          static_cast<unsigned long long>(row.completed_ok),
          static_cast<unsigned long long>(row.late_ok),
          static_cast<unsigned long long>(row.refused), row.p50_us,
          row.p99_us);
    }
  }
  const double ratio = inproc_1x > 0.0 ? wire_1x / inproc_1x : 0.0;
  const bool pass = ratio >= 0.7 && exactly_once;
  if (!config.json_only) {
    std::fprintf(stderr,
                 "\nwire goodput at 1x vs in-process: %.2f (target >= 0.70), "
                 "exactly once: %s\n",
                 ratio, exactly_once ? "yes" : "NO");
  }

  std::printf("{\n  \"bench\": \"ingress\", \"scenario\": \"cvm_split\", "
              "\"pipeline_threads\": %d, \"queue_capacity\": %d, "
              "\"service_delay_us\": %d, \"deadline_ms\": %d, "
              "\"wire_latency_us\": %d, \"capacity_rps\": %.0f,\n"
              "  \"rows\": [\n",
              config.pipeline_threads, config.queue_capacity,
              config.service_delay_us, config.deadline_ms,
              config.wire_latency_us, capacity_rps);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    print_row_json(rows[i], i + 1 == rows.size());
  }
  std::printf("  ],\n  \"wire_vs_in_process_1x\": %.3f, "
              "\"exactly_once\": %s, \"pass\": %s\n}\n",
              ratio, exactly_once ? "true" : "false", pass ? "true" : "false");
  return pass ? 0 : 1;
}
