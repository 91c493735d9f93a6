// The two in-process workloads: Platform::submit_async on the staged
// pipeline with 2 pipeline threads and a 25 ms deadline.
//
//   session_update — full CML models of 16-32 participants, each one
//     small seeded change away from the last; synchronous no-op device.
//     model and synthesis do most of the work.
//   session_churn — fresh small connections in three shapes; a device
//     that completes on the platform's event loop after 1 ms and holds
//     no thread. controller, broker and runtime do most of the work.
//
// Each run: setup (assemble, start, warm the pipeline) five times, a
// closed-loop phase with a fixed window of outstanding requests
// (throughput), then an open-loop phase at a fixed offered rate
// (latency, attainment). The traced run replaces the closed loop with a
// sync layer decomposition and adds the layer probes.
#include <functional>

#include "domains/comm/cml.hpp"
#include "model/text_format.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mdsm;

constexpr unsigned kPipelineThreads = 2;
constexpr int kQueueCapacity = 1024;
/// The latency limit: an ok reply later than this is a miss.
constexpr auto kLatencyLimit = std::chrono::milliseconds(25);
/// The deadline each request carries, enforced by the middleware. Far
/// above the limit, so a host stall makes replies late, never failed.
constexpr auto kDeadline = std::chrono::seconds(2);
constexpr int kSetups = 15;
constexpr std::size_t kWarmupWindow = 8;

struct InProcessSpec {
  const char* name;
  Duration park;        ///< device park time (0: synchronous device)
  double open_rate;     ///< offered requests/s in the open-loop phase
  std::size_t window;   ///< outstanding requests in the closed loop
  std::size_t warmup;   ///< requests through the pipeline during setup
  std::function<std::unique_ptr<RequestSource>(std::uint64_t)> source;
};

/// One phase's ledger plus the command count of each ok reply. Shared
/// with the completion callbacks, so it outlives any that fire late.
struct Phase {
  explicit Phase(std::size_t capacity)
      : ledger(capacity, kLatencyLimit), commands(capacity, 0) {}
  Ledger ledger;
  std::vector<std::uint32_t> commands;
};
using PhasePtr = std::shared_ptr<Phase>;

/// One assembled system under test. Heap-allocated and pinned: the
/// device keeps a pointer to `handle`, callbacks to `ok_commands`.
struct System {
  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  ~System() {
    if (platform != nullptr) (void)platform->stop();  // drains callbacks
  }

  core::Platform* handle = nullptr;
  std::unique_ptr<core::Platform> platform;
  BenchDevice* device = nullptr;
  std::unique_ptr<RequestSource> source;
  std::uint64_t warmup_misses = 0;  ///< warm-up requests not ok in time
  // Facts from the completion callbacks of every phase.
  std::atomic<std::uint64_t> ok_commands{0};   ///< Σ commands, ok scripts
  std::atomic<std::uint64_t> short_scripts{0};  ///< ok scripts missing the
                                                ///< request's own additions
};

/// Submit `text` as request `index` of `phase`; `release` (may be null)
/// runs after the request resolved or was refused.
void submit(System& system, const PhasePtr& phase, std::size_t index,
            std::string text, int additions, std::function<void()> release) {
  core::SubmitOptions options;
  options.deadline = std::chrono::duration_cast<Duration>(kDeadline);
  Status queued = system.platform->submit_async(
      std::move(text),
      [&system, phase, index, additions,
       release](Result<controller::ControlScript> outcome) {
        const auto now = BenchClock::now();
        if (outcome.ok()) {
          const std::size_t commands = outcome->commands.size();
          phase->commands[index] = static_cast<std::uint32_t>(commands);
          system.ok_commands.fetch_add(commands, std::memory_order_relaxed);
          if (commands < static_cast<std::size_t>(additions)) {
            system.short_scripts.fetch_add(1, std::memory_order_relaxed);
          }
        }
        phase->ledger.resolve(index,
                              outcome.ok() ? Outcome::kOk : Outcome::kFailed,
                              now);
        if (release) release();
      },
      options);
  if (!queued.ok()) {
    phase->ledger.refuse(index, BenchClock::now());
    if (release) release();
  }
}

/// A request off the workload's source, ready to send.
struct Request {
  std::string text;
  int additions = 0;  ///< commands its own new objects need
};

Request next_request(System& system) {
  std::string text = system.source->next();
  return {std::move(text), system.source->last_additions()};
}

void closed_loop(System& system, const PhasePtr& phase, std::size_t window,
                 std::size_t max_requests, BenchClock::time_point until) {
  drive_closed_loop(
      phase->ledger, window, max_requests, until,
      [&system] { return next_request(system); },
      [&system, &phase](Request request, std::size_t index,
                        std::function<void()> release) {
        submit(system, phase, index, std::move(request.text),
               request.additions, std::move(release));
      });
}

std::vector<double> open_loop(System& system, const PhasePtr& phase,
                              double rate, double seconds) {
  return drive_open_loop(
      phase->ledger, rate, seconds, [&system] { return next_request(system); },
      [&system, &phase](Request request, std::size_t index) {
        submit(system, phase, index, std::move(request.text),
               request.additions, nullptr);
      });
}

Result<std::unique_ptr<System>> setup(const InProcessSpec& spec,
                                      std::uint64_t seed, Report& report) {
  auto system = std::make_unique<System>();
  system->source = spec.source(seed);
  core::PlatformConfig config;
  config.dsml = comm::cml_metamodel();
  config.pipeline_threads = kPipelineThreads;
  auto platform = core::Platform::assemble_from_text(
      overload_cvm_text(kQueueCapacity, 0), config);
  if (!platform.ok()) return platform.status();
  system->platform = std::move(platform.value());
  system->handle = system->platform.get();
  auto device = std::make_unique<BenchDevice>(&system->handle, spec.park);
  system->device = device.get();
  MDSM_RETURN_IF_ERROR(system->platform->add_resource_adapter(std::move(device)));
  MDSM_RETURN_IF_ERROR(system->platform->start());
  // Warm-up: start the pipeline and fill caches with real traffic, a
  // few requests at a time so no warm-up request queues behind others.
  auto warmup = std::make_shared<Phase>(spec.warmup);
  closed_loop(*system, warmup, kWarmupWindow, spec.warmup,
              BenchClock::time_point::max());
  const auto summary = warmup->ledger.summarize();
  report.check(summary.exactly_once(), "warm-up: a request did not resolve "
                                       "exactly once");
  system->warmup_misses = summary.attempted - summary.ok;
  return system;
}

/// Exactly-once and device accounting over the phases of the kept
/// system (its warm-up included).
void check_phases(const std::vector<const Ledger::Summary*>& phases,
                  const System& system, Report& report) {
  std::uint64_t misses = system.warmup_misses;
  for (const auto* summary : phases) {
    report.check(summary->exactly_once(),
                 "a submission did not resolve exactly once (unresolved=" +
                     std::to_string(summary->unresolved) + ", duplicates=" +
                     std::to_string(summary->duplicates) +
                     ", after refusal=" +
                     std::to_string(summary->resolved_after_refusal) + ")");
    misses += summary->failed + summary->refused;
  }
  report.check(system.short_scripts.load() == 0,
               "an ok script lacks commands for its request's own objects");
  // Every command of an ok script reached the device exactly once or was
  // counted as a controller error (execute_script reports a failed
  // command on the bus and carries on). A failed request may have run
  // part of its script, so equality is only required when nothing failed.
  const std::uint64_t invocations = system.device->invocations();
  const std::uint64_t errors =
      system.platform->metrics().snapshot().counter_value("controller.errors");
  const std::uint64_t commands = system.ok_commands.load();
  report.note("controller_errors", static_cast<double>(errors));
  if (misses == 0) {
    report.check(invocations + errors == commands,
                 "device invocations (" + std::to_string(invocations) +
                     ") + controller errors (" + std::to_string(errors) +
                     ") != commands of the returned scripts (" +
                     std::to_string(commands) + ")");
  } else {
    report.check(invocations + errors >= commands,
                 "device invocations + controller errors below the "
                 "commands of ok scripts");
  }
}

/// session_update only: after the stream, one more request alone; the
/// runtime model must then be exactly that model.
void check_final_model(System& system, Report& report) {
  const std::string text = system.source->next();
  auto last = std::make_shared<Phase>(1);
  const auto index = last->ledger.open(BenchClock::now());
  submit(system, last, *index, text, 0, nullptr);
  last->ledger.wait_settled(std::chrono::seconds(10));
  const auto summary = last->ledger.summarize();
  report.check(summary.ok + summary.late_ok == 1,
               "final session_update request did not complete ok");
  auto parsed = model::parse_model(text, comm::cml_metamodel());
  report.check(parsed.ok() && system.platform->runtime_model_text() ==
                                  model::serialize_model(*parsed),
               "runtime model differs from the last model submitted");
}

Report run_inprocess(const InProcessSpec& spec, const Options& options) {
  Report report;
  report.note("offered_rate_rps", spec.open_rate);
  report.note("closed_loop_window", static_cast<double>(spec.window));
  report.note("pipeline_threads", static_cast<double>(kPipelineThreads));
  report.note("latency_limit_ms", to_ms(kLatencyLimit));
  report.note("deadline_ms", to_ms(kDeadline));

  // Set up several times; keep the last system.
  std::unique_ptr<System> system;
  StepTimes setup_times;
  const int setups = options.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    system.reset();
    auto made =
        setup_times.time([&] { return setup(spec, options.seed, report); });
    if (!made.ok()) {
      report.check(false, "setup failed: " + made.status().to_string());
      return report;
    }
    system = std::move(made.value());
  }

  report.note("warmup_misses", static_cast<double>(system->warmup_misses));
  if (!options.trace) {
    const double closed_s = kClosedShare * options.seconds;
    const double open_s = options.seconds - closed_s;
    const auto capacity =
        static_cast<std::size_t>(closed_s * kClosedCapacityRps) + 1000;
    auto closed = std::make_shared<Phase>(capacity);
    PhaseSampler sampler = sample_phase(closed->ledger);
    const auto until =
        BenchClock::now() + std::chrono::duration_cast<BenchClock::duration>(
                                std::chrono::duration<double>(closed_s));
    closed_loop(*system, closed, spec.window, SIZE_MAX, until);
    const SliceFigures slices = slice_figures(sampler.stop());
    report.check(closed->ledger.opened() < capacity,
                 "the closed loop filled its ledger before the phase ended");

    auto open = std::make_shared<Phase>(
        static_cast<std::size_t>(open_s * spec.open_rate) + 16);
    const std::vector<double> late_us =
        open_loop(*system, open, spec.open_rate, open_s);
    report.check(open->ledger.wait_settled(std::chrono::seconds(30)),
                 "open-loop requests still unresolved after 30 s");
    if (std::string(spec.name) == "session_update") {
      check_final_model(*system, report);
    }
    (void)system->platform->stop();

    const auto c = closed->ledger.summarize();
    const auto o = open->ledger.summarize(window_count(open->ledger.opened()));
    check_phases({&c, &o}, *system, report);
    report_end_to_end(report, setup_times, slices, c, o, late_us);
    return report;
  }

  // ---- traced run ------------------------------------------------------
  const SyncLayers sync =
      probe_sync_layers(overload_cvm_text(kQueueCapacity, 0),
                        *spec.source(options.seed + 1), 0.3 * options.seconds,
                        report);
  report.check(sync.sum_ratio >= 0.9,
               "layer timings cover less than 0.9 of the sync end-to-end time");

  core::Platform& platform = *system->platform;
  const obs::MetricsSnapshot before = platform.metrics().snapshot();
  const auto generator_before = platform.controller().generator().stats();
  const std::uint64_t invocations_before = system->device->invocations();
  system->device->set_timed(true);
  const double open_s = 0.4 * options.seconds;
  auto open = std::make_shared<Phase>(
      static_cast<std::size_t>(open_s * spec.open_rate) + 16);
  const std::vector<double> late_us =
      open_loop(*system, open, spec.open_rate, open_s);
  report.check(open->ledger.wait_settled(std::chrono::seconds(30)),
               "open-loop requests still unresolved after 30 s");
  system->device->set_timed(false);
  const obs::MetricsSnapshot after = platform.metrics().snapshot();
  const auto generator_after = platform.controller().generator().stats();
  const auto o = open->ledger.summarize(window_count(open->ledger.opened()));

  // Async overhead: per ok reply, latency minus the device's park time
  // (one park per command), against the sync sum of parts.
  std::vector<double> async_us;
  for (std::size_t i = 0; i < open->ledger.opened(); ++i) {
    if (const auto latency = open->ledger.ok_latency_ms(i)) {
      async_us.push_back(*latency * 1000.0 -
                         static_cast<double>(spec.park.count()) *
                             static_cast<double>(open->commands[i]));
    }
  }
  report.add("runtime.async_overhead_us", "us",
             median(async_us) - sync.parts_median_us);

  const std::uint64_t invocations =
      system->device->invocations() - invocations_before;
  const double ok_count = static_cast<double>(std::max<std::uint64_t>(
      o.ok + o.late_ok, 1));
  report.add("broker.invocations_per_request", "count",
             static_cast<double>(invocations) / ok_count);
  report.add("broker.adapter_us", "us",
             invocations == 0 ? 0.0
                              : static_cast<double>(system->device->busy_ns()) /
                                    static_cast<double>(invocations) / 1000.0);
  const double hits = static_cast<double>(generator_after.cache_hits -
                                          generator_before.cache_hits);
  const double misses = static_cast<double>(generator_after.cache_misses -
                                            generator_before.cache_misses);
  report.add("controller.im_cache_hit_ratio", "ratio",
             hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  for (const char* stage : {"synthesis", "controller", "broker", "complete"}) {
    const std::string name = std::string("stage.") + stage + ".delay_us";
    const auto* b = before.histogram(name);
    const auto* a = after.histogram(name);
    const double count = static_cast<double>(
        (a ? a->count : 0) - (b ? b->count : 0));
    const double sum = static_cast<double>(
        (a ? a->sum_us : 0) - (b ? b->sum_us : 0));
    report.add(std::string("runtime.stage_wait_us.") + stage, "us",
               count > 0.0 ? sum / count : 0.0);
  }
  report.add("runtime.max_bounded_pending", "count",
             static_cast<double>(platform.pipeline_stats().max_bounded_pending));
  report.add("bench.generator_late_p99_us", "us",
             tail_percentile(late_us, 0.99).value_or(0.0));
  // Layers a single in-process platform never crosses.
  report.add("net.deliver_busy_us_per_request", "us", 0.0);
  report.add("net.messages_per_request", "count", 0.0);
  report.add("cluster.checkpoints_per_request", "count", 0.0);
  report.add("cluster.replication_delta_bytes", "bytes", 0.0);
  report.add("cluster.maintain_us", "us", 0.0);
  report.note("async_ok_replies", static_cast<double>(async_us.size()));

  if (std::string(spec.name) == "session_update") {
    check_final_model(*system, report);
  }
  check_phases({&o}, *system, report);
  probe_platform(platform, system->source->next(), *system->source, report);
  probe_paper_rows(report);
  report.attempted += o.attempted;
  report.failed += o.failed + o.refused;
  note_outcomes(report, o, "open");
  return report;
}

}  // namespace

Report run_session_update(const Options& options) {
  InProcessSpec spec{
      .name = "session_update",
      .park = Duration(0),
      .open_rate = 1700.0,
      .window = 16,
      .warmup = 400,
      .source = [](std::uint64_t seed) -> std::unique_ptr<RequestSource> {
        return std::make_unique<UpdateSource>(seed);
      }};
  return run_inprocess(spec, options);
}

Report run_session_churn(const Options& options) {
  InProcessSpec spec{
      .name = "session_churn",
      .park = Duration(1000),
      .open_rate = 3500.0,
      .window = 64,
      .warmup = 400,
      .source = [](std::uint64_t seed) -> std::unique_ptr<RequestSource> {
        return std::make_unique<ChurnSource>(seed);
      }};
  return run_inprocess(spec, options);
}

}  // namespace perfbench
