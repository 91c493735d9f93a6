// The event-driven staged pipeline (PR 6): cross-thread span parentage,
// deadline expiry while a request is parked, N concurrent retrying
// requests progressing on fewer than N executor threads, and parity
// between the sync and staged entry points, which run the same request
// driver and the same per-layer run loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "broker/invocation_policy.hpp"
#include "common/log.hpp"
#include "core/platform.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/cvm.hpp"
#include "soak_fixtures.hpp"

namespace mdsm::core {
namespace {

/// Fails the first `failures` executions with a retryable fault, then
/// succeeds — deterministic fuel for retry-path tests.
class FlakyAdapter final : public broker::ResourceAdapter {
 public:
  FlakyAdapter(std::string name, int failures)
      : ResourceAdapter(std::move(name)), remaining_(failures) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args& args) override {
    (void)args;
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      return Unavailable("injected transient fault");
    }
    return model::Value("done:" + command);
  }

  [[nodiscard]] std::uint64_t executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<int> remaining_;
};

/// Completes asynchronously on the platform's event loop after `delay`
/// of loop-clock time — the request parks in the broker stage with no
/// worker held while the "device" is busy.
class ParkingAdapter final : public broker::ResourceAdapter {
 public:
  ParkingAdapter(std::string name, Platform** platform, Duration delay)
      : ResourceAdapter(std::move(name)), platform_(platform), delay_(delay) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args&) override {
    return model::Value("sync:" + command);  // unused; async path below
  }

  void execute_async(const std::string& command, const broker::Args&,
                     Completion done) override {
    started_.fetch_add(1, std::memory_order_relaxed);
    (*platform_)->event_loop()->schedule(
        delay_, [command, done = std::move(done)] {
          done(model::Value("late:" + command));
        });
  }

  [[nodiscard]] std::uint64_t started() const noexcept {
    return started_.load(std::memory_order_relaxed);
  }

 private:
  Platform** platform_;
  Duration delay_;
  std::atomic<std::uint64_t> started_{0};
};

struct StagedFixture {
  model::MetamodelPtr dsml;
  std::unique_ptr<Platform> platform;
};

StagedFixture make_staged_platform(PlatformConfig config,
                                   std::unique_ptr<broker::ResourceAdapter>
                                       adapter) {
  StagedFixture out;
  out.dsml = model::testing::make_test_metamodel();
  config.dsml = out.dsml;
  auto assembled =
      Platform::assemble_from_text(soak::kSoakMiddlewareModel, config);
  if (!assembled.ok()) return out;
  out.platform = std::move(assembled.value());
  if (!out.platform->add_resource_adapter(std::move(adapter)).ok() ||
      !out.platform->start().ok()) {
    out.platform.reset();
  }
  return out;
}

// Satellite (PR 6): a request crossing every stage on different workers
// — including a retry that parks on the event loop and resumes on yet
// another thread — must still produce ONE nested span tree: exactly one
// root, every other span reachable from it, nothing left open.
TEST(Staged, CrossThreadSpanParentageStaysOneTree) {
  PlatformConfig config;
  config.pipeline_threads = 4;
  auto fixture = make_staged_platform(
      config, std::make_unique<FlakyAdapter>("svc", /*failures=*/1));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  broker::InvocationPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = Duration(200);  // real microseconds, loop timer
  ASSERT_TRUE(platform.broker().resources().set_policy("svc", policy).ok());

  std::atomic<int> done{0};
  ASSERT_TRUE(platform
                  .submit_async(soak::open_session_text("s1"),
                                [&done](Result<controller::ControlScript> r) {
                                  EXPECT_TRUE(r.ok()) << r.status().to_string();
                                  ++done;
                                })
                  .ok());
  while (done.load() != 1) std::this_thread::yield();
  EXPECT_TRUE(platform.stop().ok());

  auto context = platform.last_async_context();
  ASSERT_NE(context, nullptr);
  const obs::Trace& trace = context->trace();
  EXPECT_TRUE(trace.all_closed());
  // Exactly one root, and it is the UI-layer submission span.
  std::size_t roots = 0;
  for (const obs::Span& span : trace.spans()) {
    if (span.parent == 0) {
      ++roots;
      EXPECT_EQ(span.name, "ui.submit");
    } else {
      // No orphans: every non-root span's parent is in the same tree.
      EXPECT_NE(trace.find_id(span.parent), nullptr)
          << span.name << " lost its parent across a thread hop";
    }
  }
  EXPECT_EQ(roots, 1u);
  // The request crossed all four layers...
  EXPECT_EQ(trace.count("runtime.queue"), 1u);
  EXPECT_EQ(trace.count("synthesis.submit"), 1u);
  EXPECT_EQ(trace.count("controller.script"), 1u);
  EXPECT_GE(trace.count("broker.call"), 1u);
  // ...and the flaky resource forced a second attempt, so the trace
  // provably spans a park/resume hop through the event loop.
  EXPECT_GE(trace.count("broker.attempt"), 2u);
}

// Satellite (PR 6): a deadline that expires while the request is parked
// between stages (virtual clock) fires exactly one kTimeout callback at
// expiry — not when a stage eventually notices — and the parked
// continuation is released and cleaned up, not leaked.
TEST(Staged, DeadlineExpiryWhileParkedFiresExactlyOnce) {
  set_log_level(LogLevel::kOff);
  SimClock sim;
  Platform* platform_handle = nullptr;
  PlatformConfig config;
  config.clock = &sim;
  config.pipeline_threads = 1;
  config.manual_event_loop = true;
  auto fixture = make_staged_platform(
      config, std::make_unique<ParkingAdapter>(
                  "svc", &platform_handle, std::chrono::seconds(1)));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  platform_handle = &platform;

  std::atomic<int> callbacks{0};
  std::atomic<int> timeouts{0};
  SubmitOptions options;
  options.deadline = std::chrono::milliseconds(100);
  ASSERT_TRUE(platform
                  .submit_async(soak::open_session_text("s1"),
                                [&](Result<controller::ControlScript> r) {
                                  ++callbacks;
                                  if (r.status().code() == ErrorCode::kTimeout)
                                    ++timeouts;
                                },
                                options)
                  .ok());
  // Two timers pending = the deadline watchdog + the parked attempt's
  // completion: the request is suspended with no worker held.
  runtime::EventLoop* loop = platform.event_loop();
  ASSERT_NE(loop, nullptr);
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (loop->pending_timers() < 2 &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(loop->pending_timers(), 2u);
  EXPECT_EQ(callbacks.load(), 0);

  // Virtual time passes the deadline while the request is still parked:
  // the watchdog fires on this poll, the adapter's timer does not.
  sim.advance(std::chrono::milliseconds(200));
  loop->poll();
  EXPECT_EQ(callbacks.load(), 1);
  EXPECT_EQ(timeouts.load(), 1);
  EXPECT_EQ(
      platform.metrics().snapshot().counter_value("ui.watchdog_timeouts"),
      1u);

  // Release the parked continuation: the late completion resumes the
  // chain, which observes the resolved flag and cleans up — it must NOT
  // deliver a second callback.
  sim.advance(std::chrono::seconds(2));
  loop->poll();
  EXPECT_TRUE(platform.stop().ok());  // no leaked inflight slot
  EXPECT_EQ(callbacks.load(), 1);     // exactly once, ever
  set_log_level(LogLevel::kWarn);
}

// Acceptance (PR 6): N concurrent requests all in retry backoff make
// progress on ONE executor thread — backoff parks on the event loop
// instead of sleeping the worker, so a single worker serves all first
// attempts, parks all N, then serves all retries after virtual time
// advances.
TEST(Staged, ConcurrentRetriesProgressOnOneWorkerThread) {
  set_log_level(LogLevel::kOff);
  constexpr int kRequests = 4;
  SimClock sim;
  PlatformConfig config;
  config.clock = &sim;
  config.pipeline_threads = 1;  // fewer threads than retrying requests
  config.manual_event_loop = true;
  auto fixture = make_staged_platform(
      config, std::make_unique<FlakyAdapter>("svc", kRequests));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  auto* svc = static_cast<FlakyAdapter*>(
      platform.broker().resources().find_adapter("svc"));
  broker::InvocationPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = std::chrono::milliseconds(50);
  ASSERT_TRUE(platform.broker().resources().set_policy("svc", policy).ok());

  std::atomic<int> completed_ok{0};
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(platform
                    .submit_async(
                        soak::open_session_text("s" + std::to_string(i)),
                        [&](Result<controller::ControlScript> r) {
                          if (r.ok()) ++completed_ok;
                        })
                    .ok());
  }
  // All N first attempts fail and park in backoff without any poll: the
  // single worker was never held across a backoff sleep.
  runtime::EventLoop* loop = platform.event_loop();
  ASSERT_NE(loop, nullptr);
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (loop->pending_timers() < kRequests &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(loop->pending_timers(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(svc->executed(), static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(completed_ok.load(), 0);

  // One tick of virtual time releases every parked request; the same
  // single worker runs all N retries to completion.
  sim.advance(std::chrono::seconds(10));
  loop->poll();
  while (completed_ok.load() != kRequests &&
         std::chrono::steady_clock::now() < wall_deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(completed_ok.load(), kRequests);
  // Every first attempt retried once; later scripts also close the
  // previous session (the model diff), so there are at least 2N calls.
  EXPECT_GE(svc->executed(), static_cast<std::uint64_t>(2 * kRequests));
  EXPECT_TRUE(platform.stop().ok());
  EXPECT_EQ(platform.metrics().snapshot().counter_value("broker.retries"),
            static_cast<std::uint64_t>(kRequests));
  set_log_level(LogLevel::kWarn);
}

// Per-stage queue visibility: the staged pipeline reports depth/entered
// counters for its two stages, the entry (`synthesis`) and the resume
// after a park (`broker`). A request that never parks runs to completion
// on its entry task: it costs exactly one executor task.
TEST(Staged, StageStatsExposePerStageCounters) {
  PlatformConfig config;
  config.pipeline_threads = 2;
  auto fixture = make_staged_platform(
      config, std::make_unique<FlakyAdapter>("svc", 0));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(platform
                    .submit_async(
                        soak::open_session_text("s" + std::to_string(i)),
                        [&done](Result<controller::ControlScript> r) {
                          EXPECT_TRUE(r.ok());
                          ++done;
                        })
                    .ok());
  }
  while (done.load() != 3) std::this_thread::yield();
  EXPECT_TRUE(platform.stop().ok());
  const auto stats = platform.stage_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "synthesis");
  EXPECT_EQ(stats[1].name, "broker");
  EXPECT_EQ(stats[0].entered, 3u);
  EXPECT_EQ(stats[1].entered, 0u);  // inline adapter: nothing parked
  // Per-stage delay histograms landed in the registry, and the executor
  // dequeued one task per request.
  const auto snapshot = platform.metrics().snapshot();
  const auto* entry_delay = snapshot.histogram("stage.synthesis.delay_us");
  ASSERT_NE(entry_delay, nullptr);
  EXPECT_EQ(entry_delay->count, 3u);
  EXPECT_NE(snapshot.histogram("stage.broker.delay_us"), nullptr);
  const auto* queue_delay = snapshot.histogram("runtime.queue_delay_us");
  ASSERT_NE(queue_delay, nullptr);
  EXPECT_EQ(queue_delay->count, 3u);
}

/// Fails the invocations whose 1-based sequence numbers are listed, and
/// succeeds every other one: the same fault schedule for every platform
/// that replays the same commands.
class ScheduledFaultAdapter final : public broker::ResourceAdapter {
 public:
  ScheduledFaultAdapter(std::string name, std::vector<int> failing)
      : ResourceAdapter(std::move(name)), failing_(std::move(failing)) {}

  Result<model::Value> execute(const std::string& command,
                               const broker::Args&) override {
    const int call = ++calls_;
    if (std::find(failing_.begin(), failing_.end(), call) != failing_.end()) {
      return Unavailable("scheduled fault on call " + std::to_string(call));
    }
    return model::Value(name() + ":" + command);
  }

 private:
  std::vector<int> failing_;
  std::atomic<int> calls_{0};
};

/// Everything one submission left behind that both entry points must
/// agree on: the resource commands, the controller/broker counters and
/// the controller/broker span names.
struct LayerFootprint {
  std::vector<std::string> commands;
  std::map<std::string, std::uint64_t> counters;
  std::multiset<std::string> spans;
};

LayerFootprint footprint(Platform& platform, const obs::Trace& trace) {
  const auto layered = [](std::string_view name) {
    return name.starts_with("controller.") || name.starts_with("broker.");
  };
  LayerFootprint out;
  out.commands = platform.trace().snapshot();
  for (const auto& row : platform.metrics().snapshot().counters) {
    if (row.value != 0 && layered(row.name)) {
      out.counters[row.name] = row.value;
    }
  }
  for (const obs::Span& span : trace.spans()) {
    if (layered(span.name)) out.spans.insert(span.name);
  }
  return out;
}

// One run loop per layer: the sync entry (submit_model_text, every
// layer settling inline) and the staged one (submit_async, parking its
// retry backoff on a manual event loop) run the same CVM script against
// the same fault schedule — a retried command, and one that exhausts its
// retries and degrades to the fallback — and must leave identical
// footprints in the broker trace, the counters and the span tree.
TEST(Staged, SyncAndStagedEntriesLeaveTheSameFootprint) {
  set_log_level(LogLevel::kOff);
  const std::string script_text =
      "model app conforms cml\n"
      "object Connection c1 {\n  state = pending\n"
      "  child participants Participant pa { address = \"a@net\" }\n"
      "  child participants Participant pb { address = \"b@net\" }\n"
      "  child media Medium m1 { kind = audio }\n}\n";
  broker::InvocationPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = Duration(100);
  policy.fallback_resource = "backup";
  const auto assemble = [&](SimClock& sim, bool manual_loop) {
    PlatformConfig config;
    config.dsml = comm::cml_metamodel();
    config.clock = &sim;
    config.pipeline_threads = 1;
    config.manual_event_loop = manual_loop;
    auto assembled =
        Platform::assemble_from_text(comm::cvm_middleware_model_text(), config);
    EXPECT_TRUE(assembled.ok()) << assembled.status().to_string();
    std::unique_ptr<Platform> platform = std::move(assembled.value());
    // Call 1 fails and its retry (call 2) succeeds; the next command's
    // two attempts (calls 3 and 4) both fail, so it degrades to the
    // backup.
    EXPECT_TRUE(platform
                    ->add_resource_adapter(
                        std::make_unique<ScheduledFaultAdapter>(
                            "comm", std::vector<int>{1, 3, 4}))
                    .ok());
    EXPECT_TRUE(platform
                    ->add_resource_adapter(
                        std::make_unique<ScheduledFaultAdapter>(
                            "backup", std::vector<int>{}))
                    .ok());
    EXPECT_TRUE(platform->broker().resources().set_policy("comm", policy).ok());
    EXPECT_TRUE(platform->start().ok());
    return platform;
  };

  SimClock sync_clock;
  std::unique_ptr<Platform> sync_platform = assemble(sync_clock, false);
  sync_platform->broker().resources().set_sleep_hook(
      [&sync_clock](Duration d) { sync_clock.advance(d); });
  obs::RequestContext sync_context = sync_platform->make_context();
  auto sync_script = sync_platform->submit_model_text(script_text, sync_context);
  ASSERT_TRUE(sync_script.ok()) << sync_script.status().to_string();

  SimClock staged_clock;
  std::unique_ptr<Platform> staged_platform = assemble(staged_clock, true);
  std::atomic<bool> done{false};
  Result<controller::ControlScript> staged_script =
      Internal("staged submission never completed");
  ASSERT_TRUE(staged_platform
                  ->submit_async(script_text,
                                 [&](Result<controller::ControlScript> r) {
                                   staged_script = std::move(r);
                                   done = true;
                                 })
                  .ok());
  // Pump virtual time: every parked backoff fires on the next poll.
  runtime::EventLoop* loop = staged_platform->event_loop();
  ASSERT_NE(loop, nullptr);
  const auto wall_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done.load() && std::chrono::steady_clock::now() < wall_deadline) {
    staged_clock.advance(std::chrono::milliseconds(1));
    loop->poll();
    std::this_thread::yield();
  }
  ASSERT_TRUE(done.load());
  ASSERT_TRUE(staged_script.ok()) << staged_script.status().to_string();
  EXPECT_TRUE(staged_platform->stop().ok());
  EXPECT_TRUE(sync_platform->stop().ok());
  EXPECT_EQ(staged_script->commands.size(), sync_script->commands.size());

  const LayerFootprint sync_footprint =
      footprint(*sync_platform, sync_context.trace());
  auto staged_context = staged_platform->last_async_context();
  ASSERT_NE(staged_context, nullptr);
  const LayerFootprint staged_footprint =
      footprint(*staged_platform, staged_context->trace());
  EXPECT_EQ(staged_footprint.commands, sync_footprint.commands);
  EXPECT_EQ(staged_footprint.counters, sync_footprint.counters);
  EXPECT_EQ(staged_footprint.spans, sync_footprint.spans);
  // Both traces have the sync tree shape: the controller runs inside the
  // synthesis submit, which runs inside the UI submission.
  const obs::Trace& sync_trace = sync_context.trace();
  for (const obs::Trace* trace : {&sync_trace, &staged_context->trace()}) {
    const obs::Span* ui = trace->find("ui.submit");
    const obs::Span* synthesis = trace->find("synthesis.submit");
    const obs::Span* script = trace->find("controller.script");
    ASSERT_TRUE(ui && synthesis && script);
    EXPECT_EQ(synthesis->parent, ui->id);
    EXPECT_EQ(script->parent, synthesis->id);
    EXPECT_LE(script->end, synthesis->end);
  }
  // The schedule really drove the policy paths on both entries.
  EXPECT_EQ(sync_footprint.counters.at("broker.retries"), 2u);
  EXPECT_EQ(sync_footprint.counters.at("broker.fallbacks"), 1u);
  EXPECT_EQ(sync_footprint.spans.count("broker.fallback"), 1u);
  set_log_level(LogLevel::kWarn);
}

// Both entries run one driver, so a text that fails to parse counts the
// same way through either: once submitted, once failed.
TEST(Staged, MalformedTextCountsOnceOnBothEntries) {
  PlatformConfig config;
  config.pipeline_threads = 1;
  auto fixture = make_staged_platform(
      config, std::make_unique<FlakyAdapter>("svc", 0));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;
  const auto counts = [&platform] {
    const auto snapshot = platform.metrics().snapshot();
    return std::pair(snapshot.counter_value("requests.submitted"),
                     snapshot.counter_value("requests.failed"));
  };

  EXPECT_EQ(platform.submit_model_text("not a model {").status().code(),
            ErrorCode::kParseError);
  EXPECT_EQ(counts(), std::pair(std::uint64_t{1}, std::uint64_t{1}));

  std::atomic<int> refused{0};
  ASSERT_TRUE(platform
                  .submit_async("not a model {",
                                [&refused](Result<controller::ControlScript> r) {
                                  EXPECT_EQ(r.status().code(),
                                            ErrorCode::kParseError);
                                  ++refused;
                                })
                  .ok());
  while (refused.load() != 1) std::this_thread::yield();
  EXPECT_TRUE(platform.stop().ok());
  EXPECT_EQ(counts(), std::pair(std::uint64_t{2}, std::uint64_t{2}));
}

// PR 10 bugfix regression: only EXECUTED requests feed the admission
// latency EWMA. A refusal resolves in microseconds, so a burst of them
// (here: parse errors caught in the synthesis stage before any pipeline
// work) used to drag the predicted latency toward zero — and the
// controller would then re-admit doomed work it should have shed.
TEST(Staged, RefusalBurstDoesNotFeedTheAdmissionEwma) {
  PlatformConfig config;
  config.pipeline_threads = 2;
  auto fixture = make_staged_platform(
      config, std::make_unique<FlakyAdapter>("svc", 0));
  ASSERT_NE(fixture.platform, nullptr);
  Platform& platform = *fixture.platform;

  // Seed the prediction with genuinely completed work.
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(platform
                    .submit_async(
                        soak::open_session_text("e" + std::to_string(i)),
                        [&done](Result<controller::ControlScript> r) {
                          EXPECT_TRUE(r.ok()) << r.status().to_string();
                          ++done;
                        })
                    .ok());
  }
  while (done.load() != 4) std::this_thread::yield();
  const Duration seeded = platform.admission().predicted_latency();
  EXPECT_GT(seeded.count(), 0);

  // The refusal burst: every submission dies at parse, executed = false.
  std::atomic<int> refused{0};
  constexpr int kBurst = 32;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(platform
                    .submit_async("not a model {",
                                  [&refused](
                                      Result<controller::ControlScript> r) {
                                    EXPECT_FALSE(r.ok());
                                    ++refused;
                                  })
                    .ok());
  }
  while (refused.load() != kBurst) std::this_thread::yield();

  // Not one refusal touched the prediction.
  EXPECT_EQ(platform.admission().predicted_latency(), seeded);
  EXPECT_TRUE(platform.stop().ok());
}

}  // namespace
}  // namespace mdsm::core
