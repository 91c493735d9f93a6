// cluster_wire: two ShardNodes (one pipeline thread each) behind a
// ClusterFrontEnd, one IngressClient, a zero-latency net::Network. A
// driver thread slaves the network's SimClock to real time and is the
// fleet's only delivery thread: every wire hop, the front-end's
// forwarding and every per-request checkpoint pull and ship run there.
// checkpoint_interval = 1; a seeded pool of 256 sessions; 50 ms
// deadline. Every 300 ms the driver retunes a procedure cost through
// update_model(), so model replication and IM-cache invalidation on the
// shards run beside the request reads.
#include <map>
#include <mutex>
#include <thread>

#include "cluster/cluster_front_end.hpp"
#include "cluster/shard_node.hpp"
#include "core/middleware_metamodel.hpp"
#include "domains/comm/cml.hpp"
#include "ingress/ingress_client.hpp"
#include "model/text_format.hpp"
#include "net/network.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mdsm;

constexpr std::size_t kShards = 2;
constexpr unsigned kPipelineThreadsPerShard = 1;
constexpr int kQueueCapacity = 1024;
constexpr std::size_t kSessions = 256;
/// The latency limit: an ok reply later than this is a miss.
constexpr auto kLatencyLimit = std::chrono::milliseconds(50);
/// The deadline each request carries, enforced by the middleware, and
/// the front-end's reply budget per shard hop. Far above the limit, so a
/// host stall makes replies late, never failed.
constexpr auto kDeadline = std::chrono::seconds(2);
constexpr auto kHopTimeout = std::chrono::seconds(5);
constexpr auto kUpdateEvery = std::chrono::milliseconds(300);
constexpr double kOpenRate = 2500.0;
constexpr std::size_t kWindow = 8;
constexpr int kSetups = 15;

/// Seeded session pool; each request opens a fresh Connection (the
/// bench_cluster shape) under a session drawn uniformly from the pool.
class ClusterSource final : public RequestSource {
 public:
  explicit ClusterSource(std::uint64_t seed) : rng_(seed) {
    for (std::size_t i = 0; i < kSessions; ++i) {
      sessions_.push_back("s" + std::to_string(rng_() % 1000000) + "_" +
                          std::to_string(i));
    }
  }
  std::string next() override {
    session_ = sessions_[rng_() % sessions_.size()];
    const std::string id = "c" + std::to_string(counter_++);
    return "model app_" + id + " conforms cml\nobject Connection " + id +
           " { state = pending }\n";
  }
  /// Open session `i` of the pool (setup establishes each once).
  std::string open(std::size_t i) {
    session_ = sessions_[i];
    return next_fixed();
  }
  [[nodiscard]] const std::string& session() const { return session_; }
  [[nodiscard]] int last_additions() const override { return 1; }

 private:
  std::string next_fixed() {
    const std::string id = "c" + std::to_string(counter_++);
    return "model app_" + id + " conforms cml\nobject Connection " + id +
           " { state = pending }\n";
  }

  std::mt19937_64 rng_;
  std::vector<std::string> sessions_;
  std::string session_;
  std::uint64_t counter_ = 0;
};

struct Fleet {
  SimClock sim;
  std::unique_ptr<net::Network> network;
  std::optional<model::Model> middleware;
  std::vector<std::unique_ptr<cluster::ShardNode>> nodes;
  std::vector<BenchDevice*> devices;  ///< one per shard, launch order
  std::unique_ptr<cluster::ClusterFrontEnd> frontend;
  std::unique_ptr<ingress::IngressClient> client;
  ClusterSource source;

  std::thread driver;
  std::atomic<bool> stop{false};
  std::atomic<bool> timed{false};
  std::atomic<bool> updates{false};
  // Driver-thread accounting.
  std::atomic<std::uint64_t> deliver_ns{0};
  std::atomic<std::uint64_t> maintain_ns{0};
  std::atomic<std::uint64_t> maintain_calls{0};
  std::atomic<std::uint64_t> model_updates{0};
  std::atomic<std::uint64_t> update_failures{0};
  std::mutex errors_mutex;
  std::vector<std::string> error_samples;  ///< first controller errors

  explicit Fleet(std::uint64_t seed) : source(seed) {}
  ~Fleet() {
    if (driver.joinable()) {
      stop.store(true, std::memory_order_release);
      driver.join();
    }
    client.reset();
    frontend.reset();
    nodes.clear();
    network.reset();
  }

  void drive() {
    const auto origin = std::chrono::steady_clock::now();
    Duration advanced{0};
    auto next_update = origin + kUpdateEvery;
    std::int64_t retune = 0;
    model::Model current = middleware->clone();
    while (!stop.load(std::memory_order_acquire)) {
      const auto now = std::chrono::steady_clock::now();
      const auto target = std::chrono::duration_cast<Duration>(now - origin);
      if (target > advanced) {
        sim.advance(target - advanced);
        advanced = target;
      }
      const bool time_it = timed.load(std::memory_order_relaxed);
      auto start = BenchClock::now();
      network->deliver_due();
      if (time_it) {
        deliver_ns.fetch_add((BenchClock::now() - start).count(),
                             std::memory_order_relaxed);
      }
      if (updates.load(std::memory_order_relaxed) && now >= next_update) {
        next_update = now + kUpdateEvery;
        model::Model next = current.clone();
        const double cost = 1.0 + 0.1 * static_cast<double>(++retune % 4);
        if (next.set_attribute("p1", "cost", model::Value(cost)).ok() &&
            frontend->update_model(next).ok()) {
          current = std::move(next);
          model_updates.fetch_add(1, std::memory_order_relaxed);
        } else {
          update_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      start = BenchClock::now();
      frontend->maintain();
      if (time_it) {
        maintain_ns.fetch_add((BenchClock::now() - start).count(),
                              std::memory_order_relaxed);
        maintain_calls.fetch_add(1, std::memory_order_relaxed);
      }
      client->expire_overdue();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    // Final drain: let every in-flight message and reply land.
    sim.advance(std::chrono::seconds(2));
    network->run_until_idle();
    frontend->maintain();
    client->expire_overdue();
  }
};

/// One phase's ledger plus the reply facts the reconciliation needs.
/// Shared with the reply callbacks, so it outlives any that fire late.
struct Phase {
  explicit Phase(std::size_t capacity) : ledger(capacity, kLatencyLimit) {}
  Ledger ledger;
  std::atomic<std::uint64_t> ok_commands{0};
  std::atomic<std::uint64_t> refusals{0};   ///< typed refusal replies
  std::atomic<std::uint64_t> lost{0};       ///< reply-lost expiries
  std::mutex slugs_mutex;
  std::map<std::string, std::uint64_t> slugs;  ///< refusal slug counts

  void count_slug(const std::string& slug) {
    std::lock_guard lock(slugs_mutex);
    ++slugs[slug];
  }
  std::string slugs_json() {
    std::lock_guard lock(slugs_mutex);
    std::string out = "{";
    for (const auto& [slug, count] : slugs) {
      out += (out.size() > 1 ? ", \"" : "\"") + slug +
             "\": " + std::to_string(count);
    }
    return out + "}";
  }
};
using PhasePtr = std::shared_ptr<Phase>;

void submit(Fleet& fleet, const PhasePtr& phase, std::size_t index,
            const std::string& session, std::string text,
            std::function<void()> release) {
  ingress::RemoteSubmitOptions options;
  options.deadline = std::chrono::duration_cast<Duration>(kDeadline);
  auto sent = fleet.client->submit(
      "cml", session, std::move(text),
      [phase, index, release](const ingress::RemoteOutcome& outcome) {
        const auto now = BenchClock::now();
        if (outcome.status.ok()) {
          phase->ok_commands.fetch_add(
              static_cast<std::uint64_t>(outcome.commands),
              std::memory_order_relaxed);
        } else if (outcome.refusal == "reply-lost") {
          phase->lost.fetch_add(1, std::memory_order_relaxed);
        } else {
          phase->refusals.fetch_add(1, std::memory_order_relaxed);
          phase->count_slug(outcome.refusal);
        }
        phase->ledger.resolve(
            index, outcome.status.ok() ? Outcome::kOk : Outcome::kFailed, now);
        if (release) release();
      },
      options);
  if (!sent.ok()) {
    phase->ledger.refuse(index, BenchClock::now());
    if (release) release();
  }
}

/// A request off the session source, ready to send.
struct Request {
  std::string session;
  std::string text;
};

Request next_request(Fleet& fleet) {
  std::string text = fleet.source.next();
  return {fleet.source.session(), std::move(text)};
}

void closed_loop(Fleet& fleet, const PhasePtr& phase, std::size_t window,
                 BenchClock::time_point until) {
  drive_closed_loop(
      phase->ledger, window, SIZE_MAX, until,
      [&fleet] { return next_request(fleet); },
      [&fleet, &phase](Request request, std::size_t index,
                       std::function<void()> release) {
        submit(fleet, phase, index, request.session, std::move(request.text),
               std::move(release));
      });
}

std::vector<double> open_loop(Fleet& fleet, const PhasePtr& phase,
                              double seconds) {
  return drive_open_loop(
      phase->ledger, kOpenRate, seconds,
      [&fleet] { return next_request(fleet); },
      [&fleet, &phase](Request request, std::size_t index) {
        submit(fleet, phase, index, request.session, std::move(request.text),
               nullptr);
      });
}

/// Assemble, start and establish every session of the pool (one request
/// each, its checkpoint acked on the replica).
Result<std::unique_ptr<Fleet>> setup(std::uint64_t seed,
                                     const PhasePtr& establish) {
  auto fleet = std::make_unique<Fleet>(seed);
  auto parsed = model::parse_model(overload_cvm_text(kQueueCapacity, 1),
                                   core::middleware_metamodel());
  if (!parsed.ok()) return parsed.status();
  fleet->middleware.emplace(std::move(parsed.value()));

  net::NetworkConfig network_config;
  network_config.base_latency = Duration(0);
  network_config.jitter = Duration(0);
  fleet->network = std::make_unique<net::Network>(fleet->sim, network_config);

  std::vector<std::string> endpoints;
  for (std::size_t i = 0; i < kShards; ++i) {
    cluster::ShardNodeOptions options;
    options.endpoint = "shard-" + std::to_string(i);
    options.platform_config.dsml = comm::cml_metamodel();
    options.platform_config.pipeline_threads = kPipelineThreadsPerShard;
    options.provision = [f = fleet.get()](core::Platform& platform) {
      auto device = std::make_unique<BenchDevice>(nullptr, Duration(0));
      f->devices.push_back(device.get());
      return platform.add_resource_adapter(std::move(device));
    };
    auto node = cluster::ShardNode::launch(*fleet->middleware, *fleet->network,
                                           std::move(options));
    if (!node.ok()) return node.status();
    node.value()->platform().bus().subscribe(
        "controller.error", [f = fleet.get()](const runtime::Event& event) {
          std::lock_guard lock(f->errors_mutex);
          if (f->error_samples.size() < 3) {
            f->error_samples.push_back(event.payload.to_text());
          }
        });
    endpoints.push_back(node.value()->endpoint_name());
    fleet->nodes.push_back(std::move(node.value()));
  }
  cluster::ClusterConfig cluster_config;
  cluster_config.downstream_reply_timeout =
      std::chrono::duration_cast<Duration>(kHopTimeout);
  auto frontend = cluster::ClusterFrontEnd::attach(
      *fleet->network, *fleet->middleware, std::move(endpoints),
      cluster_config);
  if (!frontend.ok()) return frontend.status();
  fleet->frontend = std::move(frontend.value());

  ingress::IngressClientOptions client_options;
  client_options.endpoint = "bench-client";
  client_options.reply_timeout = std::chrono::seconds(10);
  auto client = ingress::IngressClient::attach(
      *fleet->network, fleet->frontend->endpoint_name(), client_options);
  if (!client.ok()) return client.status();
  fleet->client = std::move(client.value());
  fleet->driver = std::thread([f = fleet.get()] { f->drive(); });

  std::size_t next_session = 0;
  drive_closed_loop(
      establish->ledger, kWindow, kSessions, BenchClock::time_point::max(),
      [&fleet, &next_session] {
        std::string text = fleet->source.open(next_session++);
        return Request{fleet->source.session(), std::move(text)};
      },
      [&fleet, &establish](Request request, std::size_t index,
                           std::function<void()> release) {
        submit(*fleet, establish, index, request.session,
               std::move(request.text), std::move(release));
      });
  // Each session whose first request completed is established once its
  // checkpoint capture settled (acked on the replica, or failed).
  const auto established = establish->ledger.summarize();
  const std::uint64_t opened = established.ok + established.late_ok;
  const auto until = BenchClock::now() + std::chrono::seconds(10);
  auto settled = [&fleet] {
    const auto stats = fleet->frontend->stats();
    return stats.checkpoint_acks + stats.checkpoint_failures;
  };
  while (settled() < opened && BenchClock::now() < until) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (settled() < opened) {
    return Internal("session checkpoints did not settle within 10 s");
  }
  fleet->updates.store(true, std::memory_order_release);
  return fleet;
}

/// Client, front-end and device counters must reconcile with the
/// bench's own ledgers once every phase settled.
void reconcile(Fleet& fleet, const std::vector<PhasePtr>& phases,
               Report& report) {
  std::uint64_t accepted = 0, ok = 0, failed = 0, refusals = 0, lost = 0;
  std::uint64_t ok_commands = 0;
  for (const PhasePtr& phase : phases) {
    const auto s = phase->ledger.summarize();
    report.check(s.exactly_once(),
                 "a cluster submission did not resolve exactly once "
                 "(unresolved=" + std::to_string(s.unresolved) +
                     ", duplicates=" + std::to_string(s.duplicates) + ")");
    accepted += s.attempted - s.refused;
    ok += s.ok + s.late_ok;
    failed += s.failed;
    refusals += phase->refusals.load();
    lost += phase->lost.load();
    ok_commands += phase->ok_commands.load();
  }
  const auto client = fleet.client->stats();
  const auto front = fleet.frontend->stats();
  auto same = [&report](std::uint64_t a, std::uint64_t b,
                        const std::string& what) {
    report.check(a == b, what + ": " + std::to_string(a) +
                             " != " + std::to_string(b));
  };
  same(client.submitted, accepted, "client submitted vs ledger accepted");
  same(client.resolved_ok, ok, "client ok vs ledger ok");
  same(client.refused, refusals, "client refusals vs ledger refusals");
  same(client.expired, lost, "client expiries vs ledger reply-lost");
  same(refusals + lost, failed, "ledger failures vs refusals + lost");
  same(client.stray_replies, 0, "client stray replies");
  same(front.received, client.submitted, "front-end received vs client sent");
  same(front.replies, client.resolved_ok + client.refused,
       "front-end replies vs client replies");
  // Every command of an ok reply reached a shard's device or was counted
  // as a controller error (execute_script reports a failed command on
  // the bus and carries on). A failed request may have run part of its
  // script, so equality holds only when nothing failed.
  std::uint64_t invocations = 0;
  std::uint64_t errors = 0;
  for (std::size_t i = 0; i < fleet.nodes.size(); ++i) {
    invocations += fleet.devices[i]->invocations();
    errors += fleet.nodes[i]->platform().metrics().snapshot().counter_value(
        "controller.errors");
  }
  report.note("controller_errors", static_cast<double>(errors));
  {
    std::lock_guard lock(fleet.errors_mutex);
    for (const std::string& sample : fleet.error_samples) {
      report.note("controller_error_sample", sample);
    }
  }
  if (failed == 0) {
    same(invocations + errors, ok_commands,
         "shard device invocations + controller errors vs reply commands");
  } else {
    report.check(invocations + errors >= ok_commands,
                 "shard device invocations + controller errors below reply "
                 "commands");
  }
  report.note("frontend_forwarded", static_cast<double>(front.forwarded));
  report.note("frontend_failovers", static_cast<double>(front.failovers));
  report.note("frontend_checkpoints_taken",
              static_cast<double>(front.checkpoints_taken));
  report.note("frontend_checkpoint_failures",
              static_cast<double>(front.checkpoint_failures));
  report.note("frontend_deltas_shipped",
              static_cast<double>(front.deltas_shipped));
  report.note("model_updates",
              static_cast<double>(fleet.model_updates.load()));
  report.check(fleet.update_failures.load() == 0, "an update_model failed");
}

/// Typed refusal replies of a phase, by slug, in the run metadata.
void note_refusals(Report& report, Phase& phase, const std::string& prefix) {
  report.note(prefix + "_refusal_replies",
              static_cast<double>(phase.refusals.load()));
  report.meta.emplace_back(prefix + "_refusal_slugs", phase.slugs_json());
}

}  // namespace

Report run_cluster_wire(const Options& options) {
  Report report;
  report.note("offered_rate_rps", kOpenRate);
  report.note("closed_loop_window", static_cast<double>(kWindow));
  report.note("shards", static_cast<double>(kShards));
  report.note("pipeline_threads", static_cast<double>(kShards *
                                                      kPipelineThreadsPerShard));
  report.note("latency_limit_ms", to_ms(kLatencyLimit));
  report.note("deadline_ms", to_ms(kDeadline));

  StepTimes setup_times;
  std::unique_ptr<Fleet> fleet;
  PhasePtr establish;
  const int setups = options.trace ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    fleet.reset();
    establish = std::make_shared<Phase>(kSessions);
    auto made =
        setup_times.time([&] { return setup(options.seed, establish); });
    if (!made.ok()) {
      report.check(false, "setup failed: " + made.status().to_string());
      return report;
    }
    fleet = std::move(made.value());
  }

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
    closed_loop(*fleet, closed, kWindow, until);
    const SliceFigures slices = slice_figures(sampler.stop());
    report.check(closed->ledger.opened() < capacity,
                 "the closed loop filled its ledger before the phase ended");
    auto open = std::make_shared<Phase>(
        static_cast<std::size_t>(open_s * kOpenRate) + 16);
    const std::vector<double> late_us = open_loop(*fleet, open, open_s);
    report.check(open->ledger.wait_settled(std::chrono::seconds(30)),
                 "open-loop requests still unresolved after 30 s");
    reconcile(*fleet, {establish, closed, open}, report);

    const auto c = closed->ledger.summarize();
    const auto o = open->ledger.summarize(window_count(open->ledger.opened()));
    report_end_to_end(report, setup_times, slices, c, o, late_us);
    note_refusals(report, *closed, "closed");
    note_refusals(report, *open, "open");
    return report;
  }

  // ---- traced run ------------------------------------------------------
  ClusterSource sync_source(options.seed + 1);
  const SyncLayers sync =
      probe_sync_layers(overload_cvm_text(kQueueCapacity, 1), sync_source,
                        0.3 * options.seconds, report);

  std::vector<obs::MetricsSnapshot> before;
  std::vector<controller::GeneratorStats> generator_before;
  std::uint64_t invocations_before = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    core::Platform& platform = fleet->nodes[i]->platform();
    before.push_back(platform.metrics().snapshot());
    generator_before.push_back(platform.controller().generator().stats());
    invocations_before += fleet->devices[i]->invocations();
  }
  const auto network_before = fleet->network->stats();
  const auto front_before = fleet->frontend->stats();
  fleet->timed.store(true, std::memory_order_release);
  for (BenchDevice* device : fleet->devices) device->set_timed(true);
  const double open_s = 0.4 * options.seconds;
  auto open = std::make_shared<Phase>(
      static_cast<std::size_t>(open_s * kOpenRate) + 16);
  const std::vector<double> late_us = open_loop(*fleet, open, open_s);
  report.check(open->ledger.wait_settled(std::chrono::seconds(30)),
               "open-loop requests still unresolved after 30 s");
  // Let the last checkpoint pulls and ships settle inside the window.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fleet->timed.store(false, std::memory_order_release);
  for (BenchDevice* device : fleet->devices) device->set_timed(false);
  const auto o = open->ledger.summarize(window_count(open->ledger.opened()));
  const auto network_after = fleet->network->stats();
  const auto front_after = fleet->frontend->stats();

  std::vector<double> async_us;
  for (std::size_t i = 0; i < open->ledger.opened(); ++i) {
    if (const auto latency = open->ledger.ok_latency_ms(i)) {
      async_us.push_back(*latency * 1000.0);
    }
  }
  report.add("runtime.async_overhead_us", "us",
             median(async_us) - sync.parts_median_us);
  const double requests =
      static_cast<double>(std::max<std::uint64_t>(o.attempted, 1));
  const double ok_count =
      static_cast<double>(std::max<std::uint64_t>(o.ok + o.late_ok, 1));

  double hits = 0, misses = 0, invocations = 0, adapter_ns = 0;
  double stage_count[4] = {0, 0, 0, 0}, stage_sum[4] = {0, 0, 0, 0};
  std::size_t max_bounded = 0;
  const char* stages[] = {"synthesis", "controller", "broker", "complete"};
  for (std::size_t i = 0; i < kShards; ++i) {
    core::Platform& platform = fleet->nodes[i]->platform();
    const auto generator = platform.controller().generator().stats();
    hits += static_cast<double>(generator.cache_hits -
                                generator_before[i].cache_hits);
    misses += static_cast<double>(generator.cache_misses -
                                  generator_before[i].cache_misses);
    invocations += static_cast<double>(fleet->devices[i]->invocations());
    adapter_ns += static_cast<double>(fleet->devices[i]->busy_ns());
    const obs::MetricsSnapshot after = platform.metrics().snapshot();
    for (int s = 0; s < 4; ++s) {
      const std::string name = std::string("stage.") + stages[s] + ".delay_us";
      const auto* b = before[i].histogram(name);
      const auto* a = after.histogram(name);
      stage_count[s] += static_cast<double>((a ? a->count : 0) -
                                            (b ? b->count : 0));
      stage_sum[s] += static_cast<double>((a ? a->sum_us : 0) -
                                          (b ? b->sum_us : 0));
    }
    max_bounded = std::max(max_bounded,
                           platform.pipeline_stats().max_bounded_pending);
  }
  invocations -= static_cast<double>(invocations_before);
  report.add("broker.invocations_per_request", "count",
             invocations / ok_count);
  report.add("broker.adapter_us", "us",
             invocations > 0 ? adapter_ns / invocations / 1000.0 : 0.0);
  report.add("controller.im_cache_hit_ratio", "ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0);
  for (int s = 0; s < 4; ++s) {
    report.add(std::string("runtime.stage_wait_us.") + stages[s], "us",
               stage_count[s] > 0 ? stage_sum[s] / stage_count[s] : 0.0);
  }
  report.add("runtime.max_bounded_pending", "count",
             static_cast<double>(max_bounded));
  report.add("bench.generator_late_p99_us", "us",
             tail_percentile(late_us, 0.99).value_or(0.0));
  report.add("net.deliver_busy_us_per_request", "us",
             static_cast<double>(fleet->deliver_ns.load()) / requests / 1000.0);
  report.add("net.messages_per_request", "count",
             static_cast<double>(network_after.delivered -
                                 network_before.delivered) /
                 requests);
  report.add("cluster.checkpoints_per_request", "count",
             static_cast<double>(front_after.checkpoints_taken -
                                 front_before.checkpoints_taken) /
                 requests);
  const auto deltas = front_after.deltas_shipped - front_before.deltas_shipped;
  report.add("cluster.replication_delta_bytes", "bytes",
             deltas == 0 ? 0.0
                         : static_cast<double>(front_after.delta_bytes -
                                               front_before.delta_bytes) /
                               static_cast<double>(deltas));
  const auto calls = fleet->maintain_calls.load();
  report.add("cluster.maintain_us", "us",
             calls == 0 ? 0.0
                        : static_cast<double>(fleet->maintain_ns.load()) /
                              static_cast<double>(calls) / 1000.0);

  reconcile(*fleet, {establish, open}, report);
  // Quiesce replication before probing a shard's platform directly.
  fleet->updates.store(false, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  probe_platform(fleet->nodes[0]->platform(), fleet->source.next(),
                 fleet->source, report);
  probe_paper_rows(report);
  report.attempted += o.attempted;
  report.failed += o.failed + o.refused;
  note_outcomes(report, o, "open");
  note_refusals(report, *open, "open");
  return report;
}

}  // namespace perfbench
