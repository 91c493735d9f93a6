// Layer probes of the traced pass. Every timing here is taken around a
// public call into one layer, from outside, on the bench's steady clock.
#include <algorithm>

#include "controller/controller_layer.hpp"
#include "domains/comm/cml.hpp"
#include "domains/comm/cvm.hpp"
#include "domains/comm/handcrafted_broker.hpp"
#include "domains/comm/scenarios.hpp"
#include "ingress/wire.hpp"
#include "model/diff.hpp"
#include "model/text_format.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace mdsm;

double ns_since(BenchClock::time_point start) {
  return static_cast<double>((BenchClock::now() - start).count());
}

Result<std::unique_ptr<core::Platform>> sync_platform(
    const std::string& middleware_text, BenchDevice** device) {
  core::PlatformConfig config;
  config.dsml = comm::cml_metamodel();
  auto platform = core::Platform::assemble_from_text(middleware_text, config);
  if (!platform.ok()) return platform.status();
  auto adapter = std::make_unique<BenchDevice>(nullptr, Duration(0));
  *device = adapter.get();
  MDSM_RETURN_IF_ERROR((*platform)->add_resource_adapter(std::move(adapter)));
  MDSM_RETURN_IF_ERROR((*platform)->start());
  return platform;
}

/// A broker that accepts every call: Exp-3 times the generator alone.
class NullBroker final : public broker::BrokerApi {
 public:
  using broker::BrokerApi::call;
  Result<model::Value> call(const broker::Call&,
                            obs::RequestContext&) override {
    return model::Value(true);
  }
  [[nodiscard]] const broker::CommandTrace& trace() const override {
    return trace_;
  }

 private:
  broker::CommandTrace trace_;
};

/// The paper's Exp-3 repository: 100 procedures in 5 dependency layers
/// of 5 DSCs with 4 alternatives each; layer L depends on two DSCs of
/// layer L+1.
void populate_exp3_repository(controller::ControllerLayer& layer) {
  constexpr int kLayers = 5;
  constexpr int kDscsPerLayer = 5;
  constexpr int kVariants = 4;
  auto dsc = [](int l, int d) {
    return "op" + std::to_string(l) + "_" + std::to_string(d);
  };
  for (int l = 0; l < kLayers; ++l) {
    for (int d = 0; d < kDscsPerLayer; ++d) {
      (void)layer.dscs().add(
          {dsc(l, d), controller::DscKind::kOperation, "bench", ""});
    }
  }
  int id = 0;
  for (int l = 0; l < kLayers; ++l) {
    for (int d = 0; d < kDscsPerLayer; ++d) {
      for (int v = 0; v < kVariants; ++v) {
        controller::Procedure p;
        p.name = "proc" + std::to_string(id++);
        p.classifier = dsc(l, d);
        p.cost = 1.0 + 0.1 * v + 0.01 * d;
        p.quality = 1.0 - 0.05 * v;
        if (l + 1 < kLayers) {
          p.dependencies = {dsc(l + 1, d), dsc(l + 1, (d + v) % kDscsPerLayer)};
        }
        std::vector<controller::Instruction> unit{controller::noop()};
        for (const auto& dep : p.dependencies) {
          unit.push_back(controller::call_dep(dep));
        }
        p.units = {unit};
        (void)layer.add_procedure(std::move(p));
      }
    }
  }
}

}  // namespace

SyncLayers probe_sync_layers(const std::string& middleware_text,
                             RequestSource& source, double seconds,
                             Report& report) {
  BenchDevice* parts_device = nullptr;
  BenchDevice* whole_device = nullptr;
  auto parts = sync_platform(middleware_text, &parts_device);
  auto whole = sync_platform(middleware_text, &whole_device);
  if (!parts.ok() || !whole.ok()) {
    report.check(false, "sync decomposition: platform assembly failed");
    return {};
  }
  core::Platform& p = **parts;
  core::Platform& w = **whole;
  parts_device->set_timed(true);
  const model::MetamodelPtr dsml = comm::cml_metamodel();

  double parse_ns = 0, validate_ns = 0, diff_ns = 0, commit_ns = 0;
  double execute_ns = 0, adapter_ns = 0, whole_ns = 0;
  double changes = 0, commands = 0, bytes = 0;
  std::uint64_t failures = 0;
  std::vector<double> parts_us;
  const auto end = BenchClock::now() +
                   std::chrono::duration_cast<BenchClock::duration>(
                       std::chrono::duration<double>(seconds));
  std::size_t n = 0;
  for (; BenchClock::now() < end; ++n) {
    const std::string text = source.next();
    bytes += static_cast<double>(text.size());

    auto run_whole = [&] {
      obs::RequestContext context = w.make_context();
      const auto start = BenchClock::now();
      const bool ok = w.submit_model_text(text, context).ok();
      whole_ns += ns_since(start);
      if (!ok) ++failures;
    };
    auto run_parts = [&] {
      obs::RequestContext context = p.make_context();
      auto start = BenchClock::now();
      Result<model::Model> parsed = model::parse_model(text, dsml);
      const double parse = ns_since(start);
      if (!parsed.ok()) {
        ++failures;
        return;
      }
      // validate and diff are timed on their own; commit_model repeats
      // both inside its serial section, so they are not added to the sum.
      start = BenchClock::now();
      const bool valid = parsed->validate().ok();
      validate_ns += ns_since(start);
      start = BenchClock::now();
      const model::ChangeList delta =
          model::diff(p.synthesis().runtime_model(), *parsed);
      diff_ns += ns_since(start);
      changes += static_cast<double>(delta.size());

      start = BenchClock::now();
      Result<controller::ControlScript> script =
          p.synthesis().commit_model(std::move(parsed.value()), context);
      const double commit = ns_since(start);
      if (!valid || !script.ok()) {
        ++failures;
        return;
      }
      commands += static_cast<double>(script->commands.size());
      const std::uint64_t adapter_before = parts_device->busy_ns();
      start = BenchClock::now();
      const bool executed =
          script->empty() || p.controller().execute_script(*script, context).ok();
      const double execute = ns_since(start);
      if (!executed) ++failures;
      const double adapter =
          static_cast<double>(parts_device->busy_ns() - adapter_before);
      parse_ns += parse;
      commit_ns += commit;
      execute_ns += execute;
      adapter_ns += adapter;
      parts_us.push_back((parse + commit + execute) / 1000.0);
    };
    // Alternate which side runs first so neither always gets warm caches.
    if (n % 2 == 0) {
      run_parts();
      run_whole();
    } else {
      run_whole();
      run_parts();
    }
  }
  report.check(failures == 0, "sync decomposition: " +
                                  std::to_string(failures) +
                                  " request(s) failed");
  report.check(p.runtime_model_text() == w.runtime_model_text(),
               "sync decomposition: layer-by-layer and submit_model_text "
               "runtime models differ");
  report.check(parts_device->invocations() == whole_device->invocations(),
               "sync decomposition: adapter invocation counts differ");
  const double count = std::max<double>(static_cast<double>(n), 1.0);
  report.add("model.parse_us", "us", parse_ns / count / 1000.0);
  report.add("model.validate_us", "us", validate_ns / count / 1000.0);
  report.add("model.diff_us", "us", diff_ns / count / 1000.0);
  report.add("model.changes_per_request", "count", changes / count);
  report.add("model.request_bytes", "bytes", bytes / count);
  report.add("synthesis.commit_us", "us", commit_ns / count / 1000.0);
  report.add("synthesis.commands_per_request", "count", commands / count);
  report.add("controller.execute_us", "us",
             (execute_ns - adapter_ns) / count / 1000.0);
  const double sum_ratio =
      whole_ns > 0.0 ? (parse_ns + commit_ns + execute_ns) / whole_ns : 0.0;
  report.add("bench.layer_sum_ratio", "ratio", sum_ratio);
  report.note("sync_requests", static_cast<double>(n));
  report.note("sync_whole_us", whole_ns / count / 1000.0);
  report.attempted += 2 * n;
  report.failed += failures;
  (void)(*parts)->stop();
  (void)(*whole)->stop();
  return {median(parts_us), sum_ratio};
}

void probe_platform(core::Platform& platform, const std::string& sample_text,
                    RequestSource& source, Report& report) {
  constexpr int kReps = 2000;

  // Controller: one uncached IM generation cycle per CVM root DSC.
  {
    const char* roots[] = {"comm.connect", "media.establish"};
    double total_ns = 0;
    bool ok = true;
    for (int i = 0; i < kReps; ++i) {
      const auto start = BenchClock::now();
      ok = platform.controller()
               .generator()
               .generate(roots[i % 2], controller::SelectionStrategy::kMinCost)
               .ok() &&
           ok;
      total_ns += ns_since(start);
    }
    report.check(ok, "IM generation probe failed");
    report.add("controller.im_generate_us", "us", total_ns / kReps / 1000.0);
  }

  // Ingress: the wire codec on this workload's own request and reply.
  {
    ingress::wire::Request request;
    request.request_id = 4242;
    request.text = sample_text;
    request.deadline_us = 25000;
    request.forwarded_for = "bench-client#4242";
    ingress::wire::Reply reply;
    reply.request_id = 4242;
    reply.message = "script-4242";
    reply.commands = 3;
    double encode_ns = 0, decode_ns = 0;
    bool ok = true;
    std::size_t wire_bytes = 0;
    for (int i = 0; i < kReps; ++i) {
      auto start = BenchClock::now();
      model::Value request_payload = ingress::wire::encode_request(request);
      model::Value reply_payload = ingress::wire::encode_reply(reply);
      encode_ns += ns_since(start);
      start = BenchClock::now();
      auto decoded_request = ingress::wire::decode_request(request_payload);
      auto decoded_reply = ingress::wire::decode_reply(reply_payload);
      decode_ns += ns_since(start);
      ok = ok && decoded_request.ok() && decoded_reply.ok() &&
           decoded_request->text == request.text;
      if (i == 0) wire_bytes = request_payload.to_text().size();
    }
    report.check(ok, "wire codec probe did not round-trip");
    report.add("ingress.encode_us", "us", encode_ns / kReps / 1000.0);
    report.add("ingress.decode_us", "us", decode_ns / kReps / 1000.0);
    report.add("ingress.request_wire_bytes", "bytes",
               static_cast<double>(wire_bytes));
  }

  // Cluster: what one session checkpoint of this platform costs.
  {
    constexpr int kCheckpoints = 200;
    double total_ns = 0;
    std::size_t bytes = 0;
    bool ok = true;
    for (int i = 0; i < kCheckpoints; ++i) {
      const auto start = BenchClock::now();
      auto state = platform.export_session_state("probe");
      const std::string text = state.ok() ? state->to_text() : std::string();
      total_ns += ns_since(start);
      ok = ok && state.ok();
      bytes = text.size();
    }
    report.check(ok, "checkpoint export probe failed");
    report.add("cluster.checkpoint_export_us", "us",
               total_ns / kCheckpoints / 1000.0);
    report.add("cluster.checkpoint_bytes", "bytes", static_cast<double>(bytes));
  }

  // Obs: a counter lookup + add on a registry holding this platform's
  // metric names (a copy, so the platform's own counters stay exact).
  {
    obs::MetricsRegistry registry;
    std::vector<std::string> names;
    const obs::MetricsSnapshot snapshot = platform.metrics().snapshot();
    for (const auto& row : snapshot.counters) {
      registry.counter(row.name).add(row.value);
      names.push_back(row.name);
    }
    for (const auto& row : snapshot.histograms) registry.histogram(row.name);
    if (names.empty()) names.push_back("requests.submitted");
    constexpr int kAdds = 200000;
    const auto start = BenchClock::now();
    for (int i = 0; i < kAdds; ++i) {
      registry.counter(names[static_cast<std::size_t>(i) % names.size()]).add();
    }
    report.add("obs.counter_add_ns", "ns", ns_since(start) / kAdds);
  }

  // Obs: sync submit with a recording context vs the no-op context, in
  // alternating batches over the workload's own continuing request stream.
  {
    constexpr int kBatches = 20;
    constexpr int kBatch = 50;
    double traced_ns = 0, noop_ns = 0;
    bool ok = true;
    for (int b = 0; b < kBatches; ++b) {
      const bool traced_first = b % 2 == 0;
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side == 0) == traced_first;
        for (int i = 0; i < kBatch; ++i) {
          const std::string text = source.next();
          if (traced) {
            obs::RequestContext context = platform.make_context();
            const auto start = BenchClock::now();
            ok = platform.submit_model_text(text, context).ok() && ok;
            traced_ns += ns_since(start);
          } else {
            const auto start = BenchClock::now();
            ok = platform.submit_model_text(text, obs::RequestContext::noop())
                     .ok() &&
                 ok;
            noop_ns += ns_since(start);
          }
        }
      }
    }
    report.check(ok, "span overhead probe: a sync submit failed");
    report.add("obs.span_overhead_ratio", "ratio",
               noop_ns > 0.0 ? traced_ns / noop_ns : 0.0);
  }
}

void probe_paper_rows(Report& report) {
  // Exp-2: model-based vs handcrafted broker over the eight scenarios.
  // Each repetition runs on a fresh bundle (built untimed); the two
  // sides alternate so drift hits both.
  constexpr int kWarmup = 2;
  constexpr int kReps = 15;
  double ratio_sum = 0.0;
  int scenarios = 0;
  bool ok = true;
  for (const comm::Scenario& scenario : comm::comm_scenarios()) {
    std::vector<double> model_us;
    std::vector<double> hand_us;
    for (int rep = 0; rep < kWarmup + kReps; ++rep) {
      auto cvm = comm::make_cvm();
      auto ncb = comm::make_handcrafted_ncb();
      if (!cvm.ok()) {
        ok = false;
        break;
      }
      auto start = BenchClock::now();
      ok = comm::run_scenario(scenario, (*cvm)->platform->broker(),
                              (*cvm)->service, (*cvm)->platform->context())
               .ok() &&
           ok;
      const double model_elapsed = ns_since(start) / 1000.0;
      start = BenchClock::now();
      ok = comm::run_scenario(scenario, ncb->broker, ncb->service,
                              ncb->context)
               .ok() &&
           ok;
      const double hand_elapsed = ns_since(start) / 1000.0;
      if (rep >= kWarmup) {
        model_us.push_back(model_elapsed);
        hand_us.push_back(hand_elapsed);
      }
    }
    const double hand = median(hand_us);
    if (hand > 0.0) {
      ratio_sum += median(model_us) / hand;
      ++scenarios;
    }
  }
  report.check(ok && scenarios == 8, "Exp-2 scenarios did not all run");
  report.add("broker.exp2_overhead_ratio", "ratio",
             scenarios > 0 ? ratio_sum / scenarios : 0.0);

  // Exp-3: one full IM cycle (generate, validate, select; uncached) over
  // the 100-procedure repository, rotating the five root DSCs.
  NullBroker broker;
  runtime::EventBus bus;
  policy::ContextStore context;
  controller::ControllerLayer layer("exp3", broker, bus, context);
  populate_exp3_repository(layer);
  report.check(layer.repository().size() == 100,
               "Exp-3 repository does not hold 100 procedures");
  std::vector<double> cycle_us;
  constexpr int kCycles = 300;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const std::string root = "op0_" + std::to_string(cycle % 5);
    const auto start = BenchClock::now();
    ok = layer.generator()
             .generate(root, controller::SelectionStrategy::kMinCost)
             .ok() &&
         ok;
    cycle_us.push_back(ns_since(start) / 1000.0);
  }
  report.check(ok, "Exp-3 IM cycle failed");
  report.add("controller.exp3_cycle_us", "us", median(cycle_us));
}

}  // namespace perfbench
