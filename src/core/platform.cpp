#include "core/platform.hpp"

#include "common/log.hpp"
#include "core/spec_decode.hpp"

namespace mdsm::core {

Result<std::unique_ptr<Platform>> Platform::assemble_from_text(
    std::string_view middleware_model_text, PlatformConfig config) {
  Result<model::Model> middleware_model =
      model::parse_model(middleware_model_text, middleware_metamodel());
  if (!middleware_model.ok()) return middleware_model.status();
  return assemble(*middleware_model, std::move(config));
}

Result<std::unique_ptr<Platform>> Platform::assemble(
    const model::Model& middleware_model, PlatformConfig config) {
  if (middleware_model.metamodel_ptr() != middleware_metamodel()) {
    return InvalidArgument(
        "middleware model must conform to the middleware metamodel");
  }
  MDSM_RETURN_IF_ERROR(middleware_model.validate());
  auto platforms = middleware_model.objects_of("MiddlewarePlatform");
  if (platforms.size() != 1) {
    return InvalidArgument("middleware model must contain exactly one "
                           "MiddlewarePlatform root, found " +
                           std::to_string(platforms.size()));
  }
  const model::ModelObject& root = *platforms[0];
  if (config.dsml == nullptr) {
    return InvalidArgument("PlatformConfig.dsml is required");
  }
  // UI layer spec: the declared DSML must be the one supplied.
  auto ui_specs = middleware_model.children(root.id(), "ui");
  if (ui_specs.size() == 1) {
    const std::string declared = ui_specs[0]->get_string("dsml");
    if (declared != config.dsml->name()) {
      return ConformanceError("middleware model binds DSML '" + declared +
                              "' but platform was given '" +
                              config.dsml->name() + "'");
    }
  }

  // Core Guidelines C.50: private ctor + factory for multi-stage init.
  std::unique_ptr<Platform> platform(new Platform());
  platform->name_ = root.get_string("name");
  platform->dsml_ = config.dsml;
  platform->pipeline_threads_ = config.pipeline_threads;
  platform->manual_loop_ = config.manual_event_loop;
  if (config.clock != nullptr) platform->clock_ = config.clock;

  // Overload protection is model-driven (PR 5): the MiddlewarePlatform
  // root declares the async pipeline's queue bound and overflow policy
  // plus the UI-layer admission controller, exactly like ResourceSpec
  // declares fault-tolerance. The defaults reproduce the pre-PR-5
  // unbounded, admit-everything platform.
  platform->pipeline_config_.queue_capacity =
      static_cast<std::size_t>(root.get_int("queue_capacity", 0));
  const std::string overflow = root.get_string("overflow_policy", "reject");
  platform->pipeline_config_.overflow_policy =
      overflow == "shed-oldest" ? runtime::OverflowPolicy::kShedOldest
                                : runtime::OverflowPolicy::kReject;
  AdmissionConfig admission_config;
  admission_config.enabled = root.get_bool("admission", false);
  admission_config.ewma_alpha = root.get_real("admission_alpha", 0.2);
  admission_config.safety_factor = root.get_real("admission_safety", 1.0);
  platform->admission_.configure(admission_config);
  platform->admission_.wire(platform->metrics_, platform->bus_,
                            *platform->clock_);

  // Networked ingress (PR 7): the front-end's endpoint name, auth stub
  // and default wire deadline are model attributes too — a split
  // deployment is described by the same middleware model that describes
  // the platform it fronts.
  platform->ingress_settings_.endpoint = root.get_string("ingress_endpoint");
  platform->ingress_settings_.auth_token = root.get_string("ingress_auth");
  platform->ingress_settings_.default_deadline =
      Duration(root.get_int("ingress_default_deadline_us", 0));
  platform->ingress_settings_.rate_limit =
      root.get_real("ingress_rate_limit", 0.0);
  platform->ingress_settings_.rate_burst =
      root.get_real("ingress_rate_burst", 0.0);
  platform->ingress_settings_.dedup_ttl =
      Duration(root.get_int("ingress_dedup_ttl_us", 0));

  // The component factory holds the layer "code templates"; assembly then
  // instantiates them with the model objects as metadata (paper §V-A).
  runtime::EventBus& bus = platform->bus_;
  policy::ContextStore& context = platform->context_;
  MDSM_RETURN_IF_ERROR(platform->factory_.register_template(
      "BrokerLayerSpec",
      [&bus, &context](const model::ModelObject& spec, const model::Model&)
          -> Result<std::unique_ptr<runtime::Component>> {
        return Result<std::unique_ptr<runtime::Component>>(
            std::make_unique<broker::BrokerLayer>(spec.id(), bus, context));
      }));

  // ---- Broker layer ----------------------------------------------------
  auto broker_specs = middleware_model.children(root.id(), "broker");
  if (broker_specs.size() == 1 && broker_specs[0]->get_bool("enabled", true)) {
    Result<std::unique_ptr<runtime::Component>> component =
        platform->factory_.instantiate(*broker_specs[0], middleware_model);
    if (!component.ok()) return component.status();
    platform->broker_.reset(
        static_cast<broker::BrokerLayer*>(component.value().release()));
    MDSM_RETURN_IF_ERROR(
        platform->load_broker_spec(middleware_model, *broker_specs[0]));
  } else {
    return InvalidArgument("middleware model must define an enabled broker "
                           "layer (suppressing it is only legal in split "
                           "deployments, which assemble partial platforms "
                           "programmatically)");
  }

  // ---- Controller layer ------------------------------------------------
  auto controller_specs = middleware_model.children(root.id(), "controller");
  if (controller_specs.size() != 1) {
    return InvalidArgument("middleware model must define a controller layer");
  }
  controller::GeneratorConfig generator_config;
  std::int64_t model_bound = controller_specs[0]->get_int(
      "max_configurations", 256);
  generator_config.max_configurations =
      config.max_configurations != 0
          ? config.max_configurations
          : static_cast<std::size_t>(model_bound);
  platform->controller_ = std::make_unique<controller::ControllerLayer>(
      controller_specs[0]->id(), *platform->broker_, bus, context,
      generator_config);
  MDSM_RETURN_IF_ERROR(
      platform->load_controller_spec(middleware_model, *controller_specs[0]));

  // ---- Synthesis layer ---------------------------------------------------
  auto synthesis_specs = middleware_model.children(root.id(), "synthesis");
  synthesis::Lts lts;
  if (synthesis_specs.size() == 1 &&
      !middleware_model.children(synthesis_specs[0]->id(), "transitions")
           .empty()) {
    Result<synthesis::Lts> decoded =
        decode_lts(middleware_model, *synthesis_specs[0]);
    if (!decoded.ok()) return decoded.status();
    lts = std::move(decoded.value());
  } else if (config.lts_override.has_value()) {
    lts = std::move(*config.lts_override);
  } else {
    return InvalidArgument(
        "no synthesis semantics: middleware model declares no transitions "
        "and no LTS override was supplied");
  }
  controller::ControllerLayer* controller = platform->controller_.get();
  platform->synthesis_ = std::make_unique<synthesis::SynthesisEngine>(
      synthesis_specs.empty() ? "synthesis" : synthesis_specs[0]->id(),
      config.dsml, std::move(lts), context,
      // Pre-commit dispatch runs under the synthesis serial mutex, so it
      // must stay cheap: just the controller-crossing deadline check (a
      // dispatch failure keeps the old runtime model in force).
      [](const controller::ControlScript&, obs::RequestContext& request) {
        return request.check_deadline("controller");
      });
  // Post-commit execution — the parallel phase. The controller opens the
  // "controller.script" span covering every command plus the drain of the
  // events they raised, nested under the request's "synthesis.submit"
  // span. The blocking leaf is the sync entry; the other one may park.
  platform->synthesis_->set_executor(
      [controller](const controller::ControlScript& script,
                   obs::RequestContext& request, bool blocking,
                   std::function<void(Status)> done) {
        if (blocking) {
          done(controller->execute_script(script, request));
          return;
        }
        controller->execute_script_async(script, request, std::move(done));
      });

  // Every layer records into the platform-wide registry (stable address:
  // the platform is heap-allocated and non-movable).
  platform->broker_->set_metrics(&platform->metrics_);
  platform->controller_->set_metrics(&platform->metrics_);
  platform->synthesis_->set_metrics(&platform->metrics_);

  // Controller exceptional conditions flow back to the Synthesis layer
  // ("handles events from the Controller layer", paper §V-A).
  synthesis::SynthesisEngine* synthesis = platform->synthesis_.get();
  platform->error_subscription_ = bus.subscribe(
      "controller.error", [synthesis](const runtime::Event& event) {
        synthesis->handle_controller_event(event.topic, event.payload);
      });

  // models@runtime at the broker layer: the State Manager shares the
  // committed application-model snapshot so broker-level introspection
  // (and autonomic rules in future) can consult it.
  broker::BrokerLayer* broker = platform->broker_.get();
  broker->state().set_runtime_model(platform->synthesis_->runtime_snapshot());
  platform->synthesis_->set_model_listener(
      [broker](const model::ModelPtr& committed) {
        broker->state().set_runtime_model(committed);
      });

  return platform;
}

Platform::~Platform() {
  // Join the async pipeline first: queued submissions may still reach
  // into every layer. The loop stops before the executor drains — no
  // more timer-driven resumes — but stays alive through the drain so
  // draining tasks can still call schedule() (dropped silently after
  // stop()). Then the stage pipeline (holds Executor*), then the loop.
  running_.store(false, std::memory_order_release);
  if (loop_ != nullptr) loop_->stop();
  pipeline_.reset();
  stages_.reset();
  loop_.reset();
  if (error_subscription_ != 0) bus_.unsubscribe(error_subscription_);
}

Status Platform::load_broker_spec(const model::Model& middleware_model,
                                  const model::ModelObject& broker_spec) {
  for (const model::ModelObject* action_spec :
       middleware_model.children(broker_spec.id(), "actions")) {
    Result<broker::Action> action =
        decode_broker_action(middleware_model, *action_spec);
    if (!action.ok()) return action.status();
    MDSM_RETURN_IF_ERROR(broker_->register_action(std::move(action.value())));
  }
  for (const model::ModelObject* handler_spec :
       middleware_model.children(broker_spec.id(), "handlers")) {
    std::vector<std::string> action_names;
    for (const std::string& target : handler_spec->targets("actions")) {
      const model::ModelObject* action_spec = middleware_model.find(target);
      if (action_spec == nullptr) {
        return ConformanceError("handler '" + handler_spec->id() +
                                "' references missing action '" + target +
                                "'");
      }
      action_names.push_back(action_spec->get_string("name"));
    }
    MDSM_RETURN_IF_ERROR(broker_->bind_handler(
        handler_spec->get_string("signal"), std::move(action_names)));
  }
  for (const model::ModelObject* policy_spec :
       middleware_model.children(broker_spec.id(), "policies")) {
    MDSM_RETURN_IF_ERROR(broker_->policies().add(
        policy_spec->get_string("name"), policy_spec->get_string("condition"),
        policy_spec->get_string("decision"),
        static_cast<int>(policy_spec->get_int("priority"))));
  }
  for (const model::ModelObject* symptom_spec :
       middleware_model.children(broker_spec.id(), "symptoms")) {
    Result<broker::Symptom> symptom = decode_symptom(*symptom_spec);
    if (!symptom.ok()) return symptom.status();
    MDSM_RETURN_IF_ERROR(
        broker_->autonomic().add_symptom(std::move(symptom.value())));
  }
  for (const model::ModelObject* plan_spec :
       middleware_model.children(broker_spec.id(), "plans")) {
    Result<broker::ChangePlan> plan =
        decode_change_plan(middleware_model, *plan_spec);
    if (!plan.ok()) return plan.status();
    MDSM_RETURN_IF_ERROR(
        broker_->autonomic().add_plan(std::move(plan.value())));
  }
  for (const model::ModelObject* resource_spec :
       middleware_model.children(broker_spec.id(), "resources")) {
    const std::string resource_name = resource_spec->get_string("name");
    if (!resource_spec->get_bool("optional", false)) {
      required_resources_.push_back(resource_name);
    }
    // Decode the spec's fault-tolerance attributes into an
    // InvocationPolicy. The metamodel defaults describe fire-once with no
    // breaker and no fallback; only specs that deviate get a policy
    // installed, so unconfigured resources keep the zero-overhead path.
    broker::InvocationPolicy policy;
    policy.max_attempts =
        static_cast<int>(resource_spec->get_int("max_attempts", 1));
    policy.initial_backoff = Duration(resource_spec->get_int("backoff_us",
                                                             500));
    policy.max_backoff = Duration(resource_spec->get_int("max_backoff_us",
                                                         50'000));
    policy.attempt_timeout =
        Duration(resource_spec->get_int("attempt_timeout_us", 0));
    policy.fallback_resource = resource_spec->get_string("fallback");
    policy.breaker.window = static_cast<std::size_t>(
        resource_spec->get_int("breaker_window", 0));
    policy.breaker.failure_threshold =
        resource_spec->get_real("breaker_threshold", 0.5);
    policy.breaker.cooldown =
        Duration(resource_spec->get_int("breaker_cooldown_us", 10'000));
    const bool configured = policy.max_attempts != 1 ||
                            policy.attempt_timeout.count() != 0 ||
                            !policy.fallback_resource.empty() ||
                            policy.breaker.enabled();
    if (configured) {
      MDSM_RETURN_IF_ERROR(
          broker_->set_invocation_policy(resource_name, std::move(policy)));
    }
  }
  return Status::Ok();
}

Status Platform::load_controller_spec(
    const model::Model& middleware_model,
    const model::ModelObject& controller_spec) {
  // The whole vocabulary is published as one catalog version.
  std::vector<controller::Procedure> procedures;
  for (const model::ModelObject* procedure_spec :
       middleware_model.children(controller_spec.id(), "procedures")) {
    Result<controller::Procedure> procedure =
        decode_procedure(middleware_model, *procedure_spec);
    if (!procedure.ok()) return procedure.status();
    procedures.push_back(std::move(procedure.value()));
  }
  MDSM_RETURN_IF_ERROR(
      controller_->catalog().edit([&](controller::Catalog& draft) {
        for (const model::ModelObject* dsc_spec :
             middleware_model.children(controller_spec.id(), "dscs")) {
          MDSM_RETURN_IF_ERROR(draft.add_dsc(decode_dsc(*dsc_spec)));
        }
        for (controller::Procedure& procedure : procedures) {
          MDSM_RETURN_IF_ERROR(draft.add_procedure(std::move(procedure)));
        }
        return Status::Ok();
      }));
  for (const model::ModelObject* action_spec :
       middleware_model.children(controller_spec.id(), "actions")) {
    Result<controller::ControllerAction> action =
        decode_controller_action(middleware_model, *action_spec);
    if (!action.ok()) return action.status();
    MDSM_RETURN_IF_ERROR(
        controller_->register_action(std::move(action.value())));
  }
  for (const model::ModelObject* binding_spec :
       middleware_model.children(controller_spec.id(), "bindings")) {
    std::vector<std::string> action_names;
    for (const std::string& target : binding_spec->targets("actions")) {
      const model::ModelObject* action_spec = middleware_model.find(target);
      if (action_spec == nullptr) {
        return ConformanceError("binding '" + binding_spec->id() +
                                "' references missing action '" + target +
                                "'");
      }
      action_names.push_back(action_spec->get_string("name"));
    }
    MDSM_RETURN_IF_ERROR(controller_->bind_action(
        binding_spec->get_string("command"), std::move(action_names)));
  }
  for (const model::ModelObject* mapping_spec :
       middleware_model.children(controller_spec.id(), "mappings")) {
    MDSM_RETURN_IF_ERROR(
        controller_->map_command(mapping_spec->get_string("command"),
                                 mapping_spec->get_string("dsc")));
  }
  for (const model::ModelObject* policy_spec :
       middleware_model.children(controller_spec.id(), "policies")) {
    const std::string role = policy_spec->get_string("role", "classification");
    policy::PolicySet& target = role == "selection"
                                    ? controller_->selection_policies()
                                    : controller_->classification_policies();
    MDSM_RETURN_IF_ERROR(target.add(
        policy_spec->get_string("name"), policy_spec->get_string("condition"),
        policy_spec->get_string("decision"),
        static_cast<int>(policy_spec->get_int("priority"))));
  }
  return Status::Ok();
}

Status Platform::add_resource_adapter(
    std::unique_ptr<broker::ResourceAdapter> adapter) {
  return broker_->resources().add_adapter(std::move(adapter));
}

Status Platform::start() {
  std::lock_guard lock(lifecycle_mutex_);
  if (running_.load(std::memory_order_acquire)) return Status::Ok();
  for (const std::string& required : required_resources_) {
    if (!broker_->resources().has_adapter(required)) {
      return FailedPrecondition("required resource adapter '" + required +
                                "' is not installed");
    }
  }
  MDSM_RETURN_IF_ERROR(broker_->start());
  MDSM_RETURN_IF_ERROR(controller_->start());
  MDSM_RETURN_IF_ERROR(synthesis_->start());
  running_.store(true, std::memory_order_release);
  log_info("platform") << name_ << " started";
  return Status::Ok();
}

Status Platform::stop() {
  std::lock_guard lock(lifecycle_mutex_);
  // Close the gate first: submissions that re-check running_ after this
  // are rejected; ones already past the check are counted in inflight_.
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return Status::Ok();
  }
  // Drain the async pipeline (queued tasks run to completion — rejected
  // by the gate or finishing normally), then wait out every in-flight
  // submission before stopping the layers under them. Staged requests
  // hold an inflight slot from the door to their terminal continuation,
  // so the wait also covers requests parked on event-loop timers — the
  // threaded loop keeps firing them; a manual loop must be pumped here.
  if (pipeline_ != nullptr) pipeline_->drain();
  if (loop_ != nullptr && !loop_->threaded()) {
    while (true) {
      {
        std::lock_guard inflight(inflight_mutex_);
        if (inflight_ == 0) break;
      }
      loop_->flush();
      if (pipeline_ != nullptr) pipeline_->drain();
      std::this_thread::yield();  // sync submissions drain on their own
    }
  }
  {
    std::unique_lock inflight(inflight_mutex_);
    inflight_cv_.wait(inflight, [this] { return inflight_ == 0; });
  }
  MDSM_RETURN_IF_ERROR(synthesis_->stop());
  MDSM_RETURN_IF_ERROR(controller_->stop());
  MDSM_RETURN_IF_ERROR(broker_->stop());
  return Status::Ok();
}

Result<controller::ControlScript> Platform::submit_model_text(
    std::string_view text, obs::RequestContext& context) {
  return submit_inline(text, context, context.remote_id());
}

Result<controller::ControlScript> Platform::submit_model_text(
    std::string_view text) {
  last_context_ = std::make_unique<obs::RequestContext>(*clock_, &metrics_);
  return submit_model_text(text, *last_context_);
}

Result<controller::ControlScript> Platform::submit_woven(
    const std::vector<std::string_view>& concern_texts,
    synthesis::WeaveConfig weave_config) {
  std::vector<model::Model> concerns;
  concerns.reserve(concern_texts.size());
  for (std::string_view text : concern_texts) {
    Result<model::Model> parsed = model::parse_model(text, dsml_);
    if (!parsed.ok()) return parsed.status();
    concerns.push_back(std::move(parsed.value()));
  }
  std::vector<const model::Model*> views;
  views.reserve(concerns.size());
  for (const model::Model& concern : concerns) views.push_back(&concern);
  Result<model::Model> woven =
      synthesis::weave(views, std::move(weave_config));
  if (!woven.ok()) return woven.status();
  return submit_model(std::move(woven.value()));
}

Result<controller::ControlScript> Platform::submit_model(
    model::Model application_model, obs::RequestContext& context) {
  const std::string name = application_model.name();
  return submit_inline(std::move(application_model), context, name);
}

Result<controller::ControlScript> Platform::submit_model(
    model::Model application_model) {
  last_context_ = std::make_unique<obs::RequestContext>(*clock_, &metrics_);
  return submit_model(std::move(application_model), *last_context_);
}

Status Platform::ui_gate(obs::RequestContext& context) {
  if (!running_.load(std::memory_order_acquire)) {
    return FailedPrecondition("platform '" + name_ + "' is not started");
  }
  // UI-layer admission: shed requests whose deadline is already
  // spent or whose remaining budget cannot cover the predicted pipeline
  // latency — before they cost any synthesis work. For async submissions
  // this re-checks the enqueue-time decision after queue delay ate into
  // the budget. Falls through to the plain deadline check when admission
  // is disabled.
  MDSM_RETURN_IF_ERROR(admission_.admit(context));
  return context.check_deadline("ui");
}

void Platform::ensure_pipeline() {
  std::lock_guard lock(pipeline_mutex_);
  if (pipeline_ != nullptr) return;
  runtime::ExecutorConfig config = pipeline_config_;
  config.thread_count = pipeline_threads_ != 0
                            ? pipeline_threads_
                            : std::thread::hardware_concurrency();
  if (config.thread_count == 0) config.thread_count = 1;
  pipeline_ = std::make_unique<runtime::Executor>(config);
  pipeline_->set_metrics(&metrics_);
  pipeline_->set_clock(clock_);
  // The staged core: the entry stage and the resume stage over the shared
  // executor, plus the event loop that parked requests wait on.
  stages_ = std::make_unique<runtime::StagePipeline>(*pipeline_, *clock_,
                                                     &metrics_);
  stage_synthesis_ = stages_->add_stage("synthesis");
  stage_broker_ = stages_->add_stage("broker");
  runtime::EventLoopConfig loop_config;
  loop_config.clock = clock_;
  loop_config.threaded = !manual_loop_;
  // An injected virtual clock advances without waking the loop thread;
  // the poll cap bounds how stale a due check can get. 1ms keeps the
  // loop idle-cheap while real-time tests stay responsive.
  loop_config.poll_cap = Duration(1000);
  loop_ = std::make_unique<runtime::EventLoop>(loop_config);
  // Broker invocations park their retries/overruns on the loop and hop
  // back onto workers through the broker stage.
  broker_->resources().set_async_engine(
      loop_.get(), [this](std::function<void()> fn) {
        runtime::StagePipeline::SubmitOptions options;
        options.continuation = true;
        Status submitted =
            stages_->submit(stage_broker_, std::move(fn), options);
        if (!submitted.ok()) {
          log_warn("platform") << "broker continuation dropped: "
                               << submitted.to_string();
        }
      });
}

// ---- the request driver ------------------------------------------------
//
// Every entry runs one driver: UI gate → parse → synthesis submit (the
// commit, then the controller/broker chain) → finish (late-success gate,
// callback). The sync entries run it in blocking mode, so every leaf
// settles inline.
// submit_async runs it from one entry task on the `synthesis` stage; from
// there the chain runs to completion on whichever thread settles each
// leaf, and goes back to the executor only when a parked broker call
// resumes (through the `broker` stage). A sync request lives in its
// caller's frame; an async one is shared by its entry task, the parked
// chain, the watchdog and the shed hook. Ownership discipline: exactly one
// thread holds the request (and may touch its trace) at a time; the
// deadline watchdog — the only concurrent party — flips `resolved` and
// invokes the callback but NEVER touches the trace. The chain still runs
// to its end, where finish() closes the spans and releases the inflight
// slot, so stop() waits out every admitted request and no span is written
// concurrently.

struct Platform::Request {
  obs::RequestContext* context = nullptr;
  /// The context submit_async minted (sync callers own theirs).
  std::shared_ptr<obs::RequestContext> owned_context;
  SubmitCallback callback;
  std::uint64_t root_span = 0;   ///< "ui.submit", closed by finish()
  std::uint64_t queue_span = 0;  ///< "runtime.queue", closed by the entry task
  std::uint64_t watchdog = 0;    ///< deadline timer id (0 = none)
  std::atomic<bool> resolved{false};
  /// True once real pipeline work began (set just before the synthesis
  /// submit). Only executed requests feed the admission EWMA: a burst of
  /// fast refusals (admission re-check, deadline check, parse errors)
  /// must not drag the latency prediction down and re-admit doomed work.
  bool executed = false;
  std::optional<InflightGuard> inflight;
};

Result<controller::ControlScript> Platform::submit_inline(
    Submission submission, obs::RequestContext& context,
    std::string_view detail) {
  Request request;
  // The inflight slot registers before the gate's running_ check: stop()
  // either rejects this request or waits for it — never tears it.
  request.inflight.emplace(*this);
  request.context = &context;
  // UI-layer crossing: the root span of the request's trace.
  request.root_span = context.open_span("ui.submit", detail);
  return settle_inline<Result<controller::ControlScript>>(
      [&](SubmitCallback done) {
        request.callback = std::move(done);
        drive(request, std::move(submission), nullptr);
      });
}

Status Platform::submit_async(std::string text, SubmitCallback callback,
                              SubmitOptions options) {
  auto request = std::make_shared<Request>();
  // The inflight slot registers before the running_ check (same rule as
  // the sync entries): stop() either rejects this request or waits for it.
  request->inflight.emplace(*this);
  if (!running_.load(std::memory_order_acquire)) {
    return FailedPrecondition("platform '" + name_ + "' is not started");
  }
  ensure_pipeline();
  request->owned_context = std::make_shared<obs::RequestContext>(
      *clock_, &metrics_, options.deadline);
  obs::RequestContext& context = *request->owned_context;
  request->context = &context;
  if (options.high_priority) context.set_attribute("priority", "high");
  for (auto& [key, value] : options.attributes) {
    context.set_attribute(key, value);
  }
  // Enqueue-time admission: refuse doomed work before it costs a queue
  // slot. The driver's UI gate re-checks after queue delay.
  if (Status admitted = admission_.admit(context); !admitted.ok()) {
    return admitted;
  }
  request->callback = std::move(callback);
  // One root span for the whole traversal — every layer, park and resume
  // nests under it, so the trace stays a single tree no matter how many
  // threads the request visits. A request that crossed the wire carries
  // the sender's id as the span detail, keeping remote and local trace
  // trees correlated.
  const std::string_view remote = context.remote_id();
  request->root_span = context.open_span(
      "ui.submit", remote.empty() ? std::string_view("staged") : remote);
  request->queue_span = context.open_span("runtime.queue");
  // Deadline watchdog: a request whose budget expires while parked
  // resolves with kTimeout *when it expires*, not when some layer
  // eventually notices. The loser of the resolved race only counts; the
  // chain does the trace/inflight cleanup in finish().
  if (options.deadline.has_value()) {
    request->watchdog = loop_->schedule(
        std::max<Duration>(*options.deadline, Duration(0)), [this, request] {
          if (request->resolved.exchange(true, std::memory_order_acq_rel)) {
            return;
          }
          counters_.watchdog_timeouts.add();
          counters_.failed.add();
          invoke_callback(request->callback,
                          Timeout(request->context->tag() +
                                  " deadline expired in the staged pipeline"));
        });
  }
  runtime::StagePipeline::SubmitOptions stage_options;
  stage_options.lane = context.high_priority() ? runtime::TaskLane::kHigh
                                               : runtime::TaskLane::kNormal;
  // kShedOldest victims resolve their callback exactly once, then the
  // shed handler (the request never started) closes out.
  stage_options.on_shed = [this, request] {
    const bool won =
        !request->resolved.exchange(true, std::memory_order_acq_rel);
    request->context->close_span(request->root_span);  // closes queue span
    if (won) {
      if (request->watchdog != 0) loop_->cancel(request->watchdog);
      invoke_callback(request->callback,
                      Unavailable(request->context->tag() +
                                  " shed from the pipeline queue under "
                                  "overload"));
    }
    request->inflight.reset();
  };
  Status submitted = stages_->submit(
      stage_synthesis_,
      [this, request, text = std::move(text)] {
        request->context->close_span(request->queue_span);
        if (request->resolved.load(std::memory_order_acquire)) {
          // The watchdog timed the request out while it queued: close out
          // without running it (the watchdog already answered).
          finish(*request, Timeout(request->context->tag() +
                                   " deadline expired in the queue"));
          return;
        }
        drive(*request, std::string_view(text), request);
      },
      stage_options);
  if (!submitted.ok()) {
    // Door refusal (kReject/full queue): undo — no callback, the caller
    // gets the status.
    context.close_span(request->root_span);
    if (request->watchdog != 0) loop_->cancel(request->watchdog);
    return submitted;
  }
  return Status::Ok();
}

void Platform::drive(Request& request, Submission submission,
                     std::shared_ptr<Request> owner) {
  obs::RequestContext& context = *request.context;
  // The scope makes the context ambient so bus events published anywhere
  // below are stamped with this request's id.
  obs::ContextScope ambient(context);
  counters_.submitted.add();
  if (Status gate = ui_gate(context); !gate.ok()) {
    finish(request, std::move(gate));
    return;
  }
  Result<model::Model> application_model =
      std::holds_alternative<model::Model>(submission)
          ? Result<model::Model>(std::get<model::Model>(std::move(submission)))
          : model::parse_model(std::get<std::string_view>(submission), dsml_);
  if (!application_model.ok()) {
    finish(request, application_model.status());
    return;
  }
  request.executed = true;
  model::Model committed = std::move(application_model.value());
  // The leaf: a blocking submit settles before returning, so the
  // continuation borrows the caller's request; a parking one holds it.
  if (owner == nullptr) {
    synthesis_->submit(std::move(committed), context, /*blocking=*/true,
                       [this, &request](Result<controller::ControlScript> r) {
                         finish(request, std::move(r));
                       });
    return;
  }
  synthesis_->submit(std::move(committed), context, /*blocking=*/false,
                     [this, owner](Result<controller::ControlScript> r) {
                       finish(*owner, std::move(r));
                     });
}

void Platform::finish(Request& request,
                      Result<controller::ControlScript> outcome) {
  obs::RequestContext& context = *request.context;
  // Feed the admission EWMA with the observed end-to-end latency (queue
  // and park time included — async contexts are minted at enqueue), but
  // only for requests that actually ran the pipeline: shed and refused
  // requests resolve in microseconds and would poison the prediction.
  if (request.executed) admission_.record_latency(context.elapsed());
  // Once the watchdog has answered, the outcome goes nowhere and counts
  // nowhere.
  const bool won =
      !request.resolved.exchange(true, std::memory_order_acq_rel);
  // Overload contract: a success the caller's budget can no longer use
  // is delivered as kTimeout (counted in "ui.completed_late"), never as a
  // late Ok. The earlier gates make this rare — it fires only when the
  // execution itself crossed the deadline.
  if (won && outcome.ok() && context.expired()) {
    counters_.completed_late.add();
    outcome = Timeout(context.tag() + " completed after its deadline");
  }
  if (won && !outcome.ok()) counters_.failed.add();
  // Close-through: the root span pops any child spans a timed-out chain
  // left open, keeping the trace a single well-formed tree.
  context.close_span(request.root_span);
  if (request.owned_context != nullptr) {
    std::lock_guard lock(last_async_mutex_);
    last_async_context_ = request.owned_context;
  }
  if (won) {
    if (request.watchdog != 0) loop_->cancel(request.watchdog);
    invoke_callback(request.callback, std::move(outcome));
  }
  request.inflight.reset();
}

void Platform::invoke_callback(const SubmitCallback& callback,
                               Result<controller::ControlScript> outcome) {
  if (callback == nullptr) return;
  try {
    callback(std::move(outcome));
  } catch (const std::exception& error) {
    counters_.callback_failures.add();
    log_warn("platform") << "submit_async callback threw: " << error.what();
  } catch (...) {
    counters_.callback_failures.add();
    log_warn("platform") << "submit_async callback threw a non-exception";
  }
}

Platform::PipelineStats Platform::pipeline_stats() const {
  std::lock_guard lock(pipeline_mutex_);
  PipelineStats stats;
  stats.queue_capacity = pipeline_config_.queue_capacity;
  if (pipeline_ != nullptr) {
    stats.max_pending = pipeline_->max_pending();
    stats.max_bounded_pending = pipeline_->max_bounded_pending();
    stats.rejections = pipeline_->rejections();
    stats.shed = pipeline_->shed_tasks();
  }
  return stats;
}

std::vector<runtime::StagePipeline::StageStats> Platform::stage_stats()
    const {
  std::lock_guard lock(pipeline_mutex_);
  if (stages_ == nullptr) return {};
  return stages_->stats();
}

std::string Platform::runtime_model_text() const {
  return synthesis_->runtime_model_text();
}

// ---- session-state checkpoint / snapshot-restore (PR 10) --------------

namespace {

/// Wire/disk format tag; bumped if the pair layout ever changes.
constexpr std::string_view kCheckpointFormat = "mdsm-session-checkpoint-v1";

/// The checkpoint tree is a list of [key, value] pairs; find `key`.
const model::Value* find_checkpoint_entry(const model::ValueList& entries,
                                          std::string_view key) {
  for (const model::Value& entry : entries) {
    if (!entry.is_list() || entry.as_list().size() != 2) continue;
    const model::ValueList& pair = entry.as_list();
    if (pair[0].is_string() && pair[0].as_string() == key) return &pair[1];
  }
  return nullptr;
}

model::Value make_pair(std::string key, model::Value value) {
  model::ValueList pair;
  pair.push_back(model::Value(std::move(key)));
  pair.push_back(std::move(value));
  return model::Value(std::move(pair));
}

/// Pack a sorted string→Value map as [[key, value], ...]. The input maps
/// are std::map, so the encoding is deterministic — snapshot() texts are
/// byte-comparable.
template <typename Map>
model::Value pack_scalar_map(const Map& map) {
  model::ValueList out;
  out.reserve(map.size());
  for (const auto& [key, value] : map) {
    out.push_back(make_pair(key, value));
  }
  return model::Value(std::move(out));
}

using CheckpointPairs = std::vector<std::pair<std::string, model::Value>>;

/// Decode the [[key, value], ...] section `what` (absent section = empty).
Result<CheckpointPairs> checkpoint_pairs(const model::ValueList& entries,
                                         std::string_view what) {
  const model::Value* section = find_checkpoint_entry(entries, what);
  if (section == nullptr) return CheckpointPairs{};
  if (!section->is_list()) {
    return InvalidArgument("checkpoint section '" + std::string(what) +
                           "' must be a list of [key, value] pairs");
  }
  CheckpointPairs pairs;
  for (const model::Value& entry : section->as_list()) {
    if (!entry.is_list() || entry.as_list().size() != 2 ||
        !entry.as_list()[0].is_string()) {
      return InvalidArgument("checkpoint section '" + std::string(what) +
                             "' holds a malformed [key, value] pair");
    }
    pairs.emplace_back(entry.as_list()[0].as_string(), entry.as_list()[1]);
  }
  return pairs;
}

}  // namespace

Result<model::Value> Platform::export_session_state(
    const std::string& session) {
  // The runtime model and the interpreter's LTS states are captured in
  // ONE hold of the synthesis mutex — mutually consistent even while
  // submissions race. The scalar stores follow as point-in-time copies
  // (each internally synchronized).
  synthesis::SynthesisEngine::ExportedState synth = synthesis_->export_state();
  model::ValueList lts;
  lts.reserve(synth.lts_states.size());
  for (const auto& [object_id, state] : synth.lts_states) {
    lts.push_back(make_pair(object_id, model::Value(state)));
  }
  model::ValueList root;
  root.push_back(make_pair("format", model::Value(std::string(
                                         kCheckpointFormat))));
  root.push_back(make_pair("session", model::Value(session)));
  root.push_back(
      make_pair("runtime_model",
                model::Value(std::move(synth.runtime_model_text))));
  root.push_back(make_pair("lts_states", model::Value(std::move(lts))));
  root.push_back(make_pair(
      "memory", pack_scalar_map(controller_->engine().memory_snapshot())));
  root.push_back(make_pair("context", pack_scalar_map(context_.snapshot())));
  root.push_back(make_pair(
      "broker", pack_scalar_map(broker_->state().variables_snapshot())));
  return model::Value(std::move(root));
}

Status Platform::import_session_state(const model::Value& state) {
  if (!state.is_list()) {
    return InvalidArgument(
        "session checkpoint must be a list of [key, value] pairs");
  }
  const model::ValueList& entries = state.as_list();
  const model::Value* format = find_checkpoint_entry(entries, "format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != kCheckpointFormat) {
    return InvalidArgument("unrecognized session-checkpoint format");
  }
  const model::Value* model_text =
      find_checkpoint_entry(entries, "runtime_model");
  if (model_text == nullptr || !model_text->is_string()) {
    return InvalidArgument("session checkpoint carries no runtime model");
  }
  // Decode every section before adopting any, so a rejected checkpoint
  // leaves the platform unchanged.
  Result<model::Model> checkpointed =
      model::parse_model(model_text->as_string(), dsml_);
  if (!checkpointed.ok()) return checkpointed.status();
  Result<CheckpointPairs> lts = checkpoint_pairs(entries, "lts_states");
  Result<CheckpointPairs> memory = checkpoint_pairs(entries, "memory");
  Result<CheckpointPairs> context = checkpoint_pairs(entries, "context");
  Result<CheckpointPairs> broker = checkpoint_pairs(entries, "broker");
  for (const auto* section : {&lts, &memory, &context, &broker}) {
    if (!section->ok()) return section->status();
  }
  std::map<std::string, std::string, std::less<>> lts_states;
  for (const auto& [object_id, state] : lts.value()) {
    if (!state.is_string()) {
      return InvalidArgument(
          "checkpoint lts_states entries must be [id, state] string pairs");
    }
    lts_states[object_id] = state.as_string();
  }
  // The model conformance check is the last one that can refuse; it
  // fires the model listener so the broker's runtime-model mirror
  // converges.
  MDSM_RETURN_IF_ERROR(synthesis_->restore_state(
      std::move(checkpointed.value()), std::move(lts_states)));
  for (const auto& [key, value] : memory.value()) {
    controller_->engine().set_memory(key, value);
  }
  for (const auto& [key, value] : context.value()) context_.set(key, value);
  for (const auto& [key, value] : broker.value()) {
    broker_->state().set(key, value);
  }
  counters_.session_states_imported.add();
  return Status::Ok();
}

Result<std::string> Platform::snapshot() {
  Result<model::Value> exported = export_session_state(name_);
  if (!exported.ok()) return exported.status();
  return exported.value().to_text();
}

Status Platform::restore(std::string_view snapshot_text) {
  Result<model::Value> parsed = model::parse_value(snapshot_text);
  if (!parsed.ok()) return parsed.status();
  return import_session_state(parsed.value());
}

}  // namespace mdsm::core
