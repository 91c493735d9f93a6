#include "controller/controller_layer.hpp"

#include "common/log.hpp"

namespace mdsm::controller {

ControllerLayer::ControllerLayer(std::string name, broker::BrokerApi& broker,
                                 runtime::EventBus& bus,
                                 policy::ContextStore& context,
                                 GeneratorConfig generator_config)
    : Component(std::move(name)),
      broker_(&broker),
      bus_(&bus),
      context_(&context),
      generator_(catalog_, context, generator_config),
      engine_(broker, bus, context) {
  engine_.set_metrics(&metrics_.registry());
}

Status ControllerLayer::add_procedure(Procedure procedure) {
  return catalog_.edit([&](Catalog& draft) {
    return draft.add_procedure(std::move(procedure));
  });
}

Status ControllerLayer::register_action(ControllerAction action) {
  const std::string name = action.name;
  std::unique_lock lock(config_mutex_);
  auto [it, inserted] = actions_.emplace(name, std::move(action));
  if (!inserted) {
    return AlreadyExists("controller action '" + name +
                         "' already registered");
  }
  return Status::Ok();
}

Status ControllerLayer::bind_action(const std::string& command,
                                    std::vector<std::string> action_names) {
  std::unique_lock lock(config_mutex_);
  for (const std::string& action_name : action_names) {
    if (!actions_.contains(action_name)) {
      return NotFound("binding for '" + command + "' names unknown action '" +
                      action_name + "'");
    }
  }
  auto& bound = bindings_[command];
  for (std::string& action_name : action_names) {
    bound.push_back(std::move(action_name));
  }
  return Status::Ok();
}

Status ControllerLayer::map_command(const std::string& command,
                                    const std::string& dsc) {
  if (!dscs_.contains(dsc)) {
    return NotFound("command '" + command + "' mapped to unknown DSC '" +
                    dsc + "'");
  }
  std::unique_lock lock(config_mutex_);
  command_dsc_[command] = dsc;
  return Status::Ok();
}

void ControllerLayer::attach_event_topic(const std::string& topic) {
  subscriptions_.push_back(
      bus_->subscribe(topic, [this](const runtime::Event& event) {
        Signal signal;
        signal.kind = SignalKind::kEvent;
        signal.name = event.topic;
        signal.args["event.payload"] = event.payload;
        signal.args["event.source"] = model::Value(event.source);
        enqueue(std::move(signal));
      }));
}

void ControllerLayer::enqueue(Signal signal) {
  {
    std::lock_guard lock(queue_mutex_);
    queue_.push_back(std::move(signal));
  }
  metrics_->signals.add();
}

Status ControllerLayer::submit_script(const ControlScript& script,
                                      obs::RequestContext& context) {
  MDSM_RETURN_IF_ERROR(context.check_deadline("controller"));
  for (const Command& command : script.commands) {
    Signal signal;
    signal.kind = SignalKind::kCall;
    signal.name = command.name;
    signal.args = command.args;
    enqueue(std::move(signal));
  }
  return Status::Ok();
}

Status ControllerLayer::submit_command(Command command) {
  Signal signal;
  signal.kind = SignalKind::kCall;
  signal.name = std::move(command.name);
  signal.args = std::move(command.args);
  enqueue(std::move(signal));
  return Status::Ok();
}

void ControllerLayer::report_error(const std::string& signal,
                                   const Status& status) {
  metrics_->errors.add();
  bus_->publish("controller.error", name(),
                model::Value(signal + ": " + status.to_string()));
}

std::size_t ControllerLayer::process_pending(obs::RequestContext& context) {
  obs::ContextScope ambient(context);
  std::size_t processed = 0;
  // Signals enqueued during processing (events raised by executions) are
  // drained too, up to a sanity bound. Pop one signal per lock hold:
  // executions themselves run unlocked, so concurrent drainers interleave
  // instead of serializing on the queue.
  constexpr std::size_t kMaxBatch = 100000;
  while (processed < kMaxBatch) {
    Signal signal;
    {
      std::lock_guard lock(queue_mutex_);
      if (queue_.empty()) break;
      signal = std::move(queue_.front());
      queue_.pop_front();
    }
    ++processed;
    obs::ScopedSpan span(context, "controller.signal", signal.name);
    Command command{signal.name, std::move(signal.args)};
    if (signal.kind == SignalKind::kCall) {
      Result<model::Value> outcome = execute_command(command, context);
      if (!outcome.ok()) report_error(command.to_text(), outcome.status());
      continue;
    }
    metrics_->events.add();
    // Events are handled by Case-1 actions bound to the topic; an unbound
    // event is simply observed (layers subscribe selectively).
    bool bound;
    {
      std::shared_lock lock(config_mutex_);
      bound = bindings_.contains(signal.name);
    }
    if (!bound) continue;
    Result<model::Value> outcome =
        settle_inline<Result<model::Value>>([&](CommandCallback done) {
          execute_case1(command, context, /*blocking=*/true, std::move(done));
        });
    if (!outcome.ok()) report_error(signal.name, outcome.status());
  }
  return processed;
}

Result<ControllerLayer::Case> ControllerLayer::classify(
    const Command& command) const {
  // Domain policies see the command name as a transient *overlay* binding
  // — the shared context store itself is untouched, so concurrent
  // classifications neither race each other nor churn the context
  // version the IM cache keys on.
  policy::ContextOverlay view(*context_);
  view.bind("command.name", command.name);
  auto decision = classification_policies_.evaluate(view);
  if (decision.has_value()) {
    if (decision->decision == "case1") return Case::kCase1;
    if (decision->decision == "case2") return Case::kCase2;
    return Internal("classification policy '" + decision->policy_name +
                    "' yielded unknown case '" + decision->decision + "'");
  }
  // Defaults: a bound action wins; otherwise a DSC mapping (or a DSC
  // named like the command) selects dynamic generation.
  {
    std::shared_lock lock(config_mutex_);
    if (bindings_.contains(command.name)) return Case::kCase1;
    if (command_dsc_.contains(command.name)) return Case::kCase2;
  }
  if (dscs_.contains(command.name)) return Case::kCase2;
  return NotFound("command '" + command.name +
                  "' has neither a bound action nor a DSC mapping");
}

SelectionStrategy ControllerLayer::selection_strategy() const {
  auto decision = selection_policies_.evaluate(*context_);
  if (!decision.has_value()) return SelectionStrategy::kMinCost;
  if (decision->decision == "max-quality") {
    return SelectionStrategy::kMaxQuality;
  }
  if (decision->decision == "first-valid") {
    return SelectionStrategy::kFirstValid;
  }
  return SelectionStrategy::kMinCost;
}

Result<model::Value> ControllerLayer::execute_command(
    const Command& command, obs::RequestContext& context) {
  return settle_inline<Result<model::Value>>([&](CommandCallback done) {
    dispatch(command, context, /*blocking=*/true, std::move(done));
  });
}

void ControllerLayer::execute_command_async(const Command& command,
                                            obs::RequestContext& context,
                                            CommandCallback done) {
  dispatch(command, context, /*blocking=*/false, std::move(done));
}

void ControllerLayer::dispatch(const Command& command,
                               obs::RequestContext& context, bool blocking,
                               CommandCallback done) {
  obs::ContextScope ambient(context);
  if (Status deadline = context.check_deadline("controller");
      !deadline.ok()) {
    done(deadline);
    return;
  }
  Result<Case> which = classify(command);
  if (!which.ok()) {
    done(which.status());
    return;
  }
  log_debug("controller") << name() << " " << command.to_text() << " -> "
                          << (*which == Case::kCase1 ? "case1" : "case2");
  if (*which == Case::kCase1) {
    execute_case1(command, context, blocking, std::move(done));
  } else {
    execute_case2(command, context, blocking, std::move(done));
  }
}

void ControllerLayer::execute_case1(const Command& command,
                                    obs::RequestContext& context,
                                    bool blocking, CommandCallback done) {
  // Select under the shared lock, execute outside it (action nodes are
  // never removed, so `best` — and its body — outlive the run).
  const ControllerAction* best = nullptr;
  {
    std::shared_lock lock(config_mutex_);
    auto it = bindings_.find(command.name);
    if (it == bindings_.end()) {
      lock.unlock();
      done(NotFound("no action bound to command '" + command.name + "'"));
      return;
    }
    for (const std::string& action_name : it->second) {
      auto action_it = actions_.find(action_name);
      if (action_it == actions_.end()) continue;
      const ControllerAction& action = action_it->second;
      Result<bool> applicable = action.guard.evaluate_bool(*context_);
      if (!applicable.ok() || !*applicable) continue;
      if (best == nullptr || action.priority > best->priority) best = &action;
    }
  }
  if (best == nullptr) {
    done(FailedPrecondition("no applicable action for command '" +
                            command.name + "' in current context"));
    return;
  }
  metrics_->case1.add();
  metrics_->commands.add();
  if (blocking) {
    done(engine_.execute_flat(best->body, command.args, context));
  } else {
    engine_.execute_flat_async(best->body, command.args, context,
                               std::move(done));
  }
}

void ControllerLayer::execute_case2(const Command& command,
                                    obs::RequestContext& context,
                                    bool blocking, CommandCallback done) {
  std::string dsc;
  {
    std::shared_lock lock(config_mutex_);
    auto it = command_dsc_.find(command.name);
    dsc = it != command_dsc_.end() ? it->second : command.name;
  }
  Result<IntentModelPtr> intent_model =
      generator_.generate_cached(dsc, selection_strategy());
  if (!intent_model.ok()) {
    done(intent_model.status());
    return;
  }
  metrics_->case2.add();
  metrics_->commands.add();
  // The IM stays pinned for the whole run (the cache may evict it while
  // a staged request is parked mid-execution): by this frame when
  // blocking, by the completion's capture when staged.
  IntentModelPtr pinned = std::move(intent_model.value());
  const IntentModel& model_ref = *pinned;
  if (blocking) {
    done(engine_.execute(model_ref, command.args, context));
    return;
  }
  engine_.execute_async(
      model_ref, command.args, context,
      [pinned = std::move(pinned),
       done = std::move(done)](Result<model::Value> outcome) {
        done(std::move(outcome));
      });
}

struct ControllerLayer::ScriptRun {
  ControlScript owned;  ///< a staged run's copy of its script
  const ControlScript* script = nullptr;
  obs::RequestContext* context = nullptr;
  ScriptCallback done;
  bool blocking = false;
  std::uint64_t script_span = 0;  ///< "controller.script", closed at end
  std::size_t index = 0;
};

Status ControllerLayer::execute_script(const ControlScript& script,
                                       obs::RequestContext& context) {
  return settle_inline<Status>([&](ScriptCallback done) {
    auto run = std::make_shared<ScriptRun>();
    run->script = &script;
    run->blocking = true;
    start_script(std::move(run), context, std::move(done));
  });
}

void ControllerLayer::execute_script_async(ControlScript script,
                                           obs::RequestContext& context,
                                           ScriptCallback done) {
  auto run = std::make_shared<ScriptRun>();
  run->owned = std::move(script);
  run->script = &run->owned;
  start_script(std::move(run), context, std::move(done));
}

void ControllerLayer::start_script(std::shared_ptr<ScriptRun> run,
                                   obs::RequestContext& context,
                                   ScriptCallback done) {
  obs::ContextScope ambient(context);
  run->context = &context;
  run->done = std::move(done);
  run->script_span = context.open_span(
      "controller.script",
      std::to_string(run->script->commands.size()) + " commands");
  if (Status deadline = context.check_deadline("controller");
      !deadline.ok()) {
    context.close_span(run->script_span);
    run->done(deadline);
    return;
  }
  drive_script(std::move(run));
}

void ControllerLayer::drive_script(std::shared_ptr<ScriptRun> run) {
  obs::ContextScope ambient(*run->context);
  while (run->index < run->script->commands.size()) {
    const Command& command = run->script->commands[run->index++];
    metrics_->signals.add();
    const std::uint64_t span =
        run->context->open_span("controller.signal", command.name);
    // Trampoline: inline completions (every blocking one) continue this
    // loop; a parked command's completion re-enters drive_script on the
    // settling thread.
    auto turn = std::make_shared<std::atomic<int>>(0);
    dispatch(command, *run->context, run->blocking,
             [this, run, turn, span,
              &command](Result<model::Value> outcome) {
               if (!outcome.ok()) {
                 report_error(command.to_text(), outcome.status());
               }
               run->context->close_span(span);
               if (turn->exchange(2, std::memory_order_acq_rel) == 1) {
                 drive_script(run);
               }
             });
    if (turn->exchange(1, std::memory_order_acq_rel) == 0) {
      return;  // parked: the command's completion resumes the script
    }
  }
  // Drain event signals the executions raised (kEmit → subscribed topic).
  process_pending(*run->context);
  run->context->close_span(run->script_span);
  run->done(Status::Ok());
}

std::size_t ControllerLayer::queued() const {
  std::lock_guard lock(queue_mutex_);
  return queue_.size();
}

}  // namespace mdsm::controller
