#include <mutex>
#include <optional>

#include "broker/broker_layer.hpp"

#include "common/log.hpp"

namespace mdsm::broker {

BrokerLayer::BrokerLayer(std::string name, runtime::EventBus& bus,
                         policy::ContextStore& context)
    : Component(std::move(name)),
      bus_(&bus),
      context_(&context),
      resources_(bus) {
  autonomic_ = std::make_unique<AutonomicManager>(
      bus, context,
      [this](const std::vector<ActionStep>& steps, const Args& args) {
        Result<model::Value> result = execute_steps(steps, args);
        return result.ok() ? Status::Ok() : result.status();
      });
  set_metrics(nullptr);
}

Status BrokerLayer::register_action(Action action) {
  const std::string name = action.name;
  std::unique_lock lock(config_mutex_);
  auto [it, inserted] = actions_.emplace(name, std::move(action));
  if (!inserted) {
    return AlreadyExists("action '" + name + "' already registered");
  }
  return Status::Ok();
}

Status BrokerLayer::bind_handler(const std::string& signal,
                                 std::vector<std::string> action_names) {
  std::unique_lock lock(config_mutex_);
  for (const std::string& action_name : action_names) {
    if (!actions_.contains(action_name)) {
      return NotFound("handler for '" + signal + "' binds unknown action '" +
                      action_name + "'");
    }
  }
  Handler& handler = handlers_[signal];
  handler.signal = signal;
  for (std::string& action_name : action_names) {
    handler.action_names.push_back(std::move(action_name));
  }
  return Status::Ok();
}

Result<const Action*> BrokerLayer::select_action(
    const std::string& signal) const {
  // Select under the shared lock; the returned pointer stays valid after
  // release because actions are never removed (node-based map).
  std::shared_lock lock(config_mutex_);
  auto it = handlers_.find(signal);
  if (it == handlers_.end()) {
    return NotFound("broker '" + name() + "' has no handler for signal '" +
                    signal + "'");
  }
  const Action* best = nullptr;
  for (const std::string& action_name : it->second.action_names) {
    auto action_it = actions_.find(action_name);
    if (action_it == actions_.end()) continue;
    const Action& action = action_it->second;
    Result<bool> applicable = action.guard.evaluate_bool(*context_);
    if (!applicable.ok() || !*applicable) continue;
    if (best == nullptr || action.priority > best->priority) {
      best = &action;
    }
  }
  if (best == nullptr) {
    return FailedPrecondition("no applicable action for signal '" + signal +
                              "' in current context");
  }
  return best;
}

void BrokerLayer::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_.wire(metrics);
  resources_.set_metrics(&metrics_.registry());
  autonomic_->set_metrics(&metrics_.registry());
}

Result<model::Value> BrokerLayer::call(const Call& call,
                                       obs::RequestContext& context) {
  return settle_inline<Result<model::Value>>([&](CallCallback done) {
    dispatch(call, context, /*blocking=*/true, std::move(done));
  });
}

void BrokerLayer::call_async(const Call& broker_call,
                             obs::RequestContext& context,
                             CallCallback done) {
  dispatch(broker_call, context, /*blocking=*/false, std::move(done));
}

Status BrokerLayer::handle_event(const std::string& topic,
                                 model::Value payload,
                                 obs::RequestContext& context) {
  Result<const Action*> action = select_action(topic);
  if (!action.ok()) {
    // Unhandled events are not errors: layers subscribe selectively.
    return Status::Ok();
  }
  obs::ContextScope ambient(context);
  obs::ScopedSpan span(context, "broker.event", topic);
  metrics_->events.add();
  Args args;
  args["event.topic"] = model::Value(topic);
  args["event.payload"] = std::move(payload);
  Result<model::Value> result =
      execute_steps((*action)->steps, args, context);
  return result.ok() ? Status::Ok() : result.status();
}

struct BrokerLayer::StepRun {
  const std::vector<ActionStep>* steps = nullptr;
  Args call_args;
  obs::RequestContext* context = nullptr;
  CallCallback done;
  bool blocking = false;
  model::Value result;
  std::optional<Result<model::Value>> pending;  ///< settled kInvoke outcome
  std::size_t index = 0;
};

void BrokerLayer::dispatch(const Call& broker_call,
                           obs::RequestContext& context, bool blocking,
                           CallCallback done) {
  obs::ContextScope ambient(context);
  metrics_->calls.add();
  // The span is closed by `finish`, not a ScopedSpan: a staged call may
  // park and complete on another thread long after this frame unwinds.
  const std::uint64_t span = context.open_span("broker.call",
                                               broker_call.name);
  obs::RequestContext* context_ptr = &context;
  CallCallback finish = [context_ptr, span,
                         done = std::move(done)](Result<model::Value> r) {
    context_ptr->close_span(span);
    done(std::move(r));
  };
  if (Status deadline = context.check_deadline("broker"); !deadline.ok()) {
    finish(deadline);
    return;
  }
  Result<const Action*> action = select_action(broker_call.name);
  if (!action.ok()) {
    finish(action.status());
    return;
  }
  log_debug("broker") << name() << " call " << broker_call.name
                      << " -> action " << (*action)->name;
  start_steps((*action)->steps, broker_call.args, context, blocking,
              std::move(finish));
}

Result<model::Value> BrokerLayer::execute_steps(
    const std::vector<ActionStep>& steps, const Args& call_args,
    obs::RequestContext& context) {
  return settle_inline<Result<model::Value>>([&](CallCallback done) {
    start_steps(steps, call_args, context, /*blocking=*/true,
                std::move(done));
  });
}

void BrokerLayer::execute_steps_async(const std::vector<ActionStep>& steps,
                                      Args call_args,
                                      obs::RequestContext& context,
                                      CallCallback done) {
  start_steps(steps, std::move(call_args), context, /*blocking=*/false,
              std::move(done));
}

void BrokerLayer::start_steps(const std::vector<ActionStep>& steps,
                              Args call_args, obs::RequestContext& context,
                              bool blocking, CallCallback done) {
  auto run = std::make_shared<StepRun>();
  run->steps = &steps;
  run->call_args = std::move(call_args);
  run->context = &context;
  run->done = std::move(done);
  run->blocking = blocking;
  drive_steps(std::move(run));
}

bool BrokerLayer::consume_pending(StepRun& run) {
  Result<model::Value> invoked = std::move(*run.pending);
  run.pending.reset();
  if (!invoked.ok()) {
    run.done(invoked.status());
    return false;
  }
  run.result = std::move(invoked.value());
  return true;
}

void BrokerLayer::drive_steps(std::shared_ptr<StepRun> run) {
  obs::ContextScope ambient(*run->context);
  const std::vector<ActionStep>& steps = *run->steps;
  while (run->index < steps.size()) {
    const ActionStep& step = steps[run->index];
    ++run->index;
    switch (step.op) {
      case StepOp::kGuard: {
        Result<bool> holds = step.guard.evaluate_bool(*context_);
        if (!holds.ok()) {
          run->done(holds.status());
          return;
        }
        if (!*holds) {
          run->done(FailedPrecondition("action guard '" + step.guard.text() +
                                       "' failed"));
          return;
        }
        break;
      }
      case StepOp::kInvoke: {
        Args resolved = resolve_args(step.args, run->call_args, *context_);
        if (run->blocking) {
          run->pending.emplace(
              resources_.invoke(step.a, step.b, resolved, *run->context));
        } else {
          // Trampoline: 0 = run loop still in this frame, 1 = run loop
          // parked, 2 = completion fired inline. Whoever arrives second
          // owns the continuation, so inline completions stay in this
          // loop (no recursion) and true parks resume on the settling
          // thread.
          auto turn = std::make_shared<std::atomic<int>>(0);
          resources_.invoke_async(
              step.a, step.b, resolved, *run->context,
              [this, run, turn](Result<model::Value> invoked) {
                run->pending.emplace(std::move(invoked));
                if (turn->exchange(2, std::memory_order_acq_rel) == 1) {
                  if (consume_pending(*run)) drive_steps(run);
                }
              });
          if (turn->exchange(1, std::memory_order_acq_rel) == 0) {
            return;  // parked: the completion resumes the run
          }
        }
        if (!consume_pending(*run)) return;
        break;
      }
      case StepOp::kSetState: {
        Args resolved = resolve_args(step.args, run->call_args, *context_);
        Result<model::Value> value = require_arg(resolved, "value",
                                                 "set-state");
        if (!value.ok()) {
          run->done(value.status());
          return;
        }
        state_.set(step.a, std::move(value.value()));
        break;
      }
      case StepOp::kSetContext: {
        Args resolved = resolve_args(step.args, run->call_args, *context_);
        Result<model::Value> value = require_arg(resolved, "value",
                                                 "set-context");
        if (!value.ok()) {
          run->done(value.status());
          return;
        }
        context_->set(step.a, std::move(value.value()));
        break;
      }
      case StepOp::kEmit: {
        Args resolved = resolve_args(step.args, run->call_args, *context_);
        Result<model::Value> payload = require_arg(resolved, "payload",
                                                   "emit");
        if (!payload.ok()) {
          run->done(payload.status());
          return;
        }
        bus_->publish(step.a, name(), std::move(payload.value()));
        break;
      }
      case StepOp::kResult: {
        Args resolved = resolve_args(step.args, run->call_args, *context_);
        Result<model::Value> value = require_arg(resolved, "value", "result");
        if (!value.ok()) {
          run->done(value.status());
          return;
        }
        run->result = std::move(value.value());
        break;
      }
    }
  }
  run->done(std::move(run->result));
}

}  // namespace mdsm::broker
