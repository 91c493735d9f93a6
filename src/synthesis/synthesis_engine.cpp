#include "synthesis/synthesis_engine.hpp"

#include "common/log.hpp"
#include "model/text_format.hpp"

namespace mdsm::synthesis {

namespace {

/// A committed script on its way through the executor hook. The hook
/// settles it once: that closes the request's "synthesis.submit" span
/// and delivers the script, or the execution failure.
struct Execution {
  controller::ControlScript script;
  SynthesisEngine::SubmitCallback done;
  obs::RequestContext* context;
  std::uint64_t span;

  void settle(Status executed) {
    context->close_span(span);
    if (!executed.ok()) {
      done(std::move(executed));
      return;
    }
    done(std::move(script));
  }
};

}  // namespace

SynthesisEngine::SynthesisEngine(std::string name, model::MetamodelPtr dsml,
                                 Lts lts, const policy::ContextStore& context,
                                 Dispatch dispatch)
    : Component(std::move(name)),
      dsml_(dsml),
      lts_(std::move(lts)),
      interpreter_(lts_, dsml, context),
      dispatch_(std::move(dispatch)),
      runtime_model_(std::make_shared<const model::Model>("runtime", dsml)) {}

Result<controller::ControlScript> SynthesisEngine::submit_model(
    model::Model new_model, obs::RequestContext& context) {
  return settle_inline<Result<controller::ControlScript>>(
      [&](SubmitCallback done) {
        submit(std::move(new_model), context, /*blocking=*/true,
               std::move(done));
      });
}

void SynthesisEngine::submit(model::Model new_model,
                             obs::RequestContext& context, bool blocking,
                             SubmitCallback done) {
  obs::ContextScope ambient(context);
  const std::uint64_t span =
      context.open_span("synthesis.submit", new_model.name());
  Result<controller::ControlScript> script =
      commit_core(std::move(new_model), context);
  if (!script.ok() || executor_ == nullptr || script->empty()) {
    context.close_span(span);
    done(std::move(script));
    return;
  }
  // Post-commit execution — outside the serial mutex, still inside this
  // request's "synthesis.submit" span. Independent submissions overlap
  // here. An execution failure surfaces to the submitter but does not
  // roll back the committed model. A blocking hook settles before it
  // returns, so the execution can stay in this frame; a parked one
  // outlives it and moves to the heap.
  Execution execution{std::move(script.value()), std::move(done), &context,
                      span};
  if (blocking) {
    executor_(execution.script, context, /*blocking=*/true,
              [&execution](Status executed) {
                execution.settle(std::move(executed));
              });
    return;
  }
  auto parked = std::make_shared<Execution>(std::move(execution));
  executor_(parked->script, context, /*blocking=*/false,
            [parked](Status executed) { parked->settle(std::move(executed)); });
}

Result<controller::ControlScript> SynthesisEngine::commit_model(
    model::Model new_model, obs::RequestContext& context) {
  obs::ContextScope ambient(context);
  obs::ScopedSpan span(context, "synthesis.submit", new_model.name());
  return commit_core(std::move(new_model), context);
}

Result<controller::ControlScript> SynthesisEngine::commit_core(
    model::Model new_model, obs::RequestContext& context) {
  metrics_->models.add();
  // Checks that do not touch shared synthesis state run before the serial
  // section so rejected submissions never contend with live ones.
  if (Status deadline = context.check_deadline("synthesis"); !deadline.ok()) {
    metrics_->rejected.add();
    return deadline;
  }
  if (&new_model.metamodel() != dsml_.get()) {
    metrics_->rejected.add();
    return InvalidArgument("submitted model conforms to metamodel '" +
                           new_model.metamodel().name() +
                           "', engine expects '" + dsml_->name() + "'");
  }
  Status valid = new_model.validate();
  if (!valid.ok()) {
    metrics_->rejected.add();
    return valid;
  }
  // Declared before the lock, so a refused model and the snapshot a
  // commit replaces are both freed after the serial section.
  auto next = std::make_shared<const model::Model>(std::move(new_model));
  Result<controller::ControlScript> script = InvalidArgument("unreachable");
  {
    std::lock_guard lock(mutex_);
    // Model comparator.
    model::ChangeList changes = model::diff(*runtime_model_, *next);
    log_debug("synthesis") << name() << ": " << changes.size()
                           << " change(s) between runtime and new model";
    // Change interpreter. Interpreter state mutates as transitions fire;
    // on interpretation failure the engine keeps the old runtime model
    // but interpreter states may have advanced — domains treat
    // interpretation errors as fatal configuration bugs, matching the
    // paper's assumption that LTSs fully cover their DSML.
    script = interpreter_.interpret(changes, *next);
    if (!script.ok()) {
      metrics_->rejected.add();
      return script;
    }
    // Dispatcher: ship the script down, then commit the runtime model.
    if (dispatch_ != nullptr && !script->empty()) {
      Status dispatched = dispatch_(*script, context);
      if (!dispatched.ok()) {
        metrics_->rejected.add();
        return dispatched;
      }
    }
    metrics_->scripts.add();
    metrics_->commands.add(script->commands.size());
    publish(next);
  }
  return script;
}

void SynthesisEngine::publish(model::ModelPtr& next) {
  std::swap(runtime_model_, next);
  if (listener_ != nullptr) listener_(runtime_model_);
}

void SynthesisEngine::handle_controller_event(const std::string& topic,
                                              const model::Value& payload) {
  metrics_->controller_events.add();
  std::lock_guard lock(event_mutex_);
  event_log_.push_back(topic + ": " + payload.to_text());
}

model::ModelPtr SynthesisEngine::runtime_snapshot() const {
  std::lock_guard lock(mutex_);
  return runtime_model_;
}

std::string SynthesisEngine::runtime_model_text() const {
  return model::serialize_model(*runtime_snapshot());
}

SynthesisEngine::ExportedState SynthesisEngine::export_state() const {
  ExportedState out;
  model::ModelPtr snapshot;
  {
    std::lock_guard lock(mutex_);
    snapshot = runtime_model_;
    out.lts_states = interpreter_.states();
  }
  out.runtime_model_text = model::serialize_model(*snapshot);
  return out;
}

Status SynthesisEngine::restore_state(
    model::Model runtime_model,
    std::map<std::string, std::string, std::less<>> lts_states) {
  if (&runtime_model.metamodel() != dsml_.get()) {
    return InvalidArgument("restored model conforms to metamodel '" +
                           runtime_model.metamodel().name() +
                           "', engine expects '" + dsml_->name() + "'");
  }
  Status valid = runtime_model.validate();
  if (!valid.ok()) return valid;
  // Declared before the lock: it comes back holding the replaced snapshot.
  auto next = std::make_shared<const model::Model>(std::move(runtime_model));
  std::lock_guard lock(mutex_);
  interpreter_.restore_states(std::move(lts_states));
  publish(next);
  return Status::Ok();
}

std::vector<std::string> SynthesisEngine::event_log() const {
  std::lock_guard lock(event_mutex_);
  return event_log_;
}

}  // namespace mdsm::synthesis
