// The Synthesis layer (paper §V-A): "The main components in the synthesis
// engine are: (1) model comparator — compares the new user-defined model
// and the current runtime model to produce a change list; (2) change
// interpreter — processes the change list to generate control scripts ...
// and handles events from the Controller layer; and (3) dispatcher —
// dispatches a new runtime model to the UI and updates the currently
// executing model."
//
// Concurrency: synthesis itself is inherently serial — each submission
// diffs against (and then replaces) the single shared runtime model — so
// the diff→interpret→dispatch→commit section runs under an internal
// mutex. Everything after the commit (the executor hook, i.e. actual
// controller/broker execution) runs *outside* that mutex, which is what
// lets independent requests overlap: the serial window is only the model
// swap, not the work. One resumable submit drives every request: the
// sync submit_model settles it inline, and a parking caller lets the
// executor hook park. The committed model is published once per commit
// as an immutable snapshot (model::ModelPtr); readers share it, and it is
// serialized and freed outside the mutex.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "controller/script.hpp"
#include "model/diff.hpp"
#include "model/model.hpp"
#include "obs/request_context.hpp"
#include "runtime/component.hpp"
#include "synthesis/change_interpreter.hpp"

namespace mdsm::synthesis {

class SynthesisEngine final : public runtime::Component {
 public:
  /// `dispatch` delivers a generated control script to the layer below
  /// *before* the runtime model commits — a dispatch failure keeps the
  /// old model in force (all-or-nothing semantics). It runs under the
  /// engine's serial mutex, so keep it cheap in concurrent deployments
  /// (the platform wires a deadline check here and does the real work in
  /// the executor hook; split deployments serialize over the network).
  /// The request context rides along so the layer below continues the
  /// request's span tree.
  using Dispatch = std::function<Status(const controller::ControlScript&,
                                        obs::RequestContext&)>;
  /// Listener invoked with the newly published runtime-model snapshot
  /// ("dispatches a new runtime model to the UI"). It runs under the
  /// serial mutex, so listeners see snapshots in commit order; keep it to
  /// a pointer store.
  using ModelListener = std::function<void(const model::ModelPtr&)>;

  SynthesisEngine(std::string name, model::MetamodelPtr dsml, Lts lts,
                  const policy::ContextStore& context, Dispatch dispatch);

  void set_model_listener(ModelListener listener) {
    listener_ = std::move(listener);
  }

  /// Completion of a submission: the committed script, or why the
  /// request failed.
  using SubmitCallback =
      std::function<void(Result<controller::ControlScript>)>;
  /// Post-commit execution hook in continuation-passing form: run the
  /// committed `script` and settle `done` exactly once. In blocking mode
  /// it settles before returning; otherwise it may park and settle later
  /// on whichever thread finishes the script. `script` stays valid until
  /// `done` fires. The platform wires ControllerLayer::execute_script
  /// (blocking) and execute_script_async here.
  using ExecuteHook =
      std::function<void(const controller::ControlScript& script,
                         obs::RequestContext& context, bool blocking,
                         std::function<void(Status)> done)>;
  /// Install the executor hook: it runs *after* the runtime model commits
  /// and after the serial mutex is released, still inside the request's
  /// "synthesis.submit" span. This is the parallel phase of the request
  /// pipeline. Its failure surfaces to the submitter but does not roll
  /// the model back (the model swap already happened; execution is
  /// best-effort forward progress, with errors also contained
  /// per-command below).
  void set_executor(ExecuteHook executor) { executor_ = std::move(executor); }

  /// Full synthesis cycle, the one resumable submit: validate the new
  /// model, compare against the current runtime model, interpret the
  /// changes, dispatch the script, commit the new model as the running
  /// one, then execute via the executor hook in `blocking` mode. `done`
  /// fires exactly once, with the script or the failure: before return
  /// when blocking, otherwise on the thread that settles the script. On
  /// any pre-commit failure the previous runtime model stays in force.
  /// Opens the request's "synthesis.submit" span, which closes when the
  /// executor hook settles. Safe to call concurrently (submissions
  /// serialize on the internal mutex up to the commit; execution
  /// overlaps).
  void submit(model::Model new_model, obs::RequestContext& context,
              bool blocking, SubmitCallback done);
  /// The sync entry: submit() settled inline.
  Result<controller::ControlScript> submit_model(model::Model new_model,
                                                 obs::RequestContext& context);
  Result<controller::ControlScript> submit_model(model::Model new_model) {
    return submit_model(std::move(new_model), obs::RequestContext::noop());
  }

  /// The commit phase alone: validate, diff, interpret, dispatch and
  /// commit under the serial mutex, without the executor hook. The
  /// per-layer benchmark times commit and execution apart through it.
  /// Opens its own "synthesis.submit" span, closed on return.
  Result<controller::ControlScript> commit_model(model::Model new_model,
                                                 obs::RequestContext& context);

  /// Platform-wide metrics sink (optional; wired by the assembler).
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_.wire(metrics); }
  /// The registry this engine records into: "synthesis.models"
  /// (submitted), "synthesis.rejected" (refused before commit),
  /// "synthesis.scripts" and "synthesis.commands" (committed), and
  /// "synthesis.controller_events".
  [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept {
    return metrics_.registry();
  }

  /// Events from the Controller layer (exceptional conditions); recorded
  /// and exposed so domain logic (or tests) can react — e.g. resubmitting
  /// a degraded model. Safe to call concurrently (published from request
  /// threads mid-execution).
  void handle_controller_event(const std::string& topic,
                               const model::Value& payload);

  /// Reference into the current snapshot; it stays valid only until the
  /// next commit replaces that snapshot. Concurrent readers hold
  /// runtime_snapshot() instead.
  [[nodiscard]] const model::Model& runtime_model() const {
    return *runtime_snapshot();
  }
  /// The committed runtime model: an immutable snapshot that no later
  /// commit changes.
  [[nodiscard]] model::ModelPtr runtime_snapshot() const;
  /// Serialized current snapshot (serialized outside the engine's mutex).
  [[nodiscard]] std::string runtime_model_text() const;
  [[nodiscard]] const ChangeInterpreter& interpreter() const noexcept {
    return interpreter_;
  }
  [[nodiscard]] std::vector<std::string> event_log() const;

  /// Atomic export of the synthesis-layer session state: the runtime
  /// snapshot and every tracked LTS state, captured under ONE hold of the
  /// serial mutex so the pair is mutually consistent even while
  /// submissions are racing, then serialized after it is released. This
  /// is the checkpoint payload.
  struct ExportedState {
    std::string runtime_model_text;
    std::map<std::string, std::string, std::less<>> lts_states;
  };
  [[nodiscard]] ExportedState export_state() const;

  /// Inverse of export_state(): publish `runtime_model` as the committed
  /// snapshot and replace the interpreter's LTS states wholesale, firing
  /// the model listener like a commit so downstream mirrors (broker
  /// runtime model) converge. The model must conform to this engine's
  /// DSML.
  Status restore_state(
      model::Model runtime_model,
      std::map<std::string, std::string, std::less<>> lts_states);

 private:
  /// Shared pre-check + serial diff→interpret→dispatch→commit section of
  /// submit()/commit_model() (everything except the executor hook).
  Result<controller::ControlScript> commit_core(model::Model new_model,
                                                obs::RequestContext& context);
  /// Swap `next` in as the committed snapshot and fire the listener;
  /// mutex_ held. `next` comes back holding the replaced snapshot, which
  /// the caller drops after unlocking.
  void publish(model::ModelPtr& next);

  model::MetamodelPtr dsml_;
  Lts lts_;
  ChangeInterpreter interpreter_;
  struct Counters {
    obs::MetricsRegistry& registry;
    obs::Counter& models = registry.counter("synthesis.models");
    obs::Counter& rejected = registry.counter("synthesis.rejected");
    obs::Counter& scripts = registry.counter("synthesis.scripts");
    obs::Counter& commands = registry.counter("synthesis.commands");
    obs::Counter& controller_events =
        registry.counter("synthesis.controller_events");
  };
  obs::MetricHandles<Counters> metrics_;
  Dispatch dispatch_;
  ExecuteHook executor_;
  ModelListener listener_;
  /// Serializes diff → interpret → dispatch → commit → listener. Also
  /// guards the runtime_model_ pointer and the interpreter's LTS state.
  mutable std::mutex mutex_;
  model::ModelPtr runtime_model_;  ///< "an empty model if the system has
                                   ///< just been started"
  mutable std::mutex event_mutex_;  ///< guards event_log_ only
  std::vector<std::string> event_log_;
};

}  // namespace mdsm::synthesis
