// The Controller layer (paper §VI, Fig. 8): signals received through the
// facade are queued, parsed into commands, classified, and executed via
// one of two coexisting mechanisms:
//
//   Case 1 — selection of predefined actions (Action Handlers), guided
//            by guards and priorities;
//   Case 2 — dynamic generation of intent models (Intent Model Handler),
//            guided by DSCs, the procedure repository, and policies.
//
// "the choice of which approach to use for each received command is
// determined by a command classification step that precedes actual
// command execution. Command classification takes into account domain
// policies and context information."
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "broker/broker_api.hpp"
#include "controller/catalog.hpp"
#include "controller/execution_engine.hpp"
#include "controller/intent_model.hpp"
#include "controller/script.hpp"
#include "obs/request_context.hpp"
#include "policy/policy_engine.hpp"
#include "runtime/component.hpp"
#include "runtime/event_bus.hpp"

namespace mdsm::controller {

/// A predefined (Case 1) action: guarded, prioritized instruction list.
struct ControllerAction {
  std::string name;
  policy::Expression guard;
  int priority = 0;
  std::vector<Instruction> body;
};

enum class SignalKind { kCall, kEvent };

/// "Both calls and events are treated in the same way and thus are
/// indistinctly called signals."
struct Signal {
  SignalKind kind{};
  std::string name;   ///< command name (calls) or topic (events)
  broker::Args args;
};

class ControllerLayer final : public runtime::Component {
 public:
  ControllerLayer(std::string name, broker::BrokerApi& broker,
                  runtime::EventBus& bus, policy::ContextStore& context,
                  GeneratorConfig generator_config = {});

  // ---- configuration (domain DSK + middleware model loading)

  /// The DSCs and procedures, one versioned snapshot. Edit it directly to
  /// publish a whole vocabulary change as one version.
  [[nodiscard]] CatalogStore& catalog() noexcept { return catalog_; }
  [[nodiscard]] DscRegistry& dscs() noexcept { return dscs_; }

  /// Add a procedure in one catalog edit that also checks that its
  /// classifier and dependency DSCs are registered.
  Status add_procedure(Procedure procedure);
  [[nodiscard]] ProcedureRepository& repository() noexcept {
    return repository_;
  }

  Status register_action(ControllerAction action);
  /// Bind a command (or event topic) to candidate Case-1 actions.
  Status bind_action(const std::string& command,
                     std::vector<std::string> action_names);
  /// Map a command to the root DSC used for Case-2 IM generation. When a
  /// command has no mapping but its name is itself a registered DSC, the
  /// name is used directly.
  Status map_command(const std::string& command, const std::string& dsc);

  /// Policies whose decision ("case1"/"case2") classifies commands.
  [[nodiscard]] policy::PolicySet& classification_policies() noexcept {
    return classification_policies_;
  }
  /// Policies whose decision ("min-cost"/"max-quality"/"first-valid")
  /// picks the IM selection strategy.
  [[nodiscard]] policy::PolicySet& selection_policies() noexcept {
    return selection_policies_;
  }

  [[nodiscard]] ExecutionEngine& engine() noexcept { return engine_; }
  [[nodiscard]] IntentModelGenerator& generator() noexcept {
    return generator_;
  }
  [[nodiscard]] policy::ContextStore& context() noexcept { return *context_; }

  /// Subscribe this controller to a bus topic; matching events enter the
  /// signal queue as event signals (processed by process_pending()).
  void attach_event_topic(const std::string& topic);

  /// Platform-wide metrics sink; also forwarded to the execution engine
  /// (optional; wired by the assembler — until then the layer records
  /// into a registry of its own).
  void set_metrics(obs::MetricsRegistry* metrics) {
    metrics_.wire(metrics);
    engine_.set_metrics(&metrics_.registry());
  }
  /// The registry this layer records into: "controller.signals" (every
  /// signal, call or event), "controller.commands" (= case1 + case2),
  /// "controller.case1", "controller.case2", "controller.events" (event
  /// signals drained) and "controller.errors".
  [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept {
    return metrics_.registry();
  }

  // ---- operation

  /// Enqueue every command of a script as a call signal.
  Status submit_script(const ControlScript& script,
                       obs::RequestContext& context);
  Status submit_script(const ControlScript& script) {
    return submit_script(script, obs::RequestContext::noop());
  }
  Status submit_command(Command command);

  /// Execute every command of a script inline on the calling thread —
  /// the parallel phase of the request pipeline. Each command runs under
  /// its own "controller.signal" span with the same error containment as
  /// process_pending() (errors are counted and published, not returned),
  /// then any event signals raised by the executions are drained.
  /// Safe to call concurrently from many request threads. Runs the same
  /// script loop as execute_script_async(), with every broker call
  /// going through the sync path, so it settles before returning.
  Status execute_script(const ControlScript& script,
                        obs::RequestContext& context);
  Status execute_script(const ControlScript& script) {
    return execute_script(script, obs::RequestContext::noop());
  }

  /// Drain the signal queue; returns the number of signals processed.
  /// Errors are counted and published as "controller.error" events, not
  /// thrown — one bad command must not wedge the queue. Each drained
  /// signal runs under its own "controller.signal" span of `context`.
  std::size_t process_pending(obs::RequestContext& context);
  std::size_t process_pending() {
    return process_pending(obs::RequestContext::noop());
  }

  /// Synchronous single-command path (classification + execution).
  Result<model::Value> execute_command(const Command& command,
                                       obs::RequestContext& context);
  Result<model::Value> execute_command(const Command& command) {
    return execute_command(command, obs::RequestContext::noop());
  }

  using CommandCallback = ExecutionEngine::ExecuteCallback;
  using ScriptCallback = std::function<void(Status)>;

  /// Staged entry point of execute_script(): commands run in order as a
  /// resumable chain — a command whose broker call parks suspends the
  /// script, and the remaining commands resume on the settling thread.
  /// Error containment is identical to the sync path (counted and
  /// published, never returned); `done` fires exactly once after the
  /// final command and the pending-event drain. The script is copied
  /// into the run state; `context` must outlive the run.
  void execute_script_async(ControlScript script,
                            obs::RequestContext& context, ScriptCallback done);

  /// Staged entry point of execute_command(): classification is
  /// synchronous, execution may park. `command` is only read before the
  /// first suspension point (the engine copies its args); `context` must
  /// outlive the run.
  void execute_command_async(const Command& command,
                             obs::RequestContext& context,
                             CommandCallback done);

  [[nodiscard]] std::size_t queued() const;

 private:
  enum class Case { kCase1, kCase2 };

  Result<Case> classify(const Command& command) const;
  [[nodiscard]] SelectionStrategy selection_strategy() const;
  /// Classify and execute one command. A blocking run executes through
  /// the engine's sync entry points and settles inline; a staged run uses
  /// the *_async ones and may park in the broker.
  void dispatch(const Command& command, obs::RequestContext& context,
                bool blocking, CommandCallback done);
  void execute_case1(const Command& command, obs::RequestContext& context,
                     bool blocking, CommandCallback done);
  void execute_case2(const Command& command, obs::RequestContext& context,
                     bool blocking, CommandCallback done);
  /// Count and publish a contained signal failure ("controller.error").
  void report_error(const std::string& signal, const Status& status);
  /// Queue one signal and count it.
  void enqueue(Signal signal);

  /// Shared state of one script run.
  struct ScriptRun;
  /// Open the "controller.script" span, gate on the deadline, then drive
  /// `run` (whose script and mode the entry point has set).
  void start_script(std::shared_ptr<ScriptRun> run,
                    obs::RequestContext& context, ScriptCallback done);
  /// Drive script commands from the run's cursor until done or a command
  /// parks.
  void drive_script(std::shared_ptr<ScriptRun> run);

  broker::BrokerApi* broker_;
  runtime::EventBus* bus_;
  policy::ContextStore* context_;
  struct Counters {
    obs::MetricsRegistry& registry;
    obs::Counter& signals = registry.counter("controller.signals");
    obs::Counter& commands = registry.counter("controller.commands");
    obs::Counter& case1 = registry.counter("controller.case1");
    obs::Counter& case2 = registry.counter("controller.case2");
    obs::Counter& events = registry.counter("controller.events");
    obs::Counter& errors = registry.counter("controller.errors");
  };
  obs::MetricHandles<Counters> metrics_;
  CatalogStore catalog_;
  DscRegistry dscs_{catalog_};
  ProcedureRepository repository_{catalog_};
  IntentModelGenerator generator_;
  ExecutionEngine engine_;
  policy::PolicySet classification_policies_;
  policy::PolicySet selection_policies_;
  /// Guards the configuration maps below. Configuration happens at
  /// assembly/model-load time but may race steady-state classification;
  /// lookups take the shared side. ControllerAction nodes are never
  /// removed, so pointers into actions_ stay valid outside the lock.
  mutable std::shared_mutex config_mutex_;
  std::map<std::string, ControllerAction, std::less<>> actions_;
  std::map<std::string, std::vector<std::string>, std::less<>> bindings_;
  std::map<std::string, std::string, std::less<>> command_dsc_;
  mutable std::mutex queue_mutex_;  ///< guards queue_ only
  std::deque<Signal> queue_;
  std::vector<std::uint64_t> subscriptions_;
};

}  // namespace mdsm::controller
