#include "core/spec_decode.hpp"

#include <charconv>

namespace mdsm::core {

using model::Value;

Result<Value> decode_value(const model::ModelObject& arg_spec) {
  const std::string text = arg_spec.get_string("value");
  const std::string vtype = arg_spec.get_string("vtype", "string");
  if (vtype == "string") return Value(text);
  if (vtype == "bool") {
    if (text == "true") return Value(true);
    if (text == "false") return Value(false);
    return ConformanceError("arg '" + arg_spec.id() + "': bad bool '" + text +
                            "'");
  }
  if (vtype == "int") {
    std::int64_t value = 0;
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
      return ConformanceError("arg '" + arg_spec.id() + "': bad int '" + text +
                              "'");
    }
    return Value(value);
  }
  if (vtype == "real") {
    try {
      return Value(std::stod(text));
    } catch (const std::exception&) {
      return ConformanceError("arg '" + arg_spec.id() + "': bad real '" +
                              text + "'");
    }
  }
  return ConformanceError("arg '" + arg_spec.id() + "': unknown vtype '" +
                          vtype + "'");
}

Result<broker::Args> decode_args(const model::Model& middleware_model,
                                 const model::ModelObject& owner) {
  broker::Args out;
  for (const model::ModelObject* arg_spec :
       middleware_model.children(owner.id(), "args")) {
    Result<Value> value = decode_value(*arg_spec);
    if (!value.ok()) return value.status();
    out[arg_spec->get_string("key")] = std::move(value.value());
  }
  return out;
}

Result<policy::Expression> decode_expression(const model::ModelObject& spec,
                                             std::string_view attribute) {
  const std::string text = spec.get_string(attribute);
  Result<policy::Expression> parsed = policy::Expression::parse(text);
  if (!parsed.ok()) {
    return ParseError("object '" + spec.id() + "' attribute '" +
                      std::string(attribute) +
                      "': " + parsed.status().message());
  }
  return parsed;
}

namespace {

/// Fill the fields every step shares; returns the op string.
template <typename StepLike>
Result<std::string> decode_common(const model::Model& middleware_model,
                                  const model::ModelObject& step_spec,
                                  StepLike& step) {
  step.a = step_spec.get_string("a");
  step.b = step_spec.get_string("b");
  Result<broker::Args> args = decode_args(middleware_model, step_spec);
  if (!args.ok()) return args.status();
  step.args = std::move(args.value());
  Result<policy::Expression> guard =
      decode_expression(step_spec, "condition");
  if (!guard.ok()) return guard.status();
  step.guard = std::move(guard.value());
  return step_spec.get_string("op");
}

}  // namespace

Result<broker::ActionStep> decode_broker_step(
    const model::Model& middleware_model,
    const model::ModelObject& step_spec) {
  broker::ActionStep step;
  Result<std::string> op = decode_common(middleware_model, step_spec, step);
  if (!op.ok()) return op.status();
  if (*op == "invoke") {
    step.op = broker::StepOp::kInvoke;
  } else if (*op == "set-state") {
    step.op = broker::StepOp::kSetState;
  } else if (*op == "set-context") {
    step.op = broker::StepOp::kSetContext;
  } else if (*op == "emit") {
    step.op = broker::StepOp::kEmit;
  } else if (*op == "guard") {
    step.op = broker::StepOp::kGuard;
  } else if (*op == "result") {
    step.op = broker::StepOp::kResult;
  } else {
    return ConformanceError("step '" + step_spec.id() + "': op '" + *op +
                            "' is not legal in the Broker layer");
  }
  return step;
}

Result<controller::Instruction> decode_instruction(
    const model::Model& middleware_model,
    const model::ModelObject& step_spec) {
  controller::Instruction instruction;
  Result<std::string> op =
      decode_common(middleware_model, step_spec, instruction);
  if (!op.ok()) return op.status();
  if (*op == "broker-call") {
    instruction.op = controller::OpCode::kBrokerCall;
  } else if (*op == "call-dep") {
    instruction.op = controller::OpCode::kCallDep;
  } else if (*op == "set-mem") {
    instruction.op = controller::OpCode::kSetMem;
  } else if (*op == "erase-mem") {
    instruction.op = controller::OpCode::kEraseMem;
  } else if (*op == "emit") {
    instruction.op = controller::OpCode::kEmit;
  } else if (*op == "send") {
    instruction.op = controller::OpCode::kSend;
  } else if (*op == "guard") {
    instruction.op = controller::OpCode::kGuard;
  } else if (*op == "set-context") {
    instruction.op = controller::OpCode::kSetContext;
  } else if (*op == "result") {
    instruction.op = controller::OpCode::kResult;
  } else if (*op == "noop") {
    instruction.op = controller::OpCode::kNoop;
  } else {
    return ConformanceError("step '" + step_spec.id() + "': op '" + *op +
                            "' is not legal in the Controller layer");
  }
  return instruction;
}

Result<broker::Action> decode_broker_action(
    const model::Model& middleware_model,
    const model::ModelObject& action_spec) {
  broker::Action action;
  action.name = action_spec.get_string("name");
  action.priority = static_cast<int>(action_spec.get_int("priority"));
  Result<policy::Expression> guard = decode_expression(action_spec, "guard");
  if (!guard.ok()) return guard.status();
  action.guard = std::move(guard.value());
  for (const model::ModelObject* step_spec :
       middleware_model.children(action_spec.id(), "steps")) {
    Result<broker::ActionStep> step =
        decode_broker_step(middleware_model, *step_spec);
    if (!step.ok()) return step.status();
    action.steps.push_back(std::move(step.value()));
  }
  return action;
}

Result<controller::ControllerAction> decode_controller_action(
    const model::Model& middleware_model,
    const model::ModelObject& action_spec) {
  controller::ControllerAction action;
  action.name = action_spec.get_string("name");
  action.priority = static_cast<int>(action_spec.get_int("priority"));
  Result<policy::Expression> guard = decode_expression(action_spec, "guard");
  if (!guard.ok()) return guard.status();
  action.guard = std::move(guard.value());
  for (const model::ModelObject* step_spec :
       middleware_model.children(action_spec.id(), "steps")) {
    Result<controller::Instruction> instruction =
        decode_instruction(middleware_model, *step_spec);
    if (!instruction.ok()) return instruction.status();
    action.body.push_back(std::move(instruction.value()));
  }
  return action;
}

controller::Dsc decode_dsc(const model::ModelObject& dsc_spec) {
  controller::Dsc dsc;
  dsc.name = dsc_spec.get_string("name");
  dsc.kind = dsc_spec.get_string("kind", "operation") == "data"
                 ? controller::DscKind::kData
                 : controller::DscKind::kOperation;
  dsc.category = dsc_spec.get_string("category");
  dsc.description = dsc_spec.get_string("description");
  return dsc;
}

Result<controller::Procedure> decode_procedure(
    const model::Model& middleware_model,
    const model::ModelObject& procedure_spec) {
  controller::Procedure procedure;
  procedure.name = procedure_spec.get_string("name");
  procedure.classifier = procedure_spec.get_string("classifier");
  const Value& dependencies = procedure_spec.get("dependencies");
  if (dependencies.is_list()) {
    for (const Value& dependency : dependencies.as_list()) {
      procedure.dependencies.push_back(dependency.as_string());
    }
  }
  Result<policy::Expression> guard =
      decode_expression(procedure_spec, "guard");
  if (!guard.ok()) return guard.status();
  procedure.guard = std::move(guard.value());
  procedure.cost = procedure_spec.get_real("cost", 1.0);
  procedure.quality = procedure_spec.get_real("quality", 1.0);
  for (const model::ModelObject* eu_spec :
       middleware_model.children(procedure_spec.id(), "units")) {
    controller::ExecutionUnit unit;
    for (const model::ModelObject* step_spec :
         middleware_model.children(eu_spec->id(), "steps")) {
      Result<controller::Instruction> instruction =
          decode_instruction(middleware_model, *step_spec);
      if (!instruction.ok()) return instruction.status();
      unit.push_back(std::move(instruction.value()));
    }
    procedure.units.push_back(std::move(unit));
  }
  return procedure;
}

Result<broker::Symptom> decode_symptom(
    const model::ModelObject& symptom_spec) {
  broker::Symptom symptom;
  symptom.name = symptom_spec.get_string("name");
  symptom.trigger_topic = symptom_spec.get_string("topic");
  symptom.change_request = symptom_spec.get_string("request");
  Result<policy::Expression> condition =
      decode_expression(symptom_spec, "condition");
  if (!condition.ok()) return condition.status();
  symptom.condition = std::move(condition.value());
  return symptom;
}

Result<broker::ChangePlan> decode_change_plan(
    const model::Model& middleware_model,
    const model::ModelObject& plan_spec) {
  broker::ChangePlan plan;
  plan.name = plan_spec.get_string("name");
  plan.handles_request = plan_spec.get_string("request");
  plan.priority = static_cast<int>(plan_spec.get_int("priority"));
  Result<policy::Expression> guard = decode_expression(plan_spec, "guard");
  if (!guard.ok()) return guard.status();
  plan.guard = std::move(guard.value());
  for (const model::ModelObject* step_spec :
       middleware_model.children(plan_spec.id(), "steps")) {
    Result<broker::ActionStep> step =
        decode_broker_step(middleware_model, *step_spec);
    if (!step.ok()) return step.status();
    plan.steps.push_back(std::move(step.value()));
  }
  return plan;
}

Result<synthesis::Lts> decode_lts(const model::Model& middleware_model,
                                  const model::ModelObject& synthesis_spec) {
  synthesis::Lts lts(synthesis_spec.get_string("initial_state", "initial"));
  for (const model::ModelObject* transition_spec :
       middleware_model.children(synthesis_spec.id(), "transitions")) {
    synthesis::Transition transition;
    transition.from = transition_spec->get_string("from");
    transition.to = transition_spec->get_string("to");
    const std::string kind = transition_spec->get_string("kind");
    if (kind == "add-object") {
      transition.trigger.kind = model::ChangeKind::kAddObject;
    } else if (kind == "remove-object") {
      transition.trigger.kind = model::ChangeKind::kRemoveObject;
    } else if (kind == "set-attribute") {
      transition.trigger.kind = model::ChangeKind::kSetAttribute;
    } else if (kind == "add-reference") {
      transition.trigger.kind = model::ChangeKind::kAddReference;
    } else {
      transition.trigger.kind = model::ChangeKind::kRemoveReference;
    }
    transition.trigger.class_name = transition_spec->get_string("class");
    transition.trigger.feature = transition_spec->get_string("feature");
    const std::string vtype = transition_spec->get_string("vtype", "none");
    if (vtype != "none") {
      // Reuse the ArgSpec value decoding by building a synthetic view.
      const std::string text = transition_spec->get_string("value");
      if (vtype == "string") {
        transition.trigger.new_value = Value(text);
      } else if (vtype == "bool") {
        transition.trigger.new_value = Value(text == "true");
      } else if (vtype == "int") {
        transition.trigger.new_value =
            Value(static_cast<std::int64_t>(std::stoll(text)));
      } else if (vtype == "real") {
        transition.trigger.new_value = Value(std::stod(text));
      }
    }
    Result<policy::Expression> guard =
        decode_expression(*transition_spec, "guard");
    if (!guard.ok()) return guard.status();
    transition.guard = std::move(guard.value());
    for (const model::ModelObject* command_spec :
         middleware_model.children(transition_spec->id(), "commands")) {
      synthesis::CommandTemplate command_template;
      command_template.name = command_spec->get_string("name");
      Result<broker::Args> args = decode_args(middleware_model, *command_spec);
      if (!args.ok()) return args.status();
      command_template.args = std::move(args.value());
      transition.commands.push_back(std::move(command_template));
    }
    lts.add_transition(std::move(transition));
  }
  return lts;
}

}  // namespace mdsm::core
