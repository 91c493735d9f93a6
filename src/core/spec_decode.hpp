// Decoding middleware-model objects (instances of the middleware
// metamodel) into the live artifacts of the layer libraries. These are
// the "code templates ... parameterized with metadata from the
// middleware model" that the component factory applies.
#pragma once

#include "broker/action.hpp"
#include "broker/autonomic_manager.hpp"
#include "common/status.hpp"
#include "controller/controller_layer.hpp"
#include "controller/procedure.hpp"
#include "model/model.hpp"
#include "policy/expression.hpp"
#include "synthesis/lts.hpp"

namespace mdsm::core {

/// ArgSpec {key,value,vtype} → typed Value.
Result<model::Value> decode_value(const model::ModelObject& arg_spec);

/// All ArgSpec children of `owner` via its "args" containment.
Result<broker::Args> decode_args(const model::Model& middleware_model,
                                 const model::ModelObject& owner);

/// Parse the expression held in `attribute` ("" → empty expression).
Result<policy::Expression> decode_expression(const model::ModelObject& spec,
                                             std::string_view attribute);

/// StepSpec → broker ActionStep (validates the broker-legal op subset).
Result<broker::ActionStep> decode_broker_step(
    const model::Model& middleware_model, const model::ModelObject& step_spec);

/// StepSpec → controller Instruction (validates the controller subset).
Result<controller::Instruction> decode_instruction(
    const model::Model& middleware_model, const model::ModelObject& step_spec);

/// ActionSpec (+steps) → broker Action.
Result<broker::Action> decode_broker_action(
    const model::Model& middleware_model,
    const model::ModelObject& action_spec);

/// ActionSpec (+steps) → controller ControllerAction.
Result<controller::ControllerAction> decode_controller_action(
    const model::Model& middleware_model,
    const model::ModelObject& action_spec);

/// DscSpec → controller Dsc.
controller::Dsc decode_dsc(const model::ModelObject& dsc_spec);

/// ProcedureSpec (+units) → controller Procedure.
Result<controller::Procedure> decode_procedure(
    const model::Model& middleware_model,
    const model::ModelObject& procedure_spec);

/// SymptomSpec → broker Symptom.
Result<broker::Symptom> decode_symptom(const model::ModelObject& symptom_spec);

/// ChangePlanSpec (+steps) → broker ChangePlan.
Result<broker::ChangePlan> decode_change_plan(
    const model::Model& middleware_model, const model::ModelObject& plan_spec);

/// SynthesisLayerSpec (+transitions) → Lts.
Result<synthesis::Lts> decode_lts(const model::Model& middleware_model,
                                  const model::ModelObject& synthesis_spec);

}  // namespace mdsm::core
