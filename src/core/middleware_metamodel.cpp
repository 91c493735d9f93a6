#include "core/middleware_metamodel.hpp"

namespace mdsm::core {

namespace {

using model::AttrType;
using model::MetaAttribute;
using model::MetaReference;
using model::Metamodel;
using model::Value;

Metamodel build() {
  Metamodel mm("mdsm");

  // ----- shared step/argument vocabulary ------------------------------
  auto& arg = mm.add_class("ArgSpec");
  arg.add_attribute({.name = "key", .type = AttrType::kString, .required = true});
  arg.add_attribute(
      {.name = "value", .type = AttrType::kString, .required = true});
  arg.add_attribute({.name = "vtype",
                     .type = AttrType::kEnum,
                     .enum_literals = {"string", "int", "real", "bool"},
                     .default_value = Value("string")});

  auto& step = mm.add_class("StepSpec");
  step.add_attribute(
      {.name = "op",
       .type = AttrType::kEnum,
       .required = true,
       // superset of broker steps and controller instructions; the
       // assembler validates the subset legal for each layer
       .enum_literals = {"invoke", "set-state", "set-context", "emit",
                         "guard", "result", "broker-call", "call-dep",
                         "set-mem", "erase-mem", "send", "noop"}});
  step.add_attribute({.name = "a", .type = AttrType::kString});
  step.add_attribute({.name = "b", .type = AttrType::kString});
  step.add_attribute({.name = "condition", .type = AttrType::kString});
  step.add_reference({.name = "args",
                      .target_class = "ArgSpec",
                      .containment = true,
                      .many = true});

  auto& action = mm.add_class("ActionSpec");
  action.add_attribute(
      {.name = "name", .type = AttrType::kString, .required = true});
  action.add_attribute({.name = "guard", .type = AttrType::kString});
  action.add_attribute({.name = "priority",
                        .type = AttrType::kInt,
                        .default_value = Value(0)});
  action.add_reference({.name = "steps",
                        .target_class = "StepSpec",
                        .containment = true,
                        .many = true});

  auto& policy = mm.add_class("PolicySpec");
  policy.add_attribute(
      {.name = "name", .type = AttrType::kString, .required = true});
  policy.add_attribute({.name = "condition", .type = AttrType::kString});
  policy.add_attribute(
      {.name = "decision", .type = AttrType::kString, .required = true});
  policy.add_attribute({.name = "priority",
                        .type = AttrType::kInt,
                        .default_value = Value(0)});
  policy.add_attribute({.name = "role",
                        .type = AttrType::kEnum,
                        .enum_literals = {"broker", "classification",
                                          "selection"},
                        .default_value = Value("broker")});

  // ----- Broker layer (Fig. 6) ----------------------------------------
  auto& handler = mm.add_class("HandlerSpec");
  handler.add_attribute(
      {.name = "signal", .type = AttrType::kString, .required = true});
  handler.add_reference({.name = "actions",
                         .target_class = "ActionSpec",
                         .containment = false,
                         .many = true,
                         .required = true});

  auto& symptom = mm.add_class("SymptomSpec");
  symptom.add_attribute(
      {.name = "name", .type = AttrType::kString, .required = true});
  symptom.add_attribute(
      {.name = "topic", .type = AttrType::kString, .required = true});
  symptom.add_attribute({.name = "condition", .type = AttrType::kString});
  symptom.add_attribute(
      {.name = "request", .type = AttrType::kString, .required = true});

  auto& plan = mm.add_class("ChangePlanSpec");
  plan.add_attribute(
      {.name = "name", .type = AttrType::kString, .required = true});
  plan.add_attribute(
      {.name = "request", .type = AttrType::kString, .required = true});
  plan.add_attribute({.name = "guard", .type = AttrType::kString});
  plan.add_attribute({.name = "priority",
                      .type = AttrType::kInt,
                      .default_value = Value(0)});
  plan.add_reference({.name = "steps",
                      .target_class = "StepSpec",
                      .containment = true,
                      .many = true});

  auto& resource = mm.add_class("ResourceSpec");
  resource.add_attribute(
      {.name = "name", .type = AttrType::kString, .required = true});
  resource.add_attribute({.name = "optional",
                          .type = AttrType::kBool,
                          .default_value = Value(false)});
  // Fault-tolerance policy (decoded into a broker::InvocationPolicy; the
  // defaults reproduce fire-once semantics so existing models are
  // unaffected).
  resource.add_attribute({.name = "max_attempts",
                          .type = AttrType::kInt,
                          .default_value = Value(1)});
  resource.add_attribute({.name = "backoff_us",
                          .type = AttrType::kInt,
                          .default_value = Value(500)});
  resource.add_attribute({.name = "max_backoff_us",
                          .type = AttrType::kInt,
                          .default_value = Value(50'000)});
  resource.add_attribute({.name = "attempt_timeout_us",
                          .type = AttrType::kInt,
                          .default_value = Value(0)});
  resource.add_attribute({.name = "fallback", .type = AttrType::kString});
  resource.add_attribute({.name = "breaker_window",
                          .type = AttrType::kInt,
                          .default_value = Value(0)});
  resource.add_attribute({.name = "breaker_threshold",
                          .type = AttrType::kReal,
                          .default_value = Value(0.5)});
  resource.add_attribute({.name = "breaker_cooldown_us",
                          .type = AttrType::kInt,
                          .default_value = Value(10'000)});

  auto& broker = mm.add_class("BrokerLayerSpec");
  broker.add_attribute({.name = "enabled",
                        .type = AttrType::kBool,
                        .default_value = Value(true)});
  broker.add_reference({.name = "actions",
                        .target_class = "ActionSpec",
                        .containment = true,
                        .many = true});
  broker.add_reference({.name = "handlers",
                        .target_class = "HandlerSpec",
                        .containment = true,
                        .many = true});
  broker.add_reference({.name = "policies",
                        .target_class = "PolicySpec",
                        .containment = true,
                        .many = true});
  broker.add_reference({.name = "symptoms",
                        .target_class = "SymptomSpec",
                        .containment = true,
                        .many = true});
  broker.add_reference({.name = "plans",
                        .target_class = "ChangePlanSpec",
                        .containment = true,
                        .many = true});
  broker.add_reference({.name = "resources",
                        .target_class = "ResourceSpec",
                        .containment = true,
                        .many = true});

  // ----- Controller layer (Figs. 7 and 8) -----------------------------
  auto& dsc = mm.add_class("DscSpec");
  dsc.add_attribute(
      {.name = "name", .type = AttrType::kString, .required = true});
  dsc.add_attribute({.name = "kind",
                     .type = AttrType::kEnum,
                     .enum_literals = {"operation", "data"},
                     .default_value = Value("operation")});
  dsc.add_attribute({.name = "category", .type = AttrType::kString});
  dsc.add_attribute({.name = "description", .type = AttrType::kString});

  auto& eu = mm.add_class("EuSpec");
  eu.add_reference({.name = "steps",
                    .target_class = "StepSpec",
                    .containment = true,
                    .many = true});

  auto& procedure = mm.add_class("ProcedureSpec");
  procedure.add_attribute(
      {.name = "name", .type = AttrType::kString, .required = true});
  procedure.add_attribute(
      {.name = "classifier", .type = AttrType::kString, .required = true});
  procedure.add_attribute({.name = "dependencies",
                           .type = AttrType::kString,
                           .many = true});
  procedure.add_attribute({.name = "guard", .type = AttrType::kString});
  procedure.add_attribute({.name = "cost",
                           .type = AttrType::kReal,
                           .default_value = Value(1.0)});
  procedure.add_attribute({.name = "quality",
                           .type = AttrType::kReal,
                           .default_value = Value(1.0)});
  procedure.add_reference({.name = "units",
                           .target_class = "EuSpec",
                           .containment = true,
                           .many = true});

  auto& binding = mm.add_class("BindingSpec");
  binding.add_attribute(
      {.name = "command", .type = AttrType::kString, .required = true});
  binding.add_reference({.name = "actions",
                         .target_class = "ActionSpec",
                         .containment = false,
                         .many = true,
                         .required = true});

  auto& mapping = mm.add_class("CommandMappingSpec");
  mapping.add_attribute(
      {.name = "command", .type = AttrType::kString, .required = true});
  mapping.add_attribute(
      {.name = "dsc", .type = AttrType::kString, .required = true});

  auto& controller = mm.add_class("ControllerLayerSpec");
  controller.add_attribute({.name = "enabled",
                            .type = AttrType::kBool,
                            .default_value = Value(true)});
  controller.add_attribute({.name = "max_configurations",
                            .type = AttrType::kInt,
                            .default_value = Value(256)});
  controller.add_reference({.name = "dscs",
                            .target_class = "DscSpec",
                            .containment = true,
                            .many = true});
  controller.add_reference({.name = "procedures",
                            .target_class = "ProcedureSpec",
                            .containment = true,
                            .many = true});
  controller.add_reference({.name = "actions",
                            .target_class = "ActionSpec",
                            .containment = true,
                            .many = true});
  controller.add_reference({.name = "bindings",
                            .target_class = "BindingSpec",
                            .containment = true,
                            .many = true});
  controller.add_reference({.name = "mappings",
                            .target_class = "CommandMappingSpec",
                            .containment = true,
                            .many = true});
  controller.add_reference({.name = "policies",
                            .target_class = "PolicySpec",
                            .containment = true,
                            .many = true});

  // ----- Synthesis layer ----------------------------------------------
  auto& command_template = mm.add_class("CommandTemplateSpec");
  command_template.add_attribute(
      {.name = "name", .type = AttrType::kString, .required = true});
  command_template.add_reference({.name = "args",
                                  .target_class = "ArgSpec",
                                  .containment = true,
                                  .many = true});

  auto& transition = mm.add_class("TransitionSpec");
  transition.add_attribute(
      {.name = "from", .type = AttrType::kString, .required = true});
  transition.add_attribute(
      {.name = "to", .type = AttrType::kString, .required = true});
  transition.add_attribute(
      {.name = "kind",
       .type = AttrType::kEnum,
       .required = true,
       .enum_literals = {"add-object", "remove-object", "set-attribute",
                         "add-reference", "remove-reference"}});
  transition.add_attribute({.name = "class", .type = AttrType::kString});
  transition.add_attribute({.name = "feature", .type = AttrType::kString});
  transition.add_attribute({.name = "value", .type = AttrType::kString});
  transition.add_attribute({.name = "vtype",
                            .type = AttrType::kEnum,
                            .enum_literals = {"string", "int", "real",
                                              "bool", "none"},
                            .default_value = Value("none")});
  transition.add_attribute({.name = "guard", .type = AttrType::kString});
  transition.add_reference({.name = "commands",
                            .target_class = "CommandTemplateSpec",
                            .containment = true,
                            .many = true});

  auto& synthesis = mm.add_class("SynthesisLayerSpec");
  synthesis.add_attribute({.name = "enabled",
                           .type = AttrType::kBool,
                           .default_value = Value(true)});
  synthesis.add_attribute({.name = "initial_state",
                           .type = AttrType::kString,
                           .default_value = Value("initial")});
  synthesis.add_reference({.name = "transitions",
                           .target_class = "TransitionSpec",
                           .containment = true,
                           .many = true});

  // ----- UI layer + platform root -------------------------------------
  auto& ui = mm.add_class("UiLayerSpec");
  ui.add_attribute({.name = "enabled",
                    .type = AttrType::kBool,
                    .default_value = Value(true)});
  ui.add_attribute(
      {.name = "dsml", .type = AttrType::kString, .required = true});

  auto& platform = mm.add_class("MiddlewarePlatform");
  platform.add_attribute(
      {.name = "name", .type = AttrType::kString, .required = true});
  platform.add_attribute({.name = "domain", .type = AttrType::kString});
  // Overload protection (decoded into the async pipeline's bounded
  // queue and the UI-layer admission controller; the defaults reproduce
  // the unbounded, admit-everything behaviour so existing models are
  // unaffected).
  platform.add_attribute({.name = "queue_capacity",
                          .type = AttrType::kInt,
                          .default_value = Value(0)});
  platform.add_attribute({.name = "overflow_policy",
                          .type = AttrType::kEnum,
                          .enum_literals = {"reject", "shed-oldest"},
                          .default_value = Value("reject")});
  platform.add_attribute({.name = "admission",
                          .type = AttrType::kBool,
                          .default_value = Value(false)});
  platform.add_attribute({.name = "admission_alpha",
                          .type = AttrType::kReal,
                          .default_value = Value(0.2)});
  platform.add_attribute({.name = "admission_safety",
                          .type = AttrType::kReal,
                          .default_value = Value(1.0)});
  // Networked ingress front-end (PR 7): where the platform listens on
  // the simulated network, the shared-secret auth stub, and the deadline
  // stamped on wire submissions that carry none. An empty endpoint means
  // "derive <platform-name>.ingress" at attach time.
  platform.add_attribute({.name = "ingress_endpoint",
                          .type = AttrType::kString,
                          .default_value = Value("")});
  platform.add_attribute({.name = "ingress_auth",
                          .type = AttrType::kString,
                          .default_value = Value("")});
  platform.add_attribute({.name = "ingress_default_deadline_us",
                          .type = AttrType::kInt,
                          .default_value = Value(0)});
  // Per-client token-bucket rate limit at the ingress door (PR 8):
  // sustained requests/second per client endpoint and the burst the
  // bucket tolerates (0 limit disables the middleware; 0 burst derives
  // max(1, rate)).
  platform.add_attribute({.name = "ingress_rate_limit",
                          .type = AttrType::kReal,
                          .default_value = Value(0.0)});
  platform.add_attribute({.name = "ingress_rate_burst",
                          .type = AttrType::kReal,
                          .default_value = Value(0.0)});
  // Clock-based TTL on *completed* ingress dedup-ledger entries (PR 10);
  // 0 keeps capacity eviction as the only bound. In-flight entries are
  // never evicted regardless.
  platform.add_attribute({.name = "ingress_dedup_ttl_us",
                          .type = AttrType::kInt,
                          .default_value = Value(0)});
  // Session-state replication cadence (PR 10): a cluster front-end ships
  // a session checkpoint to the ring replica after every N completed
  // sequenced requests for that session (0 disables checkpointing).
  platform.add_attribute({.name = "checkpoint_interval",
                          .type = AttrType::kInt,
                          .default_value = Value(0)});
  platform.add_reference({.name = "broker",
                          .target_class = "BrokerLayerSpec",
                          .containment = true,
                          .many = false});
  platform.add_reference({.name = "controller",
                          .target_class = "ControllerLayerSpec",
                          .containment = true,
                          .many = false});
  platform.add_reference({.name = "synthesis",
                          .target_class = "SynthesisLayerSpec",
                          .containment = true,
                          .many = false});
  platform.add_reference({.name = "ui",
                          .target_class = "UiLayerSpec",
                          .containment = true,
                          .many = false});
  return mm;
}

}  // namespace

model::MetamodelPtr middleware_metamodel() {
  static model::MetamodelPtr instance = model::finalize_metamodel(build());
  return instance;
}

}  // namespace mdsm::core
