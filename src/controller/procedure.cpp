#include "controller/procedure.hpp"

#include <stdexcept>

namespace mdsm::controller {

std::string_view to_string(OpCode op) noexcept {
  switch (op) {
    case OpCode::kBrokerCall: return "broker-call";
    case OpCode::kCallDep: return "call-dep";
    case OpCode::kSetMem: return "set-mem";
    case OpCode::kEraseMem: return "erase-mem";
    case OpCode::kEmit: return "emit";
    case OpCode::kSend: return "send";
    case OpCode::kGuard: return "guard";
    case OpCode::kSetContext: return "set-context";
    case OpCode::kResult: return "result";
    case OpCode::kNoop: return "noop";
  }
  return "?";
}

namespace {
policy::Expression parse_or_throw(std::string_view condition) {
  auto parsed = policy::Expression::parse(condition);
  if (!parsed.ok()) {
    throw std::invalid_argument("bad guard expression: " +
                                parsed.status().to_string());
  }
  return std::move(parsed.value());
}
}  // namespace

Instruction broker_call(std::string operation, broker::Args args) {
  Instruction i;
  i.op = OpCode::kBrokerCall;
  i.a = std::move(operation);
  i.args = std::move(args);
  return i;
}

Instruction call_dep(std::string dsc) {
  Instruction i;
  i.op = OpCode::kCallDep;
  i.a = std::move(dsc);
  return i;
}

Instruction set_mem(std::string key, model::Value value) {
  Instruction i;
  i.op = OpCode::kSetMem;
  i.a = std::move(key);
  i.args["value"] = std::move(value);
  return i;
}

Instruction erase_mem(std::string key) {
  Instruction i;
  i.op = OpCode::kEraseMem;
  i.a = std::move(key);
  return i;
}

Instruction emit(std::string topic, model::Value payload) {
  Instruction i;
  i.op = OpCode::kEmit;
  i.a = std::move(topic);
  i.args["payload"] = std::move(payload);
  return i;
}

Instruction send(std::string destination, std::string topic,
                 model::Value payload) {
  Instruction i;
  i.op = OpCode::kSend;
  i.a = std::move(destination);
  i.b = std::move(topic);
  i.args["payload"] = std::move(payload);
  return i;
}

Instruction guard(std::string_view condition) {
  Instruction i;
  i.op = OpCode::kGuard;
  i.guard = parse_or_throw(condition);
  return i;
}

Instruction set_context(std::string key, model::Value value) {
  Instruction i;
  i.op = OpCode::kSetContext;
  i.a = std::move(key);
  i.args["value"] = std::move(value);
  return i;
}

Instruction result(model::Value value) {
  Instruction i;
  i.op = OpCode::kResult;
  i.args["value"] = std::move(value);
  return i;
}

Instruction noop() {
  Instruction i;
  i.op = OpCode::kNoop;
  return i;
}

}  // namespace mdsm::controller
