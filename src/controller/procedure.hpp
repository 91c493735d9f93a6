// Procedures and Execution Units (paper §V-B): "Procedures, and their
// accompanying execution units (EUs), undertake the domain specific
// operations of the controller. They are classified by DSCs ... allowing
// them to be considered as candidates to realize the abstract operation
// that matches their classifying DSC."
//
// An EU is a list of instructions for the Controller's stack machine.
// The instruction set is the Controller's *model of execution* — the
// domain-independent operations covering "memory management, event
// handling, message passing and remote calls" plus calls down into the
// Broker layer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "broker/broker_types.hpp"
#include "common/status.hpp"
#include "policy/expression.hpp"

namespace mdsm::controller {

enum class OpCode {
  kBrokerCall,  ///< a=broker operation name; args templated
  kCallDep,     ///< a=dependency DSC: push the matched procedure
  kSetMem,      ///< a=memory key; args["value"] (memory management)
  kEraseMem,    ///< a=memory key
  kEmit,        ///< a=topic; args["payload"] (event handling)
  kSend,        ///< a=destination, b=topic; args["payload"] (message passing
                ///< / remote calls via the platform's network endpoint)
  kGuard,       ///< `guard` must hold or execution aborts
  kSetContext,  ///< a=context variable; args["value"]
  kResult,      ///< args["value"] becomes the execution result
  kNoop,        ///< measurable no-op (used by ablation benches)
};

std::string_view to_string(OpCode op) noexcept;

/// Value templates inside args:  "$name" → command argument,
/// "$ctx:name" → context variable, "$mem:key" → engine memory,
/// "$$literal" → escaped "$literal".
struct Instruction {
  OpCode op{};
  std::string a;
  std::string b;
  broker::Args args;
  policy::Expression guard;  ///< only for kGuard
};

using ExecutionUnit = std::vector<Instruction>;

/// A domain-specific procedure. Current paper constraint: classified by
/// a single DSC.
struct Procedure {
  std::string name;
  std::string classifier;                 ///< the classifying DSC
  std::vector<std::string> dependencies;  ///< DSCs this procedure calls
  policy::Expression guard;  ///< context applicability (environmental)
  double cost = 1.0;         ///< selection metadata: execution cost
  double quality = 1.0;      ///< selection metadata: result quality
  std::vector<ExecutionUnit> units;  ///< executed in order
};

/// Shared ownership of an immutable procedure: catalog versions share the
/// procedures they have in common.
using ProcedurePtr = std::shared_ptr<const Procedure>;

/// Builders mirroring broker/action.hpp, for terse domain DSK code.
Instruction broker_call(std::string operation, broker::Args args = {});
Instruction call_dep(std::string dsc);
Instruction set_mem(std::string key, model::Value value);
Instruction erase_mem(std::string key);
Instruction emit(std::string topic, model::Value payload = {});
Instruction send(std::string destination, std::string topic,
                 model::Value payload = {});
Instruction guard(std::string_view condition);
Instruction set_context(std::string key, model::Value value);
Instruction result(model::Value value);
Instruction noop();

}  // namespace mdsm::controller
