// State Manager: "to store and manipulate the layer's runtime model"
// (paper §V-A). Implements the models@runtime principle [16]: the layer
// shares the committed runtime-model snapshot reflecting the entities it
// manages, plus a scalar variable store for cheap bookkeeping.
#pragma once

#include <mutex>
#include <string>

#include "model/model.hpp"

namespace mdsm::broker {

/// Every accessor is safe under concurrent execution.
class StateManager {
 public:
  /// Replace the runtime-model snapshot. The platform assembler installs
  /// the synthesis engine's initial (empty) snapshot; the synthesis model
  /// listener installs each newly committed one.
  void set_runtime_model(model::ModelPtr model) {
    std::lock_guard lock(mutex_);
    runtime_model_ = std::move(model);
  }
  /// The current snapshot (null until one is installed). A commit never
  /// changes a snapshot a reader holds.
  [[nodiscard]] model::ModelPtr runtime_model() const {
    std::lock_guard lock(mutex_);
    return runtime_model_;
  }

  /// Scalar state variables (session counters, flags, ...).
  void set(const std::string& key, model::Value value) {
    std::lock_guard lock(mutex_);
    variables_[key] = std::move(value);
  }
  [[nodiscard]] model::Value get(std::string_view key) const {
    std::lock_guard lock(mutex_);
    auto it = variables_.find(key);
    return it == variables_.end() ? model::Value{} : it->second;
  }
  [[nodiscard]] bool has(std::string_view key) const {
    std::lock_guard lock(mutex_);
    return variables_.contains(key);
  }
  void erase(const std::string& key) {
    std::lock_guard lock(mutex_);
    variables_.erase(key);
  }
  [[nodiscard]] std::size_t variable_count() const {
    std::lock_guard lock(mutex_);
    return variables_.size();
  }
  /// Full copy of the scalar store — the broker half of a session
  /// checkpoint (Platform::export_session_state).
  [[nodiscard]] std::map<std::string, model::Value, std::less<>>
  variables_snapshot() const {
    std::lock_guard lock(mutex_);
    return variables_;
  }

 private:
  mutable std::mutex mutex_;
  model::ModelPtr runtime_model_;
  std::map<std::string, model::Value, std::less<>> variables_;
};

}  // namespace mdsm::broker
