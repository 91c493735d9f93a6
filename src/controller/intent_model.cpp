#include "controller/intent_model.hpp"

#include <algorithm>
#include <sstream>

namespace mdsm::controller {

namespace {

std::unique_ptr<IntentModelNode> clone_node(const IntentModelNode& node) {
  auto copy = std::make_unique<IntentModelNode>();
  copy->procedure = node.procedure;
  copy->children.reserve(node.children.size());
  for (const auto& child : node.children) {
    copy->children.push_back(clone_node(*child));
  }
  return copy;
}

void accumulate_metrics(const IntentModelNode& node, double& cost,
                        double& quality, int& count) {
  cost += node.procedure->cost;
  // Quality of a configuration is its weakest component's quality: a
  // high-quality root cannot compensate for a degraded dependency.
  quality = std::min(quality, node.procedure->quality);
  ++count;
  for (const auto& child : node.children) {
    accumulate_metrics(*child, cost, quality, count);
  }
}

void print_node(const IntentModelNode& node, int indent,
                std::ostringstream& out) {
  out << std::string(static_cast<std::size_t>(indent) * 2, ' ')
      << node.procedure->name << " [" << node.procedure->classifier
      << ", cost=" << node.procedure->cost << "]\n";
  for (const auto& child : node.children) {
    print_node(*child, indent + 1, out);
  }
}

}  // namespace

std::string IntentModel::to_text() const {
  std::ostringstream out;
  out << "IM(" << root_dsc << ") cost=" << total_cost
      << " quality=" << total_quality << " nodes=" << node_count << "\n";
  if (root != nullptr) print_node(*root, 1, out);
  return out.str();
}

IntentModelGenerator::IntentModelGenerator(
    const CatalogStore& catalog, const policy::ContextStore& context,
    GeneratorConfig config)
    : catalog_(&catalog), context_(&context), config_(config) {}

void IntentModelGenerator::enumerate(
    const Catalog& catalog, std::string_view dsc,
    std::vector<std::string_view>& path,
    std::vector<std::unique_ptr<IntentModelNode>>& out, std::size_t bound) {
  if (out.size() >= bound) return;
  if (path.size() >= config_.max_depth) return;
  if (std::find(path.begin(), path.end(), dsc) != path.end()) {
    stats_.cycle_rejections.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  path.push_back(dsc);
  for (const ProcedurePtr& candidate : catalog.candidates_for(dsc)) {
    if (out.size() >= bound) break;
    Result<bool> applicable = candidate->guard.evaluate_bool(*context_);
    if (!applicable.ok() || !*applicable) {
      stats_.guard_rejections.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (candidate->dependencies.empty()) {
      auto leaf = std::make_unique<IntentModelNode>();
      leaf->procedure = candidate.get();
      out.push_back(std::move(leaf));
      continue;
    }
    // Enumerate subtree options per declared dependency.
    std::vector<std::vector<std::unique_ptr<IntentModelNode>>> options;
    options.reserve(candidate->dependencies.size());
    bool feasible = true;
    for (const std::string& dependency : candidate->dependencies) {
      std::vector<std::unique_ptr<IntentModelNode>> dep_options;
      enumerate(catalog, dependency, path, dep_options, bound);
      if (dep_options.empty()) {
        feasible = false;
        break;
      }
      options.push_back(std::move(dep_options));
    }
    if (!feasible) continue;
    // Cross product over per-dependency options, odometer style, bounded
    // by the remaining configuration budget.
    std::vector<std::size_t> indices(options.size(), 0);
    while (out.size() < bound) {
      auto node = std::make_unique<IntentModelNode>();
      node->procedure = candidate.get();
      node->children.reserve(options.size());
      for (std::size_t i = 0; i < options.size(); ++i) {
        node->children.push_back(clone_node(*options[i][indices[i]]));
      }
      out.push_back(std::move(node));
      // Advance the odometer.
      std::size_t position = 0;
      while (position < indices.size()) {
        if (++indices[position] < options[position].size()) break;
        indices[position] = 0;
        ++position;
      }
      if (position == indices.size()) break;  // odometer wrapped: done
    }
  }
  path.pop_back();
}

Status IntentModelGenerator::validate_node(
    const Catalog& catalog, const IntentModelNode& node,
    std::vector<std::string_view>& path) const {
  if (node.procedure == nullptr) return Internal("IM node without procedure");
  const Procedure& procedure = *node.procedure;
  if (!catalog.has_dsc(procedure.classifier)) {
    return ConformanceError("IM uses unknown DSC '" + procedure.classifier +
                            "'");
  }
  if (std::find(path.begin(), path.end(), procedure.classifier) !=
      path.end()) {
    return ConformanceError("IM has a classifier cycle through '" +
                            procedure.classifier + "'");
  }
  Result<bool> applicable = procedure.guard.evaluate_bool(*context_);
  if (!applicable.ok()) return applicable.status();
  if (!*applicable) {
    return FailedPrecondition("procedure '" + procedure.name +
                              "' no longer applicable in context");
  }
  if (node.children.size() != procedure.dependencies.size()) {
    return ConformanceError("procedure '" + procedure.name + "' expects " +
                            std::to_string(procedure.dependencies.size()) +
                            " dependencies, IM has " +
                            std::to_string(node.children.size()));
  }
  path.push_back(procedure.classifier);
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    const IntentModelNode& child = *node.children[i];
    if (child.procedure->classifier != procedure.dependencies[i]) {
      path.pop_back();
      return ConformanceError(
          "dependency " + std::to_string(i) + " of '" + procedure.name +
          "' must be classified by '" + procedure.dependencies[i] +
          "', got '" + child.procedure->classifier + "'");
    }
    Status status = validate_node(catalog, child, path);
    if (!status.ok()) {
      path.pop_back();
      return status;
    }
  }
  path.pop_back();
  return Status::Ok();
}

Status IntentModelGenerator::validate(const IntentModel& intent_model) const {
  return validate(*catalog_->snapshot(), intent_model);
}

Status IntentModelGenerator::validate(const Catalog& catalog,
                                      const IntentModel& intent_model) const {
  if (intent_model.root == nullptr) return Internal("IM without root");
  if (intent_model.root->procedure->classifier != intent_model.root_dsc) {
    return ConformanceError("IM root classified by '" +
                            intent_model.root->procedure->classifier +
                            "' but IM claims '" + intent_model.root_dsc +
                            "'");
  }
  std::vector<std::string_view> path;
  return validate_node(catalog, *intent_model.root, path);
}

Result<IntentModelPtr> IntentModelGenerator::generate(
    std::string_view root_dsc, SelectionStrategy strategy) {
  // Every step below reads this one snapshot, so an edit published
  // meanwhile cannot land inside the generation.
  CatalogPtr catalog = catalog_->snapshot();
  if (!catalog->has_dsc(root_dsc)) {
    return NotFound("unknown DSC '" + std::string(root_dsc) + "'");
  }
  // Generation.
  std::vector<std::unique_ptr<IntentModelNode>> configurations;
  std::vector<std::string_view> path;
  enumerate(*catalog, root_dsc, path, configurations,
            config_.max_configurations);
  stats_.generated.fetch_add(configurations.size(),
                             std::memory_order_relaxed);
  if (configurations.empty()) {
    return FailedPrecondition("no valid configuration for DSC '" +
                              std::string(root_dsc) + "' in current context");
  }
  // Validation + metric computation. The probe shell is hoisted out of
  // the loop; only its root changes per configuration.
  struct Scored {
    std::unique_ptr<IntentModelNode> root;
    double cost;
    double quality;
    int count;
  };
  std::vector<Scored> valid;
  valid.reserve(configurations.size());
  IntentModel probe;
  probe.root_dsc.assign(root_dsc);
  for (auto& configuration : configurations) {
    probe.root = std::move(configuration);
    if (validate(*catalog, probe).ok()) {
      stats_.validated.fetch_add(1, std::memory_order_relaxed);
      double cost = 0.0;
      double quality = 1e300;
      int count = 0;
      accumulate_metrics(*probe.root, cost, quality, count);
      valid.push_back({std::move(probe.root), cost, quality, count});
      if (strategy == SelectionStrategy::kFirstValid) break;
    }
  }
  if (valid.empty()) {
    return FailedPrecondition("no configuration for DSC '" +
                              std::string(root_dsc) +
                              "' survived validation");
  }
  // Selection.
  std::size_t best = 0;
  for (std::size_t i = 1; i < valid.size(); ++i) {
    switch (strategy) {
      case SelectionStrategy::kMinCost:
        if (valid[i].cost < valid[best].cost) best = i;
        break;
      case SelectionStrategy::kMaxQuality:
        if (valid[i].quality > valid[best].quality ||
            (valid[i].quality == valid[best].quality &&
             valid[i].cost < valid[best].cost)) {
          best = i;
        }
        break;
      case SelectionStrategy::kFirstValid:
        break;
    }
  }
  stats_.selected.fetch_add(1, std::memory_order_relaxed);
  auto intent_model = std::make_shared<IntentModel>();
  intent_model->root_dsc = std::move(probe.root_dsc);
  intent_model->root = std::move(valid[best].root);
  intent_model->total_cost = valid[best].cost;
  intent_model->total_quality = valid[best].quality;
  intent_model->node_count = valid[best].count;
  intent_model->catalog = std::move(catalog);
  return IntentModelPtr(intent_model);
}

Result<IntentModelPtr> IntentModelGenerator::generate_cached(
    std::string_view root_dsc, SelectionStrategy strategy) {
  // Capture the context version *before* generation: a context change
  // during generation then makes the stored entry stale (a spurious
  // re-generate next time), never a stale serve. The catalog version
  // stored is the one the IM was built from.
  const std::uint64_t context_version = context_->version();
  const std::uint64_t catalog_version = catalog_->version();
  CacheShard& shard = shard_for(root_dsc);
  {
    std::lock_guard lock(shard.mutex);
    auto it = shard.entries.find(root_dsc);
    if (it != shard.entries.end() &&
        it->second.catalog_version == catalog_version &&
        it->second.context_version == context_version &&
        it->second.strategy == strategy) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second.intent_model;
    }
  }
  stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
  // Generate outside the shard lock: concurrent misses on the same DSC
  // duplicate work instead of serializing the whole pipeline.
  Result<IntentModelPtr> generated = generate(root_dsc, strategy);
  if (!generated.ok()) return generated;
  {
    std::lock_guard lock(shard.mutex);
    auto it = shard.entries.find(root_dsc);
    if (it == shard.entries.end()) {
      it = shard.entries.emplace(std::string(root_dsc), CacheEntry{}).first;
    }
    it->second = CacheEntry{generated.value()->catalog->version,
                            context_version, strategy, generated.value()};
  }
  return generated;
}

void IntentModelGenerator::invalidate_cache() {
  for (CacheShard& shard : cache_) {
    std::lock_guard lock(shard.mutex);
    shard.entries.clear();
  }
}

GeneratorStats IntentModelGenerator::stats() const {
  GeneratorStats out;
  out.generated = stats_.generated.load(std::memory_order_relaxed);
  out.validated = stats_.validated.load(std::memory_order_relaxed);
  out.selected = stats_.selected.load(std::memory_order_relaxed);
  out.cache_hits = stats_.cache_hits.load(std::memory_order_relaxed);
  out.cache_misses = stats_.cache_misses.load(std::memory_order_relaxed);
  out.guard_rejections =
      stats_.guard_rejections.load(std::memory_order_relaxed);
  out.cycle_rejections =
      stats_.cycle_rejections.load(std::memory_order_relaxed);
  return out;
}

void IntentModelGenerator::reset_stats() {
  stats_.generated.store(0, std::memory_order_relaxed);
  stats_.validated.store(0, std::memory_order_relaxed);
  stats_.selected.store(0, std::memory_order_relaxed);
  stats_.cache_hits.store(0, std::memory_order_relaxed);
  stats_.cache_misses.store(0, std::memory_order_relaxed);
  stats_.guard_rejections.store(0, std::memory_order_relaxed);
  stats_.cycle_rejections.store(0, std::memory_order_relaxed);
}

}  // namespace mdsm::controller
