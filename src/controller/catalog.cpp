#include "controller/catalog.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace mdsm::controller {

const std::vector<ProcedurePtr>& Catalog::candidates_for(
    std::string_view dsc) const {
  static const std::vector<ProcedurePtr> kNone;
  auto it = candidates.find(dsc);
  return it == candidates.end() ? kNone : it->second;
}

Status Catalog::add_dsc(Dsc dsc) {
  if (!is_identifier(dsc.name)) {
    return InvalidArgument("'" + dsc.name + "' is not a valid DSC name");
  }
  auto [it, inserted] = dscs.emplace(dsc.name, std::move(dsc));
  if (!inserted) {
    return AlreadyExists("DSC '" + it->first + "' already registered");
  }
  return Status::Ok();
}

Status Catalog::remove_dsc(std::string_view name) {
  auto it = dscs.find(name);
  if (it == dscs.end()) {
    return NotFound("DSC '" + std::string(name) + "' is not registered");
  }
  dscs.erase(it);
  return Status::Ok();
}

Status Catalog::add_procedure(Procedure procedure) {
  if (procedure.name.empty() || procedure.classifier.empty()) {
    return InvalidArgument("procedure needs a name and a classifier");
  }
  if (!has_dsc(procedure.classifier)) {
    return NotFound("procedure '" + procedure.name +
                    "' classified by unknown DSC '" + procedure.classifier +
                    "'");
  }
  for (const std::string& dependency : procedure.dependencies) {
    if (!has_dsc(dependency)) {
      return NotFound("procedure '" + procedure.name +
                      "' depends on unknown DSC '" + dependency + "'");
    }
  }
  // Paper constraint: a procedure must not depend on its own classifier
  // (the generator also guards against indirect cycles).
  for (const std::string& dependency : procedure.dependencies) {
    if (dependency == procedure.classifier) {
      return InvalidArgument("procedure '" + procedure.name +
                             "' depends on its own classifier '" +
                             dependency + "'");
    }
  }
  if (procedures.contains(procedure.name)) {
    return AlreadyExists("procedure '" + procedure.name +
                         "' already in repository");
  }
  auto shared = std::make_shared<const Procedure>(std::move(procedure));
  candidates[shared->classifier].push_back(shared);
  procedures.emplace(shared->name, std::move(shared));
  return Status::Ok();
}

Status Catalog::remove_procedure(std::string_view name) {
  auto it = procedures.find(name);
  if (it == procedures.end()) {
    return NotFound("procedure '" + std::string(name) +
                    "' not in repository");
  }
  auto& bucket = candidates[it->second->classifier];
  bucket.erase(std::find(bucket.begin(), bucket.end(), it->second));
  procedures.erase(it);
  return Status::Ok();
}

CatalogPtr CatalogStore::snapshot() const {
  std::lock_guard lock(current_mutex_);
  return current_;
}

Status CatalogStore::edit(const std::function<Status(Catalog&)>& mutate) {
  std::lock_guard writer(writer_mutex_);
  auto next = std::make_shared<Catalog>(*snapshot());
  MDSM_RETURN_IF_ERROR(mutate(*next));
  const std::uint64_t version = ++next->version;
  {
    std::lock_guard lock(current_mutex_);
    current_ = std::move(next);
  }
  version_.store(version, std::memory_order_release);
  return Status::Ok();
}

Status DscRegistry::add(Dsc dsc) {
  return store_->edit(
      [&](Catalog& draft) { return draft.add_dsc(std::move(dsc)); });
}

Status DscRegistry::remove(std::string_view name) {
  return store_->edit(
      [&](Catalog& draft) { return draft.remove_dsc(name); });
}

bool DscRegistry::contains(std::string_view name) const {
  return store_->snapshot()->has_dsc(name);
}

std::size_t DscRegistry::size() const {
  return store_->snapshot()->dscs.size();
}

std::vector<std::string> DscRegistry::in_category(
    std::string_view category) const {
  std::vector<std::string> out;
  const CatalogPtr catalog = store_->snapshot();
  for (const auto& [name, dsc] : catalog->dscs) {
    if (dsc.category == category) out.push_back(name);
  }
  return out;
}

std::vector<std::string> DscRegistry::names() const {
  std::vector<std::string> out;
  const CatalogPtr catalog = store_->snapshot();
  for (const auto& [name, dsc] : catalog->dscs) out.push_back(name);
  return out;
}

Status ProcedureRepository::remove(std::string_view name) {
  return store_->edit(
      [&](Catalog& draft) { return draft.remove_procedure(name); });
}

const Procedure* ProcedureRepository::find(std::string_view name) const {
  const CatalogPtr catalog = store_->snapshot();
  auto it = catalog->procedures.find(name);
  return it == catalog->procedures.end() ? nullptr : it->second.get();
}

std::vector<ProcedurePtr> ProcedureRepository::classified_by(
    std::string_view dsc) const {
  return store_->snapshot()->candidates_for(dsc);
}

std::size_t ProcedureRepository::size() const {
  return store_->snapshot()->procedures.size();
}

}  // namespace mdsm::controller
