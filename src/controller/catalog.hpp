// The controller's vocabulary (paper §V-B): the DSCs and the procedure
// repository an intent model is built from, held as one immutable,
// versioned snapshot.
//
// Concurrency: a published Catalog is never mutated. Writers serialize on
// the store's writer mutex, copy the current catalog (procedures are
// shared pointers, so the copy does not duplicate them), apply every
// mutation of one edit to the copy and publish it once as the next
// version. A reader loads one snapshot and sees the vocabulary from
// before an edit or after it, never in between; an intent model that
// keeps its snapshot keeps every procedure it references alive.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "controller/dsc.hpp"
#include "controller/procedure.hpp"

namespace mdsm::controller {

struct Catalog {
  std::uint64_t version = 0;
  std::map<std::string, Dsc, std::less<>> dscs;
  std::map<std::string, ProcedurePtr, std::less<>> procedures;
  /// Candidates per classifier, in registration order (a re-synced
  /// procedure is removed and re-added, so it moves to the end).
  std::map<std::string, std::vector<ProcedurePtr>, std::less<>> candidates;

  [[nodiscard]] bool has_dsc(std::string_view name) const {
    return dscs.find(name) != dscs.end();
  }
  /// The candidate set for intent-model generation (empty if none).
  [[nodiscard]] const std::vector<ProcedurePtr>& candidates_for(
      std::string_view dsc) const;

  // Mutations, for the private copy an edit works on.
  Status add_dsc(Dsc dsc);
  /// Procedures classified by the DSC stay in the catalog but fail IM
  /// validation from then on.
  Status remove_dsc(std::string_view name);
  /// Add a procedure whose classifier and dependencies are DSCs of this
  /// catalog.
  Status add_procedure(Procedure procedure);
  Status remove_procedure(std::string_view name);
};

using CatalogPtr = std::shared_ptr<const Catalog>;

class CatalogStore {
 public:
  /// The current catalog; it stays valid and unchanged while held.
  [[nodiscard]] CatalogPtr snapshot() const;
  /// Version of the current catalog (bumped once per published edit).
  /// Kept beside the pointer so the IM cache's hit path can compare it
  /// without copying the snapshot.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// Apply `mutate` to a copy of the current catalog and publish the copy
  /// as one new version. When `mutate` fails, nothing is published and
  /// its status is returned.
  Status edit(const std::function<Status(Catalog&)>& mutate);

 private:
  std::mutex writer_mutex_;
  mutable std::mutex current_mutex_;  ///< guards the pointer swap only
  CatalogPtr current_ = std::make_shared<const Catalog>();
  std::atomic<std::uint64_t> version_{0};
};

/// The DSC half of a CatalogStore: the domain's classifier vocabulary.
/// Each mutation is one edit of the store.
class DscRegistry {
 public:
  explicit DscRegistry(CatalogStore& store) : store_(&store) {}

  Status add(Dsc dsc);
  Status remove(std::string_view name);
  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] std::size_t size() const;
  /// All classifier names in a category, sorted.
  [[nodiscard]] std::vector<std::string> in_category(
      std::string_view category) const;
  /// All names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  CatalogStore* store_;
};

/// The procedure half of a CatalogStore: "the Controller's repository was
/// populated with metadata of 100 curated procedures" (paper §VII-B).
/// Procedures are added through ControllerLayer::add_procedure, which
/// checks their DSCs in the same edit.
class ProcedureRepository {
 public:
  explicit ProcedureRepository(CatalogStore& store) : store_(&store) {}

  Status remove(std::string_view name);
  /// Borrowed pointer, valid while the procedure stays in the catalog.
  [[nodiscard]] const Procedure* find(std::string_view name) const;
  /// All procedures classified by `dsc`, in registration order.
  [[nodiscard]] std::vector<ProcedurePtr> classified_by(
      std::string_view dsc) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t version() const noexcept {
    return store_->version();
  }

 private:
  CatalogStore* store_;
};

}  // namespace mdsm::controller
