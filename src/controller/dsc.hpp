// Domain-Specific Classifiers (paper §V-B): "DSCs categorize operations
// and data based on the business rules of a domain ... Once generated,
// the DSCs serve as a mechanism to describe interfaces with implicit
// domain-specific constraints."
//
// A DSC names an abstract operation (kOperation) or a datum (kData). The
// DSCs of a Catalog (controller/catalog.hpp) are the domain's classifier
// vocabulary, shared by procedures (which are classified by exactly one
// DSC) and by the intent-model generator (which matches dependencies to
// classifiers).
#pragma once

#include <string>

namespace mdsm::controller {

enum class DscKind { kOperation, kData };

struct Dsc {
  std::string name;
  DscKind kind = DscKind::kOperation;
  std::string category;     ///< coarse goal grouping, e.g. "media-control"
  std::string description;
};

}  // namespace mdsm::controller
