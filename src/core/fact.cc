#include "core/fact.h"

#include "common/logging.h"

namespace crowdfusion::core {

std::string Fact::ToString() const {
  return subject + " | " + predicate + " | " + object;
}

int FactSet::Add(Fact fact) {
  facts_.push_back(std::move(fact));
  return static_cast<int>(facts_.size()) - 1;
}

const Fact& FactSet::at(int id) const {
  CF_CHECK(id >= 0 && id < size()) << "fact id out of range: " << id;
  return facts_[static_cast<size_t>(id)];
}

}  // namespace crowdfusion::core
