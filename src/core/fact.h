#ifndef CROWDFUSION_CORE_FACT_H_
#define CROWDFUSION_CORE_FACT_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace crowdfusion::core {

/// A fact is a {subject, predicate, object} triple whose ground-truth value
/// is either true or false (Section II-A). Facts in one FactSet may refer to
/// entirely different real-world entities.
struct Fact {
  std::string subject;
  std::string predicate;
  std::string object;

  /// "subject | predicate | object" display form.
  std::string ToString() const;

  friend bool operator==(const Fact& a, const Fact& b) = default;
};

/// An ordered collection of facts; a fact's id is its index. The joint
/// distribution, crowd answers, and task selections all refer to facts by
/// these ids.
class FactSet {
 public:
  FactSet() = default;
  explicit FactSet(std::vector<Fact> facts) : facts_(std::move(facts)) {}

  /// Appends a fact; returns its id.
  int Add(Fact fact);

  int size() const { return static_cast<int>(facts_.size()); }
  bool empty() const { return facts_.empty(); }

  const Fact& at(int id) const;
  const std::vector<Fact>& facts() const { return facts_; }

 private:
  std::vector<Fact> facts_;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_FACT_H_
