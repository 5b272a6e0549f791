#ifndef CROWDFUSION_FUSION_CLAIM_DATABASE_H_
#define CROWDFUSION_FUSION_CLAIM_DATABASE_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace crowdfusion::fusion {

/// The input of machine-only data fusion: a set of *sources* making
/// *claims* about *entities*, where each claim asserts one candidate
/// *value* (in the Book dataset, a full author-list statement). Multiple
/// values of one entity may simultaneously be true (different formats of
/// the same author list), which is why CrowdFusion models per-value truth
/// probabilities rather than a single winner per entity.
class ClaimDatabase {
 public:
  struct Claim {
    int source_id = -1;
    int entity_id = -1;
    int value_id = -1;  // global value id
  };

  /// Registers a source; returns its id.
  int AddSource(std::string name);

  /// Registers an entity; returns its id.
  int AddEntity(std::string name);

  /// Registers a candidate value for `entity_id`; returns its global value
  /// id. Duplicate texts for the same entity return the existing id.
  common::Result<int> AddValue(int entity_id, std::string text);

  /// Records that `source_id` asserts `value_id`. Duplicate (source, value)
  /// claims are idempotent.
  common::Status AddClaim(int source_id, int value_id);

  int num_sources() const { return static_cast<int>(source_names_.size()); }
  int num_entities() const { return static_cast<int>(entity_names_.size()); }
  int num_values() const { return static_cast<int>(value_texts_.size()); }
  int num_claims() const { return num_claims_; }

  const std::string& source_name(int id) const;

  /// Global value ids belonging to an entity.
  const std::vector<int>& entity_values(int entity_id) const;
  /// Source ids claiming a value.
  const std::vector<int>& value_sources(int value_id) const;
  /// Global value ids claimed by a source.
  const std::vector<int>& source_values(int source_id) const;

  /// Sources making at least one claim on the entity.
  std::vector<int> EntitySources(int entity_id) const;

 private:
  std::vector<std::string> source_names_;
  std::vector<std::string> entity_names_;
  std::vector<std::string> value_texts_;
  std::vector<std::vector<int>> entity_values_;
  std::vector<std::vector<int>> value_sources_;
  std::vector<std::vector<int>> source_values_;
  int num_claims_ = 0;
};

}  // namespace crowdfusion::fusion

#endif  // CROWDFUSION_FUSION_CLAIM_DATABASE_H_
