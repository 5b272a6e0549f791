#include "fusion/claim_database.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace crowdfusion::fusion {

using common::Status;

int ClaimDatabase::AddSource(std::string name) {
  source_names_.push_back(std::move(name));
  source_values_.emplace_back();
  return num_sources() - 1;
}

int ClaimDatabase::AddEntity() {
  entity_values_.emplace_back();
  return num_entities() - 1;
}

common::Result<int> ClaimDatabase::AddValue(int entity_id, std::string text) {
  if (entity_id < 0 || entity_id >= num_entities()) {
    return Status::OutOfRange(
        common::StrFormat("entity id %d out of range", entity_id));
  }
  for (int vid : entity_values_[static_cast<size_t>(entity_id)]) {
    if (value_texts_[static_cast<size_t>(vid)] == text) return vid;
  }
  value_texts_.push_back(std::move(text));
  value_sources_.emplace_back();
  const int vid = num_values() - 1;
  entity_values_[static_cast<size_t>(entity_id)].push_back(vid);
  return vid;
}

Status ClaimDatabase::AddClaim(int source_id, int value_id) {
  if (source_id < 0 || source_id >= num_sources()) {
    return Status::OutOfRange(
        common::StrFormat("source id %d out of range", source_id));
  }
  if (value_id < 0 || value_id >= num_values()) {
    return Status::OutOfRange(
        common::StrFormat("value id %d out of range", value_id));
  }
  auto& sources = value_sources_[static_cast<size_t>(value_id)];
  if (std::find(sources.begin(), sources.end(), source_id) != sources.end()) {
    return Status::Ok();  // Idempotent duplicate claim.
  }
  sources.push_back(source_id);
  source_values_[static_cast<size_t>(source_id)].push_back(value_id);
  ++num_claims_;
  return Status::Ok();
}

const std::string& ClaimDatabase::source_name(int id) const {
  CF_CHECK(id >= 0 && id < num_sources());
  return source_names_[static_cast<size_t>(id)];
}

const std::vector<int>& ClaimDatabase::entity_values(int entity_id) const {
  CF_CHECK(entity_id >= 0 && entity_id < num_entities());
  return entity_values_[static_cast<size_t>(entity_id)];
}

const std::vector<int>& ClaimDatabase::value_sources(int value_id) const {
  CF_CHECK(value_id >= 0 && value_id < num_values());
  return value_sources_[static_cast<size_t>(value_id)];
}

const std::vector<int>& ClaimDatabase::source_values(int source_id) const {
  CF_CHECK(source_id >= 0 && source_id < num_sources());
  return source_values_[static_cast<size_t>(source_id)];
}

std::vector<int> ClaimDatabase::EntitySources(int entity_id) const {
  std::vector<int> sources;
  for (int vid : entity_values(entity_id)) {
    for (int sid : value_sources(vid)) {
      if (std::find(sources.begin(), sources.end(), sid) == sources.end()) {
        sources.push_back(sid);
      }
    }
  }
  std::sort(sources.begin(), sources.end());
  return sources;
}

}  // namespace crowdfusion::fusion
