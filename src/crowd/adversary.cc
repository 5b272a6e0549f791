#include "crowd/adversary.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace crowdfusion::crowd {

using common::Status;

namespace {

Status ValidateFraction(const char* name, double value) {
  if (!(value >= 0.0 && value <= 1.0)) {
    return Status::InvalidArgument(
        common::StrFormat("adversary %s must be in [0, 1]", name));
  }
  return Status::Ok();
}

}  // namespace

AdversaryModel::AdversaryModel(core::AdversarySpec spec,
                               std::vector<WorkerState> workers)
    : spec_(spec), workers_(std::move(workers)), rng_(spec.seed) {}

common::Result<std::unique_ptr<AdversaryModel>> AdversaryModel::Create(
    core::AdversarySpec spec) {
  if (spec.num_workers <= 0) {
    return Status::InvalidArgument("adversary num_workers must be positive");
  }
  CF_RETURN_IF_ERROR(
      ValidateFraction("colluder_fraction", spec.colluder_fraction));
  CF_RETURN_IF_ERROR(ValidateFraction("collusion_target_fraction",
                                      spec.collusion_target_fraction));
  CF_RETURN_IF_ERROR(ValidateFraction("sybil_fraction", spec.sybil_fraction));
  CF_RETURN_IF_ERROR(
      ValidateFraction("spammer_fraction", spec.spammer_fraction));
  CF_RETURN_IF_ERROR(
      ValidateFraction("parrot_fraction", spec.parrot_fraction));
  const double hostile = spec.colluder_fraction + spec.sybil_fraction +
                         spec.spammer_fraction + spec.parrot_fraction;
  if (hostile > 1.0 + 1e-9) {
    return Status::InvalidArgument(
        "adversary role fractions must sum to at most 1");
  }
  if (!(spec.drift_floor >= 0.0 && spec.drift_ceiling <= 1.0 &&
        spec.drift_floor <= spec.drift_ceiling)) {
    return Status::InvalidArgument(
        "adversary drift window must satisfy 0 <= floor <= ceiling <= 1");
  }

  // Partition the pool into role blocks, hostile roles first. Rounding is
  // floor-based per role so the hostile blocks can never exceed the pool.
  const int n = spec.num_workers;
  std::vector<WorkerState> workers(static_cast<size_t>(n));
  const auto block = [n](double fraction) {
    return static_cast<int>(std::floor(fraction * n + 1e-9));
  };
  int next = 0;
  const auto assign = [&](AdversaryRole role, int count) {
    for (int i = 0; i < count && next < n; ++i, ++next) {
      workers[static_cast<size_t>(next)].role = role;
    }
  };
  assign(AdversaryRole::kColluder, block(spec.colluder_fraction));
  assign(AdversaryRole::kSybil, block(spec.sybil_fraction));
  assign(AdversaryRole::kSpammer, block(spec.spammer_fraction));
  assign(AdversaryRole::kParrot, block(spec.parrot_fraction));
  return std::unique_ptr<AdversaryModel>(
      new AdversaryModel(spec, std::move(workers)));
}

bool AdversaryModel::IsCollusionTarget(int fact_id) const {
  if (spec_.collusion_target_fraction <= 0.0) return false;
  if (spec_.collusion_target_fraction >= 1.0) return true;
  // SplitMix64 finalizer over (seed, fact id): a per-fact uniform that
  // every colluder computes identically regardless of collection order.
  uint64_t x = spec_.seed ^
               (0x9E3779B97F4A7C15ULL *
                (static_cast<uint64_t>(static_cast<uint32_t>(fact_id)) + 1));
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  return u < spec_.collusion_target_fraction;
}

double AdversaryModel::HonestAccuracy(int worker,
                                      data::StatementCategory category,
                                      const WorkerBias& honest_bias) const {
  const double base = honest_bias.AccuracyFor(category);
  const double drifted =
      base + spec_.drift_per_answer * static_cast<double>(answers_by(worker));
  return std::clamp(drifted, spec_.drift_floor, spec_.drift_ceiling);
}

int64_t AdversaryModel::answers_by(int worker) const {
  CF_DCHECK(worker >= 0 && worker < num_workers());
  return workers_[static_cast<size_t>(worker)].answers;
}

bool AdversaryModel::DrawWithAccuracy(double accuracy, bool truth) {
  return rng_.NextBernoulli(accuracy) ? truth : !truth;
}

bool AdversaryModel::Judge(int fact_id, bool truth,
                           data::StatementCategory category,
                           const WorkerBias& honest_bias) {
  const int worker =
      static_cast<int>(rng_.NextBounded(static_cast<uint64_t>(num_workers())));
  return JudgeAs(worker, fact_id, truth, category, honest_bias);
}

bool AdversaryModel::JudgeAs(int worker, int fact_id, bool truth,
                             data::StatementCategory category,
                             const WorkerBias& honest_bias) {
  CF_DCHECK(worker >= 0 && worker < num_workers());
  WorkerState& state = workers_[static_cast<size_t>(worker)];
  bool answer = false;
  switch (state.role) {
    case AdversaryRole::kHonest:
      answer = DrawWithAccuracy(HonestAccuracy(worker, category, honest_bias),
                                truth);
      break;
    case AdversaryRole::kColluder:
      // Cover traffic keeps the clique's non-target accuracy high, which
      // is exactly what earns it trust to spend on the targeted facts.
      answer = IsCollusionTarget(fact_id)
                   ? !truth
                   : DrawWithAccuracy(honest_bias.AccuracyFor(category),
                                      truth);
      break;
    case AdversaryRole::kSybil: {
      auto [it, inserted] = sybil_answers_.try_emplace(fact_id, false);
      if (inserted) {
        // The master stream answers once per fact; clones replay it.
        it->second =
            DrawWithAccuracy(honest_bias.AccuracyFor(category), truth);
      }
      answer = it->second;
      break;
    }
    case AdversaryRole::kSpammer:
      answer = rng_.NextBernoulli(0.5);
      break;
    case AdversaryRole::kParrot: {
      const auto it = fact_tallies_.find(fact_id);
      // Majority of the log so far; empty history and ties parrot "true".
      answer =
          it == fact_tallies_.end() || it->second.first >= it->second.second;
      break;
    }
  }

  ++state.answers;
  auto& [votes_true, votes_false] = fact_tallies_[fact_id];
  (answer ? votes_true : votes_false) += 1;
  log_.push_back(Judgment{fact_id, worker, answer, truth});
  return answer;
}

}  // namespace crowdfusion::crowd
