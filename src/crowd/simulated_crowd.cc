#include "crowd/simulated_crowd.h"

#include <algorithm>

#include "common/string_util.h"

namespace crowdfusion::crowd {

using common::Status;

SimulatedCrowd::SimulatedCrowd(std::vector<bool> truths,
                               std::vector<data::StatementCategory> categories,
                               WorkerBias bias, uint64_t seed)
    : truths_(std::move(truths)),
      categories_(std::move(categories)),
      worker_("simulated", bias),
      rng_(seed) {}

SimulatedCrowd SimulatedCrowd::WithUniformAccuracy(std::vector<bool> truths,
                                                   double pc, uint64_t seed) {
  return SimulatedCrowd(std::move(truths), {}, WorkerBias::Uniform(pc), seed);
}

common::Result<std::vector<bool>> SimulatedCrowd::Judge(
    std::span<const int> fact_ids) {
  std::vector<bool> answers;
  answers.reserve(fact_ids.size());
  for (int id : fact_ids) {
    if (id < 0 || id >= static_cast<int>(truths_.size())) {
      return Status::OutOfRange(
          common::StrFormat("fact id %d outside the crowd's universe", id));
    }
    const bool truth = truths_[static_cast<size_t>(id)];
    const data::StatementCategory category =
        categories_.empty() ? data::StatementCategory::kClean
                            : categories_[static_cast<size_t>(id)];
    // The honest branch must stay byte-identical to the pre-adversary
    // crowd: same draw, same stream (the adversary-off differential).
    const bool answer =
        adversary_ == nullptr
            ? worker_.Judge(truth, category, rng_)
            : adversary_->Judge(id, truth, category, worker_.bias());
    ++answers_served_;
    if (answer == truth) ++answers_correct_;
    answers.push_back(answer);
  }
  return answers;
}

common::Status SimulatedCrowd::ConfigureAdversary(
    const core::AdversarySpec& spec) {
  if (!spec.enabled) {
    return Status::InvalidArgument(
        "refusing to install a disabled adversary; leave the crowd honest "
        "instead");
  }
  CF_ASSIGN_OR_RETURN(adversary_, AdversaryModel::Create(spec));
  return Status::Ok();
}

void SimulatedCrowd::ConfigureAsync(LatencyOptions latency,
                                    common::Clock* clock) {
  latency_ = LatencyModel(latency);
  async_clock_ = clock;
  ledger_ = std::make_unique<core::TicketLedger>(clock);
}

core::TicketLedger& SimulatedCrowd::ledger() {
  if (ledger_ == nullptr) {
    ledger_ = std::make_unique<core::TicketLedger>(async_clock_);
  }
  return *ledger_;
}

common::Result<core::TicketId> SimulatedCrowd::Submit(
    std::span<const int> fact_ids, const core::TicketOptions& options) {
  // The whole ticket is resolved here, in submission order: judgments come
  // from the crowd's RNG stream and latency/failures from the latency
  // model's own stream, so latency never changes the answers. A failed
  // attempt abandons the batch before any judgment is drawn. The attempts
  // run inside this call, so the callbacks capture by reference and stay
  // small enough for std::function's inline buffer (no allocation).
  core::TicketLedger::Outcome outcome = core::SimulateTicketAttempts(
      options,
      [this, &fact_ids](int) -> common::Result<std::vector<bool>> {
        if (latency_.SampleFailure()) {
          return Status::Unavailable("injected crowd failure");
        }
        return Judge(fact_ids);
      },
      [this, &fact_ids](int) {
        // The batch goes out in parallel; the slowest task gates it.
        double batch_seconds = 0.0;
        for (size_t i = 0; i < fact_ids.size(); ++i) {
          batch_seconds =
              std::max(batch_seconds, latency_.SampleTaskSeconds());
        }
        return batch_seconds;
      });
  return ledger().Add(std::move(outcome));
}

common::Result<core::TicketStatus> SimulatedCrowd::Poll(
    core::TicketId ticket) {
  return ledger().Poll(ticket);
}

common::Result<std::vector<bool>> SimulatedCrowd::Take(core::TicketId ticket) {
  return ledger().Take(ticket);
}

void SimulatedCrowd::Cancel(core::TicketId ticket) {
  ledger().Forget(ticket);
}

}  // namespace crowdfusion::crowd
