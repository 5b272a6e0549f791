#ifndef CROWDFUSION_CROWD_SIMULATED_CROWD_H_
#define CROWDFUSION_CROWD_SIMULATED_CROWD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "core/async_provider.h"
#include "core/registry.h"
#include "crowd/adversary.h"
#include "crowd/latency_model.h"
#include "crowd/worker.h"
#include "data/statement.h"

namespace crowdfusion::crowd {

/// The gMission substitute: a provider that samples crowd judgments from
/// the ground truth under the paper's Bernoulli error model (Definition 2),
/// optionally with the Section V-D per-category biases.
///
/// One instance serves one fact universe (e.g. one book): fact id i refers
/// to truths[i] / categories[i]. All algorithms observe only the returned
/// answers, so swapping a real platform in requires only another
/// core::AsyncAnswerProvider (net::HttpAnswerProvider is one).
///
/// Submit registers a ticket whose answers land after a seeded simulated
/// latency (LatencyOptions, ConfigureAsync), with injectable attempt
/// failures retried under the ticket's bounded-retry/deadline terms.
/// Judgments are drawn at submit time, in submission order, from the
/// crowd's own RNG stream; latency and failures come from the latency
/// model's separate stream, which draws nothing at zero latency. So the
/// answers a run sees depend only on the seed and the batches asked,
/// never on the latency configured. Submit calls must come from one
/// thread at a time; Collect is internally synchronized.
class SimulatedCrowd : public core::AsyncAnswerProvider {
 public:
  /// `categories` may be empty, in which case every fact is kClean.
  SimulatedCrowd(std::vector<bool> truths,
                 std::vector<data::StatementCategory> categories,
                 WorkerBias bias, uint64_t seed);

  /// Unbiased crowd with uniform accuracy pc (the experiment knob).
  static SimulatedCrowd WithUniformAccuracy(std::vector<bool> truths,
                                            double pc, uint64_t seed);

  /// Installs the latency/failure model and clock for the tickets (and
  /// resets any outstanding ones). Without this call, Submit works with
  /// zero latency on the real clock. `clock` is borrowed and must
  /// outlive the crowd; nullptr means Clock::Real().
  void ConfigureAsync(LatencyOptions latency,
                      common::Clock* clock = nullptr);

  /// Installs a hostile worker layer: every subsequent judgment is drawn
  /// by the AdversaryModel (from its own RNG stream) instead of the
  /// honest aggregate worker. Without this call — or with
  /// spec.enabled == false, which is rejected — the honest path runs
  /// byte-for-byte as before, so adversary-off stays differentially
  /// identical to the pre-adversary crowd.
  common::Status ConfigureAdversary(const core::AdversarySpec& spec);

  /// The installed adversary, or nullptr for an honest crowd.
  const AdversaryModel* adversary() const { return adversary_.get(); }
  AdversaryModel* adversary() { return adversary_.get(); }

  common::Result<core::TicketId> Submit(
      std::span<const int> fact_ids,
      const core::TicketOptions& options) override;
  using core::AsyncAnswerProvider::Submit;
  common::Result<core::TicketStatus> Collect(core::TicketId ticket) override;
  void Cancel(core::TicketId ticket) override;
  std::pair<int64_t, int64_t> ServedCorrect() override {
    return {answers_served_, answers_correct_};
  }

  /// Total judgments served so far.
  int64_t answers_served() const { return answers_served_; }
  /// Of those, how many matched the ground truth (empirical accuracy).
  int64_t answers_correct() const { return answers_correct_; }

 private:
  /// Draws one judgment per fact, in order, from the judgment stream.
  common::Result<std::vector<bool>> Judge(std::span<const int> fact_ids);
  core::TicketLedger& ledger();

  std::vector<bool> truths_;
  std::vector<data::StatementCategory> categories_;
  Worker worker_;
  common::Rng rng_;
  std::unique_ptr<AdversaryModel> adversary_;
  int64_t answers_served_ = 0;
  int64_t answers_correct_ = 0;
  LatencyModel latency_;
  common::Clock* async_clock_ = nullptr;
  std::unique_ptr<core::TicketLedger> ledger_;
};

}  // namespace crowdfusion::crowd

#endif  // CROWDFUSION_CROWD_SIMULATED_CROWD_H_
