#ifndef CROWDFUSION_CORE_SCRIPTED_PROVIDER_H_
#define CROWDFUSION_CORE_SCRIPTED_PROVIDER_H_

#include <memory>
#include <span>
#include <vector>

#include "core/async_provider.h"

namespace crowdfusion::core {

/// Deterministic provider for tests, differentials, and config-built
/// runs: fact id `i` is always answered with `script[i]` (or with the
/// parity rule `i % 2 == 1` when the script is empty — the idiom the test
/// suite has used since PR 1). The first `failures_before_success`
/// collection attempts fail with kUnavailable, which exercises retry and
/// failure-policy paths without a latency model. Tickets resolve at
/// submit time with zero latency; a ticket's attempts are retried under
/// its TicketOptions like any other provider's.
class ScriptedProvider : public AsyncAnswerProvider {
 public:
  struct Options {
    /// Per-fact scripted answers; empty means the parity rule.
    std::vector<bool> script;
    /// Collection attempts that fail (kUnavailable) before the first
    /// success.
    int failures_before_success = 0;

    friend bool operator==(const Options& a, const Options& b) = default;
  };

  ScriptedProvider() : ScriptedProvider(Options()) {}
  explicit ScriptedProvider(Options options)
      : options_(std::move(options)),
        failures_left_(options_.failures_before_success),
        ledger_(std::make_unique<TicketLedger>(nullptr)) {}

  common::Result<TicketId> Submit(std::span<const int> fact_ids,
                                  const TicketOptions& options) override;
  using AsyncAnswerProvider::Submit;
  common::Result<TicketStatus> Collect(TicketId ticket) override;
  void Cancel(TicketId ticket) override;

  /// Collection attempts made so far (successful or not).
  int calls() const { return calls_; }

  const Options& options() const { return options_; }

 private:
  /// One collection attempt: the scripted answers, or the scripted outage.
  common::Result<std::vector<bool>> Attempt(std::span<const int> fact_ids);

  Options options_;
  int failures_left_ = 0;
  int calls_ = 0;
  /// Heap-held so the provider stays movable.
  std::unique_ptr<TicketLedger> ledger_;
};

}  // namespace crowdfusion::core

#endif  // CROWDFUSION_CORE_SCRIPTED_PROVIDER_H_
