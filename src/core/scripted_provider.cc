#include "core/scripted_provider.h"

#include "common/string_util.h"

namespace crowdfusion::core {

common::Result<TicketId> ScriptedProvider::Submit(
    std::span<const int> fact_ids, const TicketOptions& options) {
  return ledger_->Add(SimulateTicketAttempts(
      options, [this, &fact_ids](int) { return Attempt(fact_ids); },
      /*attempt_latency=*/nullptr));
}

common::Result<TicketStatus> ScriptedProvider::Poll(TicketId ticket) {
  return ledger_->Poll(ticket);
}

common::Result<std::vector<bool>> ScriptedProvider::Take(TicketId ticket) {
  return ledger_->Take(ticket);
}

void ScriptedProvider::Cancel(TicketId ticket) { ledger_->Forget(ticket); }

common::Result<std::vector<bool>> ScriptedProvider::Attempt(
    std::span<const int> fact_ids) {
  ++calls_;
  if (failures_left_ > 0) {
    --failures_left_;
    return common::Status::Unavailable("scripted outage");
  }
  std::vector<bool> answers;
  answers.reserve(fact_ids.size());
  for (const int id : fact_ids) {
    if (id < 0) {
      return common::Status::InvalidArgument(
          common::StrFormat("scripted provider asked about fact %d", id));
    }
    if (options_.script.empty()) {
      answers.push_back(id % 2 == 1);
    } else {
      if (static_cast<size_t>(id) >= options_.script.size()) {
        return common::Status::InvalidArgument(common::StrFormat(
            "scripted provider asked about fact %d but the script covers "
            "%zu facts",
            id, options_.script.size()));
      }
      answers.push_back(options_.script[static_cast<size_t>(id)]);
    }
  }
  return answers;
}

}  // namespace crowdfusion::core
