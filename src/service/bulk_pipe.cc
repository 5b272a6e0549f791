#include "service/bulk_pipe.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/clock.h"
#include "common/json.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "service/request_json.h"

namespace crowdfusion::service {

using common::JsonValue;
using common::Status;

namespace {

/// One admitted line. The worker fills `output`/`books`/`succeeded` and
/// flips `done` under the pipe mutex; the emitter waits on the pipe
/// condition variable for the OLDEST slot only, which is what keeps
/// emission in input order.
struct Slot {
  int64_t line = 0;
  std::string input;
  std::string output;
  int64_t books = 0;
  bool succeeded = false;
  bool done = false;
};

std::string ErrorEnvelope(int64_t line, const Status& status) {
  JsonValue envelope = JsonValue::MakeObject();
  envelope.Set("schema", "crowdfusion-error-v1");
  envelope.Set("line", line);
  envelope.Set("code", common::StatusCodeName(status.code()));
  envelope.Set("message", status.message());
  return envelope.Dump();
}

void ProcessSlot(const FusionService& service, Slot& slot) {
  auto request = ParseFusionRequest(slot.input);
  if (!request.ok()) {
    slot.output = ErrorEnvelope(slot.line, request.status());
    return;
  }
  auto response = service.Run(std::move(request).value());
  if (!response.ok()) {
    slot.output = ErrorEnvelope(slot.line, response.status());
    return;
  }
  slot.books = static_cast<int64_t>(response->instances.size());
  WriteFusionResponse(*response, slot.output);
  slot.succeeded = true;
}

}  // namespace

common::Result<BulkPipeStats> RunBulkPipe(const FusionService& service,
                                          std::istream& in,
                                          std::ostream& out,
                                          const BulkPipeOptions& options) {
  if (options.max_in_flight < 1) {
    return Status::InvalidArgument("max_in_flight must be >= 1");
  }
  common::ThreadPool pool(options.threads);
  std::mutex mutex;
  std::condition_variable done_cv;
  std::deque<std::unique_ptr<Slot>> window;

  BulkPipeStats stats;
  common::Clock* clock = common::Clock::Real();
  const double start_seconds = clock->NowSeconds();

  const auto emit_front = [&](std::unique_lock<std::mutex>& lock) {
    std::unique_ptr<Slot> slot = std::move(window.front());
    window.pop_front();
    lock.unlock();
    out << slot->output << "\n";
    if (slot->succeeded) {
      ++stats.ok;
      stats.books_completed += slot->books;
    } else {
      ++stats.errors;
    }
    lock.lock();
  };

  std::string line;
  std::unique_lock<std::mutex> lock(mutex);
  while (true) {
    lock.unlock();
    const bool have_line = static_cast<bool>(std::getline(in, line));
    lock.lock();
    if (!have_line) break;
    ++stats.lines_read;
    if (common::Trim(line).empty()) continue;

    // Admission: block until the window has room, emitting the oldest
    // finished results while we wait.
    while (static_cast<int>(window.size()) >= options.max_in_flight) {
      done_cv.wait(lock, [&] { return window.front()->done; });
      emit_front(lock);
    }

    auto slot = std::make_unique<Slot>();
    slot->line = stats.lines_read;
    slot->input = std::move(line);
    Slot* raw = slot.get();
    window.push_back(std::move(slot));
    ++stats.requests;
    stats.peak_in_flight =
        std::max(stats.peak_in_flight, static_cast<int>(window.size()));
    lock.unlock();
    pool.Submit([&service, raw, &mutex, &done_cv] {
      Slot scratch;
      scratch.line = raw->line;
      scratch.input = std::move(raw->input);
      ProcessSlot(service, scratch);
      std::lock_guard<std::mutex> done_lock(mutex);
      raw->output = std::move(scratch.output);
      raw->books = scratch.books;
      raw->succeeded = scratch.succeeded;
      raw->done = true;
      done_cv.notify_all();
    });
    lock.lock();

    // Opportunistic drain: emit whatever is already finished so the
    // common fast path streams instead of batching a full window.
    while (!window.empty() && window.front()->done) emit_front(lock);
  }

  while (!window.empty()) {
    done_cv.wait(lock, [&] { return window.front()->done; });
    emit_front(lock);
  }
  lock.unlock();

  out.flush();
  stats.wall_seconds = std::max(1e-9, clock->NowSeconds() - start_seconds);
  if (!out.good()) return Status::Internal("writing pipe output failed");
  return stats;
}

}  // namespace crowdfusion::service
