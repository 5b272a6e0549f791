#include <algorithm>
#include <cstdio>
#include <memory>

#include "perfbench.h"

namespace perfbench {

using cf::common::Status;

int SpanRecorder::Begin(const char* name, int64_t op, int parent) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = parent;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      SteadyClock::now() - epoch_)
                      .count();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int span) {
  spans_[static_cast<size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                           epoch_)
          .count();
}

std::vector<std::pair<std::string, int64_t>> SpanRecorder::SelfTimeByName()
    const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    self[i] += duration;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= duration;
    }
  }
  std::vector<std::pair<std::string, int64_t>> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(by_name.begin(), by_name.end(), [&](const auto& e) {
      return e.first == spans_[i].name;
    });
    if (it == by_name.end()) {
      by_name.emplace_back(spans_[i].name, self[i]);
    } else {
      it->second += self[i];
    }
  }
  return by_name;
}

Status SpanRecorder::WriteJsonl(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) return Status::Internal("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file.get(),
                 "{\"id\":%zu,\"name\":\"%s\",\"op\":%lld,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, span.name, static_cast<long long>(span.op), span.parent,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return Status::Ok();
}

}  // namespace perfbench
