#include "net/http_server.h"

#include <utility>

#include "common/json.h"
#include "common/logging.h"

namespace crowdfusion::net {

using common::Status;

namespace {

HttpResponse MakeDroppedWriterResponse() {
  HttpResponse response;
  response.status_code = 500;
  response.headers.push_back({"Content-Type", "application/json"});
  common::JsonValue error = common::JsonValue::MakeObject();
  error.Set("code", static_cast<int64_t>(500));
  error.Set("message", "handler dropped the request without answering");
  common::JsonValue body = common::JsonValue::MakeObject();
  body.Set("error", std::move(error));
  response.body = body.Dump();
  return response;
}

}  // namespace

// ---------------------------------------------------------------------------
// ResponseWriter
// ---------------------------------------------------------------------------

ResponseWriter::~ResponseWriter() {
  if (queue_ != nullptr) {
    // A handler let the writer die unsent; answer for it so the client
    // is not left waiting for a timeout.
    queue_->Post(token_, MakeDroppedWriterResponse());
  }
}

ResponseWriter& ResponseWriter::operator=(ResponseWriter&& other) noexcept {
  if (this != &other) {
    if (queue_ != nullptr) {
      queue_->Post(token_, MakeDroppedWriterResponse());
    }
    queue_ = std::move(other.queue_);
    token_ = other.token_;
    other.queue_.reset();
  }
  return *this;
}

void ResponseWriter::Send(HttpResponse response) {
  CF_CHECK(queue_ != nullptr)
      << "ResponseWriter::Send called twice (or on a moved-from writer)";
  queue_->Post(token_, std::move(response));
  queue_.reset();
}

HttpServer::AsyncHandler SyncHandlerAdapter(SyncHandler handler) {
  return [handler = std::move(handler)](const HttpRequest& request,
                                        ResponseWriter&& writer) {
    writer.Send(handler(request));
  };
}

// ---------------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------------

/// Pure forwarding shim so HttpServer exposes the dispatcher contract to
/// its EventLoop without publicly inheriting RequestDispatcher.
class HttpServer::Dispatcher : public RequestDispatcher {
 public:
  explicit Dispatcher(HttpServer* server) : server_(server) {}
  void DispatchRequest(uint64_t token, HttpRequest* request) override {
    server_->DispatchRequest(token, request);
  }

 private:
  HttpServer* server_;
};

HttpServer::HttpServer(AsyncHandler handler, Options options)
    : handler_(std::move(handler)),
      options_(std::move(options)),
      dispatcher_(std::make_unique<Dispatcher>(this)),
      loop_(dispatcher_.get(), options_) {}

HttpServer::~HttpServer() { Stop(); }

bool HttpServer::running() const {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  return running_;
}

common::Status HttpServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (running_) return Status::FailedPrecondition("server already started");
  CF_RETURN_IF_ERROR(options_.Validate());
  {
    std::lock_guard<std::mutex> ring_lock(ring_mutex_);
    // The loop never exceeds max_queue_depth dispatched-but-unanswered
    // requests, so this ring can never overflow.
    ring_.clear();
    ring_.resize(static_cast<size_t>(options_.max_queue_depth));
    ring_head_ = 0;
    ring_count_ = 0;
    draining_ = false;
  }
  CF_RETURN_IF_ERROR(loop_.Start());
  pool_ = std::make_unique<common::ThreadPool>(options_.threads);
  // Long-lived worker tasks: each occupies one pool thread until Stop.
  for (int i = 0; i < options_.threads; ++i) {
    pool_->Submit([this] { WorkerLoop(); });
  }
  running_ = true;
  return Status::Ok();
}

void HttpServer::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!running_) return;
  // Loop first: no new dispatches, straggler Posts become no-ops.
  loop_.Stop();
  {
    std::lock_guard<std::mutex> ring_lock(ring_mutex_);
    draining_ = true;
  }
  ring_ready_.notify_all();
  pool_.reset();  // joins the workers
  running_ = false;
}

void HttpServer::DispatchRequest(uint64_t token, HttpRequest* request) {
  {
    std::lock_guard<std::mutex> lock(ring_mutex_);
    PendingRequest& slot = ring_[(ring_head_ + ring_count_) % ring_.size()];
    slot.token = token;
    // Swap, don't copy: the connection gets the slot's recycled request
    // (capacities intact) and the loop thread stays allocation-free.
    std::swap(slot.request, *request);
    ++ring_count_;
  }
  ring_ready_.notify_one();
}

void HttpServer::WorkerLoop() {
  // Worker-local scratch, copied into rather than swapped: a swap would
  // pass a worker's never-used scratch through the ring to a connection the
  // first time that worker runs, and the loop thread's next parse into it
  // would allocate. The copy reuses the scratch's capacity.
  HttpRequest scratch;
  for (;;) {
    uint64_t token = 0;
    {
      std::unique_lock<std::mutex> lock(ring_mutex_);
      ring_ready_.wait(lock, [this] { return ring_count_ > 0 || draining_; });
      if (ring_count_ == 0) return;  // draining and empty
      PendingRequest& slot = ring_[ring_head_];
      token = slot.token;
      scratch = slot.request;
      ring_head_ = (ring_head_ + 1) % ring_.size();
      --ring_count_;
    }
    handler_(scratch, ResponseWriter(loop_.completions(), token));
  }
}

}  // namespace crowdfusion::net
