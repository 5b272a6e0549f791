#ifndef CROWDFUSION_NET_HTTP_CLIENT_H_
#define CROWDFUSION_NET_HTTP_CLIENT_H_

#include <mutex>
#include <string>

#include "common/status.h"
#include "net/http.h"
#include "net/socket.h"

namespace crowdfusion::net {

/// Minimal blocking HTTP/1.1 client for one host:port. Keeps one
/// connection alive across calls and transparently reconnects once per
/// call when the server closed it between requests (the normal keep-alive
/// race). Thread-safe: calls serialize on an internal mutex, so one client
/// may be shared by a provider collected from several scheduler threads.
class HttpClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;
    /// Per-call ceiling for connect, send, and the full response read.
    double timeout_seconds = 10.0;
    HttpLimits limits;
  };

  explicit HttpClient(Options options);

  /// Sends one request and reads its response. Transport problems are
  /// Unavailable; a slow server is DeadlineExceeded. HTTP error statuses
  /// are NOT errors here — the caller inspects response.status_code.
  common::Result<HttpResponse> Call(const HttpRequest& request);

  /// Convenience wrappers.
  common::Result<HttpResponse> Get(const std::string& target);
  common::Result<HttpResponse> Post(const std::string& target,
                                    std::string body,
                                    const std::string& content_type =
                                        "application/json");
  common::Result<HttpResponse> Delete(const std::string& target);

  /// Drops the persistent connection (next call reconnects).
  void Reset();

  const Options& options() const { return options_; }

 private:
  common::Result<HttpResponse> CallLocked(const HttpRequest& request,
                                          bool allow_retry);

  Options options_;
  std::mutex mutex_;
  Socket connection_;
};

}  // namespace crowdfusion::net

#endif  // CROWDFUSION_NET_HTTP_CLIENT_H_
