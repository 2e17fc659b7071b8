// ObservabilityServer: a minimal HTTP/1.0 GET server exposing the
// process's observability surfaces beside the framed-TCP query port, so
// standard tooling (curl, Prometheus) can scrape without speaking the
// wire protocol:
//
//   /metrics — Prometheus text exposition of the global MetricsRegistry
//   /healthz — "ok" liveness probe
//   /statusz — JSON: queries in flight right now (id, tenant, optimizer,
//              elapsed ms, live bytes), recent slow queries, audit-log
//              totals, and the size of the query servers' replay rings
//
// Deliberately tiny: GET only, one request per connection (Connection:
// close), recv/send timeouts so a stuck client cannot wedge the accept
// loop. Not a general web server — an operator port.
//
// Lifetime: the server must be destroyed (or Stop()ed) before the Engine
// it reads from.

#ifndef SJOS_NET_HTTP_H_
#define SJOS_NET_HTTP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/status.h"
#include "service/engine.h"

namespace sjos {
namespace net {

struct HttpServerOptions {
  /// Listen address; 0 picks an ephemeral port (read back with port()).
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Ceiling on the request head we will buffer before answering 400.
  size_t max_request_bytes = 8192;

  /// Per-connection recv/send timeout; a client slower than this is cut
  /// off rather than allowed to block the (single-threaded) serve loop.
  uint64_t io_timeout_ms = 2000;

  /// Entries returned in /statusz's "slow" array.
  size_t statusz_slow_queries = 16;
};

class ObservabilityServer {
 public:
  /// `engine` must outlive this server.
  ObservabilityServer(Engine* engine, HttpServerOptions options = {});
  ~ObservabilityServer();

  ObservabilityServer(const ObservabilityServer&) = delete;
  ObservabilityServer& operator=(const ObservabilityServer&) = delete;

  /// Binds, listens, and starts the serve loop. Fails (without leaking
  /// the socket) when the address cannot be bound.
  Status Start();

  /// Shuts down the listener and joins the serve thread. Idempotent;
  /// called by the destructor.
  void Stop();

  /// The bound port (after Start); useful with HttpServerOptions::port == 0.
  uint16_t port() const { return port_; }

  /// The response body /statusz serves, exposed for local (in-process)
  /// consumers: the shell's \top reuses it without a socket.
  std::string StatuszJson() const;

 private:
  void ServeLoop();
  void ServeConnection(int fd);
  /// Routes `path`; fills status line, content type, and body.
  void HandlePath(const std::string& path, int* http_status,
                  std::string* content_type, std::string* body) const;

  Engine* engine_;
  const HttpServerOptions options_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread serve_thread_;
};

}  // namespace net
}  // namespace sjos

#endif  // SJOS_NET_HTTP_H_
