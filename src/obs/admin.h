// Minimal local admin endpoint for real-time nodes: serves the metrics
// registry in Prometheus text format and the event ring as NDJSON over
// plain HTTP/1.0 on a loopback TCP port. One blocking accept thread, one
// request per connection — diagnostics plumbing, not a web server.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace repro::obs {

class AdminServer {
 public:
  /// Data sources and hooks, all optional. Absent sources make their
  /// route return 404; an absent health_fn makes /healthz a plain 200.
  struct Options {
    const Registry* registry = nullptr;
    std::shared_ptr<const TraceRing> trace;
    /// Replica id stamped into the /trace meta header line.
    ReplicaId replica = 0;
    /// Liveness probe: returns {http status, body}. Implementations
    /// report last-commit age and current view/round, and return 503
    /// once the stall watchdog has tripped.
    std::function<std::pair<int, std::string>()> health_fn;
    /// Forensics hook: GET /dump triggers a flight-recorder bundle and
    /// returns the bundle path (empty string = dump failed -> 503).
    std::function<std::string()> dump_fn;
  };

  /// Binds 127.0.0.1:`port` (port 0 lets the kernel pick; see port()).
  /// Routes: GET /metrics (Prometheus), GET /trace (NDJSON, meta header
  /// line first), GET /healthz (liveness),
  /// GET /dump (forensics bundle). Oversized or malformed request lines
  /// get 400.
  AdminServer(std::uint16_t port, Options options);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  bool running() const { return listen_fd_ >= 0; }
  std::uint16_t port() const { return port_; }

 private:
  void serve_loop();
  void handle_client(int fd);

  Options opts_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace repro::obs
