#include "obs/admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/log.h"

namespace repro::obs {
namespace {

void send_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

const char* reason_phrase(int code) {
  switch (code) {
    case 200: return " OK";
    case 400: return " Bad Request";
    case 503: return " Service Unavailable";
    default: return " Not Found";
  }
}

void respond(int fd, int code, const char* content_type, const std::string& body) {
  std::string head = "HTTP/1.0 " + std::to_string(code) + reason_phrase(code) +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  send_all(fd, head.data(), head.size());
  send_all(fd, body.data(), body.size());
}

}  // namespace

AdminServer::AdminServer(std::uint16_t port, Options options)
    : opts_(std::move(options)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    LOG_WARN("admin: failed to bind 127.0.0.1:%u (%s)", unsigned(port),
             std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread([this] { serve_loop(); });
  LOG_INFO("admin: serving /metrics /trace /healthz /dump on 127.0.0.1:%u",
           unsigned(port_));
}

AdminServer::~AdminServer() {
  stop_.store(true, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    // shutdown() wakes the blocking accept; close() reclaims the fd.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (thread_.joinable()) thread_.join();
}

void AdminServer::serve_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stop_.load(std::memory_order_relaxed)) break;
      continue;
    }
    handle_client(fd);
    ::close(fd);
  }
}

void AdminServer::handle_client(int fd) {
  char buf[1024];
  const ssize_t n = ::recv(fd, buf, sizeof buf - 1, 0);
  if (n <= 0) return;
  buf[n] = '\0';
  // "GET <path> HTTP/1.x" — only the path matters. A request line that
  // does not fit the read buffer, or whose first line has no space after
  // the path, is rejected rather than guessed at.
  std::string req(buf, static_cast<std::size_t>(n));
  std::string path;
  bool malformed = true;
  if (req.rfind("GET ", 0) == 0) {
    const std::size_t line_end = req.find_first_of("\r\n");
    const std::size_t end = req.find(' ', 4);
    if (end != std::string::npos && (line_end == std::string::npos || end < line_end)) {
      path = req.substr(4, end - 4);
      malformed = path.empty() || path[0] != '/';
    }
  }
  if (static_cast<std::size_t>(n) == sizeof buf - 1 &&
      req.find("\r\n") == std::string::npos && req.find('\n') == std::string::npos) {
    malformed = true;  // oversized request line, truncated mid-way
  }
  if (malformed) {
    respond(fd, 400, "text/plain", "bad request\n");
    return;
  }
  if (path == "/healthz") {
    if (opts_.health_fn) {
      const auto [code, body] = opts_.health_fn();
      respond(fd, code, "text/plain", body);
    } else {
      respond(fd, 200, "text/plain", "ok\n");
    }
  } else if (path == "/metrics" && opts_.registry != nullptr) {
    respond(fd, 200, "text/plain; version=0.0.4", opts_.registry->snapshot().prometheus());
  } else if (path == "/trace" && opts_.trace != nullptr) {
    // Meta line first so tracecat can report ring drops per replica even
    // when the retained window itself is gappy.
    TraceMeta meta;
    meta.replica = opts_.replica;
    meta.dropped = opts_.trace->dropped();
    meta.recorded = opts_.trace->recorded();
    respond(fd, 200, "application/x-ndjson",
            trace_meta_line(meta) + to_ndjson(opts_.trace->events()));
  } else if (path == "/dump" && opts_.dump_fn) {
    const std::string bundle = opts_.dump_fn();
    if (bundle.empty()) {
      respond(fd, 503, "text/plain", "dump failed\n");
    } else {
      respond(fd, 200, "text/plain", bundle + "\n");
    }
  } else {
    respond(fd, 404, "text/plain", "not found\n");
  }
}

}  // namespace repro::obs
