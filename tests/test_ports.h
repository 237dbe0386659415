// Listen ports for tests that open real sockets, taken from the kernel so
// that test processes running in parallel (ctest -j) never pick the same
// port, and no test picks one another program holds.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace repro {

/// `count` distinct localhost ports that were free a moment ago: each one
/// comes from bind(port 0) + getsockname. Every socket stays bound until
/// all ports are chosen, so the kernel hands out no port twice; they are
/// closed on return, so a node can bind its port right after.
inline std::vector<std::uint16_t> kernel_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    REPRO_ASSERT(fd >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    REPRO_ASSERT(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0);
    socklen_t len = sizeof(addr);
    REPRO_ASSERT(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  return ports;
}

}  // namespace repro
