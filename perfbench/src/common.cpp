#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "bench.h"

namespace perfbench {

const char* const kMsgTypeNames[16] = {
    "none",        "proposal",   "vote",         "diem_timeout",   "diem_tc",  "fb_timeout",
    "fb_proposal", "fb_vote",    "fb_qc",        "coin_share",     "coin_qc",  "block_request",
    "block_response", "batch",   "batch_pull",   "batch_push",
};

namespace {
std::int64_t read_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t mono_ns() { return read_ns(CLOCK_MONOTONIC); }
std::int64_t mono_us() { return mono_ns() / 1000; }
std::int64_t thread_cpu_ns() { return read_ns(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (std::int64_t(ru.ru_utime.tv_sec) + ru.ru_stime.tv_sec) * 1'000'000 +
         ru.ru_utime.tv_usec + ru.ru_stime.tv_usec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

std::vector<double> ratios(const std::vector<double>& num, const std::vector<double>& den) {
  std::vector<double> out;
  for (std::size_t i = 0; i < std::min(num.size(), den.size()); ++i) {
    if (den[i] != 0) out.push_back(num[i] / den[i]);
  }
  return out;
}

std::vector<std::uint16_t> free_loopback_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      std::fprintf(stderr, "perfbench: cannot allocate a loopback port\n");
      std::exit(3);
    }
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  // All held open together, so the ports are distinct; released for the
  // nodes to bind.
  for (int fd : fds) ::close(fd);
  return ports;
}

}  // namespace perfbench
