// Shared pieces of the bench program: command-line options, the metric
// set printed at the end of a run, clocks, and the workload entry points.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Sensitivity check: busy-wait this many nanoseconds inside every
  /// replica handler call (0 = off). Not used by the recorded runs.
  std::uint64_t plant_ns = 0;
  /// Headroom check: multiply the workload's offered rate by this factor.
  /// Not used by the recorded runs.
  double rate_scale = 1.0;
  /// Working directory for WAL files (inside the checkout).
  std::string work_dir = ".bench_build/run";
};

/// A metric value with its unit, in the order it was added.
struct Metric {
  double value = 0;
  std::string unit;
};

class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& [n, m] : entries_) {
      if (n == name) {
        m = Metric{value, unit};
        return;
      }
    }
    entries_.emplace_back(name, Metric{value, unit});
  }
  const Metric* find(const std::string& name) const {
    for (const auto& [n, m] : entries_) {
      if (n == name) return &m;
    }
    return nullptr;
  }
  const std::vector<std::pair<std::string, Metric>>& entries() const { return entries_; }

 private:
  std::vector<std::pair<std::string, Metric>> entries_;
};

/// What one workload run hands back to main(): end-to-end metrics (always),
/// per-layer metrics (traced runs), the transaction tally and every failed
/// correctness check.
struct RunResult {
  MetricSet end_to_end;
  MetricSet layers;
  std::uint64_t attempted = 0;  ///< transactions due in the measured window
  std::uint64_t failed = 0;     ///< of those, unconfirmed after the drain
  std::uint64_t latency_samples = 0;
  std::vector<std::string> check_failures;
  /// Human-readable lines printed before the result (stderr).
  std::vector<std::string> notes;

  void fail(std::string what) { check_failures.push_back(std::move(what)); }
};

// ---- clocks and statistics -------------------------------------------------

/// Monotonic wall clock, microseconds.
std::int64_t mono_us();
/// Monotonic wall clock, nanoseconds.
std::int64_t mono_ns();
/// CPU time of the calling thread, nanoseconds.
std::int64_t thread_cpu_ns();
/// User + system CPU time of the whole process, microseconds.
std::int64_t process_cpu_us();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// Quantile q in [0,1] by the nearest-rank rule; 0 for an empty input.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// num / den, 0 when den is 0.
inline double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }
/// Element-wise num[i] / den[i], skipping entries whose den is 0.
std::vector<double> ratios(const std::vector<double>& num, const std::vector<double>& den);

/// `count` loopback ports nobody is listening on right now (exits the
/// process if the kernel hands out none).
std::vector<std::uint16_t> free_loopback_ports(std::size_t count);

/// The fifteen smr::MsgType tags in snake_case, indexed by tag (0 unused).
extern const char* const kMsgTypeNames[16];
inline constexpr int kNumMsgTypes = 15;

// ---- workloads ---------------------------------------------------------------

enum class TcpMode { kSteady, kLeaderCrash, kAsyncStorm };

RunResult run_tcp_workload(TcpMode mode, const Options& opt);
RunResult run_sim_workload(const Options& opt);

}  // namespace perfbench
