// Runtime metrics: named counters, gauges and log2-bucket latency
// histograms behind one process-wide registry.
//
// Hot-path discipline: a Counter/Gauge/Histogram update is a handful of
// relaxed atomic operations — no locks, no allocation, no branches beyond
// the bucket index. The Registry itself is only locked on registration
// and snapshot, never on update. Counters are therefore safe to bump from
// the simulator's single thread and the TCP node threads alike, and safe
// to *read* concurrently from an admin thread
// (each read is an independent relaxed load; a snapshot is per-metric
// atomic, not a cross-metric transaction).
//
// Storage can live inside an existing struct (ReplicaStats, NetStats):
// the registry then *attaches* to those counters by pointer instead of
// owning them, so the protocol keeps exactly one copy of every number and
// the exposition layer (Prometheus text, NDJSON snapshots, bench rows)
// reads the same atomics the hot path writes.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace repro::obs {

/// Guarded quotient for derived means and rates: 0 when the denominator
/// is 0 (benches compute fallback_time/fallbacks_exited, frames/batches,
/// hit rates — all of which legitimately divide by zero on quiet runs).
inline double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Monotonic counter. Relaxed atomics: increments never synchronize, they
/// only count. Copyable (snapshot semantics) so stats structs holding
/// counters keep working with value copies and `operator-` deltas.
class Counter {
 public:
  constexpr Counter() = default;
  Counter(std::uint64_t v) : v_(v) {}
  Counter(const Counter& o) : v_(o.load()) {}
  Counter& operator=(const Counter& o) {
    store(o.load());
    return *this;
  }
  Counter& operator=(std::uint64_t v) {
    store(v);
    return *this;
  }

  void inc(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  Counter& operator++() {
    inc();
    return *this;
  }
  Counter& operator+=(std::uint64_t d) {
    inc(d);
    return *this;
  }

  std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }
  operator std::uint64_t() const { return load(); }

 private:
  void store(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::atomic<std::uint64_t> v_{0};
};

/// Settable instantaneous value (queue depths, current view, ...).
class Gauge {
 public:
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(static_cast<std::uint64_t>(d), std::memory_order_relaxed); }
  std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Fixed log2-bucket histogram for microsecond latencies.
///
/// Bucket 0 holds the value 0; bucket i (i >= 1) holds values v with
/// 2^(i-1) <= v < 2^i, i.e. bit_width(v) == i; the last bucket absorbs
/// everything larger. 40 buckets cover [0, 2^39) us ≈ 6.4 days — more
/// than any latency this system can produce. observe() is two relaxed
/// fetch_adds plus one on the bucket.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  static std::size_t bucket_index(std::uint64_t v) {
    if (v == 0) return 0;
    std::size_t bits = 0;
    while (v != 0) {
      v >>= 1;
      ++bits;
    }
    return bits < kBuckets ? bits : kBuckets - 1;
  }

  /// Inclusive upper bound of bucket `i` (the Prometheus `le` boundary);
  /// the last bucket is unbounded (+Inf).
  static std::uint64_t bucket_upper(std::size_t i) {
    return (std::uint64_t{1} << i) - 1;
  }

  void observe(std::uint64_t v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Label set rendered as `{k1="v1",k2="v2"}` in Prometheus text and as
/// top-level string fields in NDJSON.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Point-in-time reading of one metric.
struct Sample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  ///< counter / gauge reading
  // Histogram readings (kind == kHistogram only).
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};

/// A registry snapshot: per-metric atomic readings taken at one walk.
struct Snapshot {
  std::vector<Sample> samples;

  bool has(const std::string& name) const;
  /// Sum of `value` over every sample with this name (all label sets).
  std::uint64_t value(const std::string& name) const;
  const Sample* find(const std::string& name, const Labels& labels) const;

  /// Prometheus text exposition format (one `# TYPE` line per family).
  std::string prometheus() const;
  /// One flat JSON object per metric per line.
  std::string ndjson() const;
};

/// Named metrics: owned (created through counter()/gauge()/histogram())
/// or attached (storage owned elsewhere, e.g. ReplicaStats fields). The
/// (name, labels) pair identifies a metric; re-registering it replaces
/// the previous registration, which is what a replica restart wants.
class Registry {
 public:
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {});

  /// Attach an externally-owned counter. The storage must outlive the
  /// registry or be replaced (same name + labels) before it dies.
  void attach_counter(const std::string& name, Labels labels, const Counter* c);

  /// Attach a polled gauge. `fn` runs on the snapshotting thread — it
  /// must be safe there (read an atomic, or be called only while the
  /// system is quiescent, as the sim harness does).
  void attach_gauge_fn(const std::string& name, Labels labels,
                       std::function<std::uint64_t()> fn);

  /// Attach an externally-owned histogram (same lifetime contract as
  /// attach_counter: the storage must outlive the registry or be
  /// replaced under the same name + labels before it dies).
  void attach_histogram(const std::string& name, Labels labels, const Histogram* h);

  Snapshot snapshot() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> owned_counter;
    std::unique_ptr<Gauge> owned_gauge;
    std::unique_ptr<Histogram> owned_hist;
    const Counter* ext_counter = nullptr;
    const Histogram* ext_hist = nullptr;
    std::function<std::uint64_t()> gauge_fn;
  };

  Entry& upsert(const std::string& name, Labels labels, MetricKind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace repro::obs
