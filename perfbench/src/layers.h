// Outside-in per-layer tracing: wrappers around the public interfaces a
// replica is built from (core::IReplica, net::INetwork, sim::IExecutor,
// storage::Wal). Each wrapper forwards every call and, while recording is
// on, charges the call's cost to one LayerCounters block. Nothing inside
// the program is instrumented; the bench's client hooks run inside handler
// and timer calls, so their cost is part of those.
//
// Handler, timer and send costs are CPU time of the calling (node) thread,
// so they subtract cleanly from the node thread's CPU clock; WAL appends
// are timed on the wall clock (an append is a write the vote waits for).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/replica.h"
#include "net/network.h"
#include "sim/executor.h"
#include "storage/wal.h"

namespace perfbench {

/// Per-replica tallies. Written by the one thread that drives the replica,
/// read after that thread has stopped.
struct LayerCounters {
  /// The workload's recording switch: counters only move while it is set.
  /// Traced runs set it for the measured window; untraced runs never do,
  /// so their wrappers only add the planted busy-wait.
  const std::atomic<bool>* recording = nullptr;
  /// Busy-wait added to every handler call, nanoseconds of thread CPU
  /// (sensitivity check only).
  std::uint64_t plant_ns = 0;

  std::array<std::uint64_t, 16> handler_calls{};
  std::array<std::uint64_t, 16> handler_ns{};
  std::array<std::uint64_t, 16> handler_bytes{};
  std::uint64_t timer_calls = 0;
  std::uint64_t timer_ns = 0;
  std::uint64_t send_calls = 0;
  std::uint64_t send_ns = 0;
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_bytes = 0;
  std::vector<std::uint32_t> wal_append_ns;
  /// A few real payloads per message type, for the codec and envelope
  /// rungs of the ladder.
  std::array<std::vector<std::pair<repro::ReplicaId, repro::Bytes>>, 16> samples;
  static constexpr std::size_t kSamplesPerType = 8;

  bool on() const { return recording->load(std::memory_order_relaxed); }
  void capture(repro::ReplicaId from, const repro::Bytes& payload);

  /// One inbound message: runs the handler call `deliver` after the
  /// planted busy-wait and, while recording, charges both to the payload's
  /// type (thread CPU, count, bytes) and keeps the payload as a sample.
  template <typename Fn>
  void handle(repro::ReplicaId from, const repro::Bytes& payload, Fn&& deliver);
};

struct HandlerTally;

/// The per-layer metrics every workload derives the same way from its
/// wrapped replicas and the protocol's own counters: handler time per
/// message type, fallback, decode-cache, batch and share counters, the
/// ladder rungs and the accounting line. `delta(name)` is a registry
/// counter's growth over the window summed over replicas; `n` selects the
/// committee size whose rung costs the accounting line uses.
HandlerTally report_common_layers(const std::vector<const LayerCounters*>& counters,
                                  const std::function<double(const char*)>& delta,
                                  double blocks, double replicas, double seconds,
                                  const repro::crypto::CryptoSystem& crypto, std::uint32_t n,
                                  RunResult& result);

/// Message-type tag of a payload (its first byte), 0 when out of range.
inline int msg_tag(const repro::Bytes& payload) {
  return payload.empty() || payload[0] > kNumMsgTypes ? 0 : payload[0];
}

/// Spin until `ns` nanoseconds of this thread's CPU time have passed.
void burn_cpu_ns(std::uint64_t ns);

template <typename Fn>
void LayerCounters::handle(repro::ReplicaId from, const repro::Bytes& payload, Fn&& deliver) {
  if (!on()) {
    if (plant_ns > 0) burn_cpu_ns(plant_ns);
    deliver();
    return;
  }
  const int tag = msg_tag(payload);
  const std::int64_t t0 = thread_cpu_ns();
  if (plant_ns > 0) burn_cpu_ns(plant_ns);
  deliver();
  handler_ns[tag] += static_cast<std::uint64_t>(thread_cpu_ns() - t0);
  ++handler_calls[tag];
  handler_bytes[tag] += payload.size();
  capture(from, payload);
}

class TracedReplica final : public repro::core::IReplica {
 public:
  TracedReplica(std::unique_ptr<repro::core::IReplica> inner, LayerCounters* counters)
      : inner_(std::move(inner)), c_(counters) {}

  void start() override { inner_->start(); }
  void on_message(repro::ReplicaId from, const repro::Bytes& payload) override;
  void on_message_keyed(repro::ReplicaId from, const repro::Bytes& payload,
                        const repro::crypto::Digest& key) override;
  void on_message_uncached(repro::ReplicaId from, const repro::Bytes& payload) override;
  void halt() override { inner_->halt(); }
  void set_fault(const repro::core::FaultSpec& fault) override { inner_->set_fault(fault); }
  repro::ReplicaId id() const override { return inner_->id(); }
  const repro::smr::Ledger& ledger() const override { return inner_->ledger(); }
  repro::smr::Ledger& ledger() override { return inner_->ledger(); }
  repro::Round current_round() const override { return inner_->current_round(); }
  repro::View current_view() const override { return inner_->current_view(); }
  bool in_fallback() const override { return inner_->in_fallback(); }
  const repro::core::ReplicaStats& stats() const override { return inner_->stats(); }
  std::size_t share_pool_bytes() const override { return inner_->share_pool_bytes(); }

 private:
  std::unique_ptr<repro::core::IReplica> inner_;
  LayerCounters* c_;
};

class TracedNetwork final : public repro::net::INetwork {
 public:
  TracedNetwork(repro::net::INetwork* inner, LayerCounters* counters)
      : inner_(inner), c_(counters) {}

  using INetwork::multicast;
  using INetwork::send;
  void send(repro::ReplicaId from, repro::ReplicaId to, repro::SharedBytes payload) override;
  void multicast(repro::ReplicaId from, repro::SharedBytes payload) override;

 private:
  repro::net::INetwork* inner_;
  LayerCounters* c_;
};

class TracedExecutor final : public repro::sim::IExecutor {
 public:
  TracedExecutor(repro::sim::IExecutor* inner, LayerCounters* counters)
      : inner_(inner), c_(counters) {}

  repro::SimTime now() const override { return inner_->now(); }
  repro::sim::EventId schedule_at(repro::SimTime t, std::function<void()> cb) override;
  void cancel(repro::sim::EventId id) override { inner_->cancel(id); }

 private:
  repro::sim::IExecutor* inner_;
  LayerCounters* c_;
};

class TracedWal final : public repro::storage::Wal {
 public:
  TracedWal(repro::storage::Wal* inner, LayerCounters* counters)
      : inner_(inner), c_(counters) {}

  void append(repro::BytesView record) override;
  std::vector<repro::Bytes> replay() const override { return inner_->replay(); }
  std::size_t record_count() const override { return inner_->record_count(); }

 private:
  repro::storage::Wal* inner_;
  LayerCounters* c_;
};

}  // namespace perfbench
