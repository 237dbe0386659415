// Simulated reliable authenticated all-to-all network.
//
// Point-to-point channels between n replicas, delays chosen per message by
// a DelayModel (the adversary). Channels never drop or corrupt messages
// and sender identity is authenticated (the paper's model); Byzantine
// *content* is produced by faulty replica behaviours, not by the network.
//
// Exact accounting: every payload is a serialized byte string, and the
// stats ledger records message and byte counts (total, per message-type
// tag, and in time windows) — the communication-complexity benchmarks read
// these counters.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/slot_pool.h"
#include "common/types.h"
#include "net/delay_model.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace repro::net {

/// Cumulative traffic counters.
///
/// Accounting policy (explicit — the complexity benches depend on it):
///  * `messages` / `bytes` / `*_by_type` count **network** messages only.
///    Self-delivery (a replica processing its own multicast) is free and
///    excluded, matching how the literature counts communication
///    complexity — a multicast from one of n replicas is n-1 messages.
///  * Self-deliveries are tallied separately in `self_messages` /
///    `self_bytes`, so the exclusion is visible rather than silent.
///  * `Network::delivered()` counts handler invocations (self-deliveries
///    included, undeliverable payloads excluded) — a processing metric
///    for drain/quiescence checks, not a traffic metric.
struct NetStats {
  obs::Counter messages;
  obs::Counter bytes;
  /// Self-deliveries, excluded from `messages`/`bytes` per the policy.
  obs::Counter self_messages;
  obs::Counter self_bytes;
  /// Indexed by the message-type tag (first byte of the payload).
  std::array<obs::Counter, 32> messages_by_type{};
  std::array<obs::Counter, 32> bytes_by_type{};

  /// Data-path counters (zero-copy multicast + batched writes). These are
  /// efficiency metrics, not traffic metrics: they never feed the
  /// communication-complexity benches.
  /// multicast() invocations.
  obs::Counter multicasts;
  /// Payload buffers that were *shared* instead of deep-copied: for each
  /// multicast, every recipient beyond the first reuses the one
  /// serialized buffer (n recipients -> n-1 copies avoided).
  obs::Counter payload_copies_avoided;
  /// TCP transport only: writev() syscalls that made progress, frames
  /// fully flushed through them, and bytes written. Mean frames per batch
  /// = writev_frames / writev_batches.
  obs::Counter writev_batches;
  obs::Counter writev_frames;
  obs::Counter writev_bytes;
  /// TCP transport only: frames rejected by the bounded per-peer send
  /// queue (backpressure drop policy; the protocol's timeout/fallback
  /// machinery recovers, exactly as for frames racing a connection drop).
  obs::Counter sendq_dropped_frames;
  obs::Counter sendq_dropped_bytes;

  NetStats operator-(const NetStats& o) const {
    NetStats d;
    d.messages = messages - o.messages;
    d.bytes = bytes - o.bytes;
    d.self_messages = self_messages - o.self_messages;
    d.self_bytes = self_bytes - o.self_bytes;
    for (std::size_t i = 0; i < messages_by_type.size(); ++i) {
      d.messages_by_type[i] = messages_by_type[i] - o.messages_by_type[i];
      d.bytes_by_type[i] = bytes_by_type[i] - o.bytes_by_type[i];
    }
    d.multicasts = multicasts - o.multicasts;
    d.payload_copies_avoided = payload_copies_avoided - o.payload_copies_avoided;
    d.writev_batches = writev_batches - o.writev_batches;
    d.writev_frames = writev_frames - o.writev_frames;
    d.writev_bytes = writev_bytes - o.writev_bytes;
    d.sendq_dropped_frames = sendq_dropped_frames - o.sendq_dropped_frames;
    d.sendq_dropped_bytes = sendq_dropped_bytes - o.sendq_dropped_bytes;
    return d;
  }
};

/// Walk every scalar NetStats counter with its stable metric name (the
/// by-type arrays are registered separately, one label per type tag).
template <typename Fn>
void for_each_counter(const NetStats& s, Fn&& fn) {
  fn("repro_net_messages_total", &s.messages);
  fn("repro_net_bytes_total", &s.bytes);
  fn("repro_net_self_messages_total", &s.self_messages);
  fn("repro_net_self_bytes_total", &s.self_bytes);
  fn("repro_net_multicasts_total", &s.multicasts);
  fn("repro_net_payload_copies_avoided_total", &s.payload_copies_avoided);
  fn("repro_net_writev_batches_total", &s.writev_batches);
  fn("repro_net_writev_frames_total", &s.writev_frames);
  fn("repro_net_writev_bytes_total", &s.writev_bytes);
  fn("repro_net_sendq_dropped_frames_total", &s.sendq_dropped_frames);
  fn("repro_net_sendq_dropped_bytes_total", &s.sendq_dropped_bytes);
}

/// Attach every NetStats counter to `reg`; by-type tallies get a
/// type="<tag>" label. Storage stays inside `s` — no duplication.
inline void register_net_stats(obs::Registry& reg, const NetStats& s) {
  for_each_counter(s, [&](const char* name, const obs::Counter* c) {
    reg.attach_counter(name, {}, c);
  });
  for (std::size_t i = 0; i < s.messages_by_type.size(); ++i) {
    const obs::Labels labels{{"type", std::to_string(i)}};
    reg.attach_counter("repro_net_messages_by_type_total", labels,
                       &s.messages_by_type[i]);
    reg.attach_counter("repro_net_bytes_by_type_total", labels,
                       &s.bytes_by_type[i]);
  }
}

/// What protocol code needs from a network: point-to-point send and
/// multicast. The simulated Network below implements it for experiments;
/// transport::TcpNetwork implements it over real sockets.
class INetwork {
 public:
  virtual ~INetwork() = default;

  /// Send one message (reliable, authenticated-sender channel). The
  /// payload is a refcounted immutable buffer: implementations share it
  /// between the delivery queue / socket writes instead of copying.
  virtual void send(ReplicaId from, ReplicaId to, SharedBytes payload) = 0;

  /// Send to all n replicas including the sender (the paper's
  /// "multicast"). One serialized buffer serves every recipient.
  virtual void multicast(ReplicaId from, SharedBytes payload) = 0;

  // Convenience wrappers for callers holding a plain buffer.
  void send(ReplicaId from, ReplicaId to, Bytes payload) {
    send(from, to, make_shared_bytes(std::move(payload)));
  }
  void multicast(ReplicaId from, Bytes payload) {
    multicast(from, make_shared_bytes(std::move(payload)));
  }
};

class Network final : public INetwork {
 public:
  /// Handler invoked on delivery: (from, payload).
  using Handler = std::function<void(ReplicaId from, const Bytes& payload)>;

  Network(sim::Simulation& sim, std::uint32_t n, std::unique_ptr<DelayModel> model,
          Rng rng);

  std::uint32_t n() const { return static_cast<std::uint32_t>(handlers_.size()); }

  /// Install the delivery handler for a replica. Must be set before any
  /// message addressed to it is delivered.
  void register_handler(ReplicaId id, Handler handler);

  using INetwork::multicast;
  using INetwork::send;

  /// Send one message. Self-sends are delivered at the current time with
  /// zero network cost.
  void send(ReplicaId from, ReplicaId to, SharedBytes payload) override;

  /// Counts n-1 network messages (self-delivery is free). All n
  /// deliveries share `payload` — zero per-recipient copies.
  void multicast(ReplicaId from, SharedBytes payload) override;

  const NetStats& stats() const { return stats_; }

  /// Swap the delay model mid-run (some experiments flip the network from
  /// good to bad explicitly rather than via SwitchingModel).
  void set_delay_model(std::unique_ptr<DelayModel> model) { model_ = std::move(model); }
  DelayModel& delay_model() { return *model_; }

  /// Total messages delivered so far (for drain/quiescence checks).
  std::uint64_t delivered() const { return delivered_; }

 private:
  /// A message in flight. The scheduled delivery event captures only
  /// (this, slot), which fits std::function's inline buffer: no closure
  /// allocation per message.
  struct InFlight {
    ReplicaId from = 0;
    ReplicaId to = 0;
    SharedBytes payload;
  };

  void deliver_after(SimTime delay, ReplicaId from, ReplicaId to, SharedBytes payload);
  void deliver(std::uint32_t slot);

  sim::Simulation& sim_;
  std::unique_ptr<DelayModel> model_;
  Rng rng_;
  std::vector<Handler> handlers_;
  NetStats stats_;
  std::uint64_t delivered_ = 0;
  /// Messages in flight, by the slot their delivery event captures.
  SlotPool<InFlight> in_flight_;
};

}  // namespace repro::net
