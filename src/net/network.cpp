#include "net/network.h"

#include "common/assert.h"

namespace repro::net {

Network::Network(sim::Simulation& sim, std::uint32_t n, std::unique_ptr<DelayModel> model,
                 Rng rng)
    : sim_(sim), model_(std::move(model)), rng_(std::move(rng)), handlers_(n) {
  REPRO_ASSERT(model_ != nullptr);
}

void Network::register_handler(ReplicaId id, Handler handler) {
  REPRO_ASSERT(id < handlers_.size());
  handlers_[id] = std::move(handler);
}

void Network::deliver_after(SimTime delay, ReplicaId from, ReplicaId to,
                            SharedBytes payload) {
  // The slot holds a reference to the one serialized buffer; a multicast
  // in flight to n-1 peers costs one allocation total.
  const std::uint32_t slot = in_flight_.acquire();
  in_flight_[slot] = InFlight{from, to, std::move(payload)};
  sim_.schedule_after(delay, [this, slot] { deliver(slot); });
}

void Network::deliver(std::uint32_t slot) {
  // Empty the slot before the handler runs: it may send, reusing the slot
  // or growing the slab under any reference into it.
  const InFlight m = std::move(in_flight_[slot]);
  in_flight_.release(slot);
  // delivered() is a processing metric: count only payloads that actually
  // reach a handler, so drain checks don't see phantom deliveries for
  // replicas that were never registered.
  if (handlers_[m.to]) {
    ++delivered_;
    handlers_[m.to](m.from, *m.payload);
  }
}

void Network::send(ReplicaId from, ReplicaId to, SharedBytes payload) {
  REPRO_ASSERT(from < handlers_.size() && to < handlers_.size());
  REPRO_ASSERT(payload != nullptr);
  if (from == to) {
    // Free per the accounting policy (see NetStats), but tallied so the
    // exclusion shows up in dumps instead of silently undercounting.
    stats_.self_messages += 1;
    stats_.self_bytes += payload->size();
    deliver_after(0, from, to, std::move(payload));
    return;
  }
  stats_.messages += 1;
  stats_.bytes += payload->size();
  if (!payload->empty()) {
    const std::uint8_t tag = (*payload)[0];
    if (tag < stats_.messages_by_type.size()) {
      stats_.messages_by_type[tag] += 1;
      stats_.bytes_by_type[tag] += payload->size();
    }
  }
  const MessageContext ctx{from, to, payload->size(), sim_.now()};
  const SimTime d = model_->delay(ctx, rng_);
  deliver_after(d, from, to, std::move(payload));
}

void Network::multicast(ReplicaId from, SharedBytes payload) {
  stats_.multicasts += 1;
  // Every recipient beyond the first shares `payload` instead of getting
  // its own deep copy (what the pre-refcount data path did).
  if (handlers_.size() > 1) stats_.payload_copies_avoided += handlers_.size() - 1;
  for (ReplicaId to = 0; to < handlers_.size(); ++to) {
    send(from, to, payload);
  }
}

}  // namespace repro::net
