// Decode-once delivery memo: a multicast delivered to n replicas is parsed
// zero times, not n times — the decode-side twin of the zero-copy
// (refcounted) payload on the send side.
//
// The fallback's O(n²) message complexity means the data path dominates
// when the network goes bad: every replica would otherwise re-run
// `decode_message` on the one buffer its sender just encoded. A multicast
// sender already holds the decoded form, so it seeds the memo with the
// buffer it hands the network, the message those bytes encode and its
// own id as the envelope signer. Every delivery of that very buffer —
// every recipient of one simulator multicast, the TCP self-inbox — then
// finds the entry with a single probe by address. A hit returns a value
// equal to a fresh decode of the bytes (the codec is canonical:
// decode(encode(m)) == m), and says whether the delivery's sender is the
// seeding signer. Only then is the envelope signature known good: the
// signer produced it over exactly these bytes. A delivery of the buffer
// under any other sender pays the full check against the wire bytes.
//
// Only senders insert, with the message they encoded, so a malformed
// payload is never memoized: each one is parsed and rejected by its
// recipients. A point-to-point buffer is delivered once, so it is never
// seeded: its one recipient decodes and checks it directly.
//
// Block-id consistency rides along: decode_message rejects any block
// whose id does not bind its fields, and senders seed only messages that
// pass the same check (smr::blocks_id_consistent). A decoded block holds
// its payload as one shared immutable buffer and carries the record of
// the id hash Block::decode ran, so every copy a hit hands out shares the
// bytes and the check instead of duplicating or rehashing them.
//
// An entry holds a weak_ptr to its buffer, so it never keeps the bytes
// alive (at most their small control block). A buffer that died misses,
// even when a new buffer now lives at its address. Each buffer has its
// own entry, so byte-identical multicasts from two senders (coin-QC
// relays are unsigned) both hit. Bounded LRU. Shared by all replicas of
// one simulation (they observe the same broadcast buffers); per-node in
// the TCP transport (processes share nothing).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>

#include "smr/messages.h"

namespace repro::smr {

class DecodeCache {
 public:
  /// LRU entries. Bounded so a Byzantine flood of distinct valid messages
  /// cannot grow replica memory without limit.
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit DecodeCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Sender-side seeding: `buffer` holds the canonical encoding of `msg`,
  /// whose envelope signature (if its type has one) `signer` produced.
  void insert(const SharedBytes& buffer, Message msg, ReplicaId signer) {
    const Bytes* addr = buffer.get();
    if (auto it = index_.find(addr); it != index_.end()) {
      // A dead buffer's entry at a reused address.
      order_.erase(it->second);
      index_.erase(it);
    } else if (index_.size() >= capacity_) {
      index_.erase(order_.back().addr);
      order_.pop_back();
    }
    order_.push_front(Entry{addr, buffer, std::move(msg), signer});
    index_.emplace(addr, order_.begin());
  }

  /// A delivery of a seeded buffer: a copy of its message, and whether
  /// `sender` is the signer that seeded it.
  struct Hit {
    Message msg;
    bool sender_verified = false;
  };

  /// One probe by address: a hit if `payload` is a live seeded buffer
  /// whose entry is still held; nullopt otherwise — the caller decodes
  /// the bytes itself, as for any buffer that was never seeded.
  std::optional<Hit> decode_buffer(const Bytes& payload, ReplicaId sender) {
    auto it = index_.find(&payload);
    if (it == index_.end()) return std::nullopt;
    // Expired: the seeded buffer died and `payload` merely reuses its
    // address. A live one is `payload` itself — two live buffers cannot
    // share an address.
    if (it->second->buffer.expired()) {
      order_.erase(it->second);
      index_.erase(it);
      return std::nullopt;
    }
    order_.splice(order_.begin(), order_, it->second);
    const Entry& entry = *it->second;
    return Hit{entry.msg, entry.signer == sender};
  }

  std::size_t size() const { return index_.size(); }

 private:
  struct Entry {
    const Bytes* addr;
    std::weak_ptr<const Bytes> buffer;
    Message msg;
    ReplicaId signer;
  };

  std::size_t capacity_;
  /// Most-recently-used first.
  std::list<Entry> order_;
  std::unordered_map<const Bytes*, std::list<Entry>::iterator> index_;
};

}  // namespace repro::smr
