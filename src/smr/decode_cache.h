// Decode-once delivery cache: content-keyed memo of decoded wire
// messages, so a multicast delivered to n replicas is parsed once, not n
// times — the decode-side twin of the zero-copy (refcounted) payload on
// the send side.
//
// The fallback's O(n²) message complexity means the data path dominates
// when the network goes bad: every replica used to re-run
// `decode_message` on byte-identical payloads that n-1 peers (or its own
// multicast loopback) already decoded. Entries are keyed by the SHA-256
// of the exact payload bytes and hold the message those bytes encode, so
// a hit returns a value equal to a fresh decode of them (the codec is
// canonical: decode(encode(m)) == m). Only senders insert, with the
// message they encoded, so a malformed payload is never cached: each one
// is parsed and rejected by its recipients.
//
// Only multicast buffers are seeded. A multicast sender pre-populates the
// cache at encode time (it holds the decoded form already), which makes
// the n deliveries of that one buffer — its own loopback included — free
// of the encode → decode round trip. It also records itself as a
// verified envelope signer: signature verification is a deterministic
// pure function of (sender, payload bytes), so a per-entry memo of
// senders whose envelope signature over these exact bytes checked out is
// as strong as re-verifying — a replayed payload from a *different*
// sender is not in the memo and pays the full check (and fails). A
// point-to-point buffer can only ever be delivered once, so it is never
// hashed or seeded: its one recipient decodes and checks it directly.
//
// Block-id consistency rides along: decode_message rejects any block
// whose id does not bind its fields, so a cached entry stands for a
// checked one, and senders seed the cache only with messages that pass
// the same check (smr::blocks_id_consistent). A decoded block holds its
// payload as one shared immutable buffer and carries the record of the
// id hash Block::decode ran, so every copy a hit hands out shares the
// bytes and the check instead of duplicating or rehashing them.
//
// A seeding sender also remembers which buffer holds those bytes.
// Deliveries of that very buffer — every recipient of one simulator
// multicast, the TCP self-inbox — then find the entry by address with a
// single probe (decode_buffer), which also answers whether the sender's
// signature is known good, instead of re-hashing the payload. The memo
// holds a weak_ptr, so it never keeps a buffer's bytes alive (at most its
// small control block, one per entry); an expired or unknown buffer
// misses, and evicting the entry drops its buffer mapping.
//
// Bounded LRU. Shared by all replicas of one simulation (they observe
// the same broadcast bytes); per-node in the TCP transport (processes
// share nothing).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/sha256.h"
#include "smr/messages.h"

namespace repro::smr {

class DecodeCache {
 public:
  /// LRU entries. Bounded so a Byzantine flood of distinct valid messages
  /// cannot grow replica memory without limit.
  static constexpr std::size_t kDefaultCapacity = 1024;

  /// hits counts deliveries served from the cache by remembered buffer.
  /// A decode_buffer miss is not counted: the caller parses those bytes
  /// outside the cache.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  explicit DecodeCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Content key: hash of the exact payload bytes.
  static crypto::Digest key_of(BytesView payload) { return crypto::sha256(payload); }

  /// Sender-side pre-population: `msg`'s canonical encoding hashes to
  /// `key`, and `signer` produced (hence trivially verifies) the envelope
  /// signature inside it.
  void insert(const crypto::Digest& key, Message msg, ReplicaId signer) {
    if (auto it = index_.find(key); it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      note_sender_verified(key, signer);
      return;
    }
    insert_entry(key, Entry{std::move(msg), {signer}});
  }

  /// Record a successful envelope-signature verification. No-op if the
  /// entry was evicted in the meantime. Failures must never be recorded.
  void note_sender_verified(const crypto::Digest& key, ReplicaId sender) {
    auto it = index_.find(key);
    if (it == index_.end()) return;
    Entry& entry = it->second->second;
    if (!entry.has_verified(sender)) entry.verified_senders.push_back(sender);
  }

  /// Remember that `buffer` holds the bytes whose content key is `key`.
  /// Precondition: key == key_of(*buffer). No-op unless `key` has an
  /// entry; an entry remembers at most one buffer (the latest).
  void remember_buffer(const SharedBytes& buffer, const crypto::Digest& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return;
    Entry& entry = it->second->second;
    if (entry.buffer != nullptr) unmap_buffer(entry.buffer);
    unmap_buffer(buffer.get());  // a dead buffer that lived at this address
    buffers_.emplace(buffer.get(), BufferRef{buffer, it->second});
    entry.buffer = buffer.get();
  }

  /// A delivery of a remembered buffer: a copy of the cached message, its
  /// content key, and whether `sender`'s envelope signature over these
  /// bytes is already known good.
  struct BufferHit {
    Message msg;
    crypto::Digest key;
    bool sender_verified = false;
  };

  /// One probe by address: a hit (counted) if `payload` is a live buffer
  /// passed to remember_buffer whose entry is still cached; nullopt
  /// otherwise, with nothing counted — the caller decodes the bytes
  /// itself, as for any buffer the cache was never told about.
  std::optional<BufferHit> decode_buffer(const Bytes& payload, ReplicaId sender) {
    auto pos = live_buffer(payload);
    if (!pos) return std::nullopt;
    ++stats_.hits;
    order_.splice(order_.begin(), order_, *pos);
    const auto& [key, entry] = **pos;
    return BufferHit{entry.msg, key, entry.has_verified(sender)};
  }

  std::size_t size() const { return index_.size(); }
  std::size_t buffer_count() const { return buffers_.size(); }
  std::size_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    Message msg;
    /// Senders whose envelope signature over these bytes verified. Tiny
    /// in practice: a payload has one legitimate signer.
    std::vector<ReplicaId> verified_senders;
    /// The buffer remember_buffer mapped to this key, if any.
    const Bytes* buffer = nullptr;

    bool has_verified(ReplicaId sender) const {
      for (ReplicaId id : verified_senders) {
        if (id == sender) return true;
      }
      return false;
    }
  };

  using Order = std::list<std::pair<crypto::Digest, Entry>>;

  struct BufferRef {
    std::weak_ptr<const Bytes> buffer;
    Order::iterator entry;
  };

  struct DigestHash {
    std::size_t operator()(const crypto::Digest& d) const {
      return static_cast<std::size_t>(crypto::digest_prefix_u64(d));
    }
  };

  /// The entry of the remembered buffer `payload`, if it is still live.
  std::optional<Order::iterator> live_buffer(const Bytes& payload) {
    auto it = buffers_.find(&payload);
    if (it == buffers_.end()) return std::nullopt;
    // Expired: the remembered buffer died and `payload` merely reuses its
    // address. A live one is `payload` itself — two live buffers cannot
    // share an address.
    if (it->second.buffer.expired()) {
      unmap_buffer(&payload);
      return std::nullopt;
    }
    return it->second.entry;
  }

  /// Drop the mapping for `addr` and its entry's back-pointer.
  void unmap_buffer(const Bytes* addr) {
    auto it = buffers_.find(addr);
    if (it == buffers_.end()) return;
    it->second.entry->second.buffer = nullptr;
    buffers_.erase(it);
  }

  void insert_entry(const crypto::Digest& key, Entry entry) {
    if (index_.size() >= capacity_) {
      if (order_.back().second.buffer != nullptr) buffers_.erase(order_.back().second.buffer);
      index_.erase(order_.back().first);
      order_.pop_back();
      ++stats_.evictions;
    }
    order_.emplace_front(key, std::move(entry));
    index_.emplace(key, order_.begin());
    ++stats_.insertions;
  }

  std::size_t capacity_;
  /// Most-recently-used first.
  Order order_;
  std::unordered_map<crypto::Digest, Order::iterator, DigestHash> index_;
  /// Buffer address -> its entry; one mapping per entry at most.
  std::unordered_map<const Bytes*, BufferRef> buffers_;
  Stats stats_;
};

}  // namespace repro::smr
