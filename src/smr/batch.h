// Content-addressed transaction batches for out-of-band dissemination.
//
// The pipelined proposal path (DESIGN.md §12) separates payload
// dissemination from consensus ordering: the upcoming leader seals its
// mempool batch into a Batch — identified by the SHA-256 of its bytes —
// and multicasts it while still waiting for the previous round's QC. The
// proposal that follows carries only the 32-byte id (Block payload_kind
// kBatchRefPayload); replicas resolve it from their BatchStore, or pull
// it on a miss. Content addressing makes the store unforgeable: data is
// only ever filed under its own hash, so a Byzantine announcement can
// waste cache bytes but can never make a digest resolve to wrong bytes.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace repro::smr {

using BatchId = crypto::Digest;

/// A sealed transaction batch: opaque bytes plus their content address.
struct Batch {
  BatchId id{};
  Bytes data;

  static BatchId compute_id(BytesView data) {
    return crypto::sha256_tagged("repro/batch", data);
  }

  static Batch seal(Bytes data) {
    Batch b;
    b.id = compute_id(data);
    b.data = std::move(data);
    return b;
  }
};

/// Byte-bounded LRU cache of sealed batches, one per replica. Bounded by
/// payload bytes (not entry count) because batch sizes span 0 bytes to
/// megabytes under adaptive sizing; the bound is what keeps a flood of
/// announcements from growing replica memory. Entries are only ever
/// stored under the hash of their own bytes (see put()).
class BatchStore {
 public:
  /// A replica's bound: a safety limit against announcement floods, far
  /// above any honest working set.
  static constexpr std::size_t kDefaultMaxBytes = 64u << 20;

  explicit BatchStore(std::size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes == 0 ? 1 : max_bytes) {}

  /// Store `data` under the hash the caller computed from it (callers
  /// MUST pass id == Batch::compute_id(data); the receive paths hash the
  /// wire bytes before calling). Returns false if already present or if
  /// the batch alone exceeds the bound. Evicts least-recently-used
  /// entries until the new batch fits.
  bool put(const BatchId& id, Bytes data) {
    if (index_.count(id) != 0) return false;
    const std::size_t sz = entry_bytes(data);
    if (sz > max_bytes_) return false;
    while (bytes_ + sz > max_bytes_ && !order_.empty()) {
      const auto& victim = order_.back();
      bytes_ -= entry_bytes(victim.second);
      index_.erase(victim.first);
      order_.pop_back();
      ++evictions_;
    }
    order_.emplace_front(id, std::move(data));
    index_.emplace(id, order_.begin());
    bytes_ += sz;
    return true;
  }

  /// The batch bytes for `id`, or nullptr. Touches the LRU order.
  const Bytes* get(const BatchId& id) {
    auto it = index_.find(id);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  bool contains(const BatchId& id) const { return index_.count(id) != 0; }

  std::size_t size() const { return index_.size(); }
  std::size_t bytes() const { return bytes_; }
  std::size_t max_bytes() const { return max_bytes_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  /// Accounted cost of one entry: payload plus the 32-byte id, so even
  /// empty batches have nonzero weight and the entry count stays bounded.
  static std::size_t entry_bytes(const Bytes& data) { return data.size() + 32; }

  struct IdHash {
    std::size_t operator()(const BatchId& d) const {
      return static_cast<std::size_t>(crypto::digest_prefix_u64(d));
    }
  };

  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::list<std::pair<BatchId, Bytes>> order_;  ///< front = most recent
  std::unordered_map<BatchId, std::list<std::pair<BatchId, Bytes>>::iterator, IdHash> index_;
};

}  // namespace repro::smr
