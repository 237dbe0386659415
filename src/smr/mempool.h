// Synthetic transaction workload.
//
// The paper abstracts clients away; what matters for communication
// complexity is the batch the leader puts in each block. The mempool
// produces deterministic pseudo-random batches of a configured size, each
// carrying a sequence number so tests can check that committed payloads
// are exactly the proposed ones. The j-th batch is a pure function of
// (owner, seed, j). Replicas with an application payload source
// (ReplicaContext::payload_source, e.g. client::TxnPools) never call it.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/rng.h"
#include "common/types.h"

namespace repro::smr {

class Mempool {
 public:
  /// `batch_bytes` is the payload size per block (0 = empty blocks, used
  /// by complexity benches that count protocol-overhead bytes only).
  Mempool(ReplicaId owner, std::size_t batch_bytes, Rng rng)
      : owner_(owner), batch_bytes_(batch_bytes), rng_(std::move(rng)) {}

  /// Next transaction batch: the 12-byte owner/seq header, then
  /// `batch_bytes` of filler, so even size 0 gives a distinct,
  /// attributable batch.
  Bytes next_batch() {
    Encoder enc;
    enc.u32(owner_);
    enc.u64(seq_++);
    while (enc.size() < batch_bytes_ + 12) enc.u64(rng_.next());
    Bytes out = std::move(enc).result();
    out.resize(batch_bytes_ + 12);
    return out;
  }

  std::uint64_t batches_produced() const { return seq_; }

 private:
  ReplicaId owner_;
  std::size_t batch_bytes_;
  Rng rng_;
  std::uint64_t seq_ = 0;
};

}  // namespace repro::smr
