// Blocks: the paper's regular blocks B = [id, qc, r, v, txn] and
// fallback-blocks B̄ = [B, height, proposer].
//
// One struct covers both: height == 0 means regular block, height in
// {1,2,3} means f-block at that position in its proposer's fallback-chain.
// The id is the SHA-256 digest of every other field, as in the paper
// (id = H(qc, r, v, txn) extended with height/proposer for f-blocks).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "common/codec.h"
#include "common/types.h"
#include "smr/certificates.h"

namespace repro::smr {

struct Block {
  BlockId id{};
  Certificate parent;  ///< QC (regular / height-1 f-block) or f-QC (height 2-3)
  Round round = 0;
  View view = 0;
  FallbackHeight height = 0;  ///< 0 = regular block; 1..3 = fallback-block
  ReplicaId proposer = 0;
  /// The transaction batch, carried inline. One immutable buffer that
  /// every copy of the block shares (decode-cache hits, the block store,
  /// block responses): change a payload by assigning a new buffer, never
  /// by writing through this one.
  SharedBytes payload = empty_payload();

  bool is_fallback() const { return height > 0; }
  bool is_genesis() const { return id == genesis_id(); }

  /// The transaction bytes this block orders.
  const Bytes& txns() const { return *payload; }

  /// Wire fields only (payloads by content) — the id memo is local
  /// state, not identity.
  bool operator==(const Block& o) const {
    return id == o.id && parent == o.parent && round == o.round && view == o.view &&
           height == o.height && proposer == o.proposer &&
           (payload == o.payload || *payload == *o.payload);
  }

  /// The shared empty payload (genesis, default-constructed blocks).
  static const SharedBytes& empty_payload();

  /// Recomputes what the id must be for the other fields.
  static BlockId compute_id(const Certificate& parent, Round round, View view,
                            FallbackHeight height, ReplicaId proposer, BytesView payload);

  /// Builds a block with a freshly computed id.
  static Block make(const Certificate& parent, Round round, View view, FallbackHeight height,
                    ReplicaId proposer, Bytes payload);

  /// The unique genesis block (round 0, view 0, parented on itself).
  static const Block& genesis();

  /// True iff id matches the other fields. Block::decode rejects any
  /// block that fails it, so every received block passed it. Blocks from
  /// make() and decode() carry a record of the fields they hashed; while
  /// every wire field still equals that record (the payload by buffer
  /// identity) the answer is read from it, otherwise the id is rehashed.
  bool id_consistent() const;
  /// True iff id_consistent() would answer from the id memo, not a hash.
  bool id_memoized() const;

  void encode(Encoder& enc) const;
  /// nullopt on malformed bytes or an id-inconsistent block.
  static std::optional<Block> decode(Decoder& dec);

 private:
  /// The wire fields as of the last id hash, and the id they hash to.
  /// Immutable and shared by every copy of the block; it holds the
  /// payload by its shared pointer, so a buffer it names stays alive and
  /// no other buffer can take its address.
  struct IdMemo;
  std::shared_ptr<const IdMemo> id_memo_;
  /// Record the current fields with `hashed` as the id they hash to.
  void memoize_id(const BlockId& hashed);
};

}  // namespace repro::smr
