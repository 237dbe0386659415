#include "smr/block.h"

namespace repro::smr {

struct Block::IdMemo {
  BlockId id;
  Certificate parent;
  Round round;
  View view;
  FallbackHeight height;
  ReplicaId proposer;
  std::uint8_t payload_kind;
  SharedBytes payload;

  bool matches(const Block& b) const {
    return payload == b.payload && round == b.round && view == b.view && height == b.height &&
           proposer == b.proposer && payload_kind == b.payload_kind && parent == b.parent;
  }
};

const SharedBytes& Block::empty_payload() {
  static const SharedBytes empty = make_shared_bytes(Bytes{});
  return empty;
}

void Block::memoize_id(const BlockId& hashed) {
  id_memo_ = std::make_shared<const IdMemo>(
      IdMemo{hashed, parent, round, view, height, proposer, payload_kind, payload});
}

BlockId Block::compute_id(const Certificate& parent, Round round, View view,
                          FallbackHeight height, ReplicaId proposer, BytesView payload,
                          std::uint8_t payload_kind) {
  Encoder enc;
  parent.encode(enc);
  enc.u64(round);
  enc.u64(view);
  enc.u32(height);
  enc.u32(proposer);
  enc.u8(payload_kind);
  enc.bytes(payload);
  return crypto::sha256_tagged("repro/block", enc.result());
}

Block Block::make(const Certificate& parent, Round round, View view, FallbackHeight height,
                  ReplicaId proposer, Bytes payload, std::uint8_t payload_kind) {
  Block b;
  b.parent = parent;
  b.round = round;
  b.view = view;
  b.height = height;
  b.proposer = proposer;
  b.payload_kind = payload_kind;
  b.payload = make_shared_bytes(std::move(payload));
  b.id = compute_id(b.parent, b.round, b.view, b.height, b.proposer, *b.payload,
                    b.payload_kind);
  b.memoize_id(b.id);
  return b;
}

BatchId Block::batch_ref() const {
  BatchId out{};
  if (payload->size() == out.size()) std::copy(payload->begin(), payload->end(), out.begin());
  return out;
}

const Block& Block::genesis() {
  static const Block g = [] {
    Block b;
    b.parent = genesis_certificate();
    b.round = 0;
    b.view = 0;
    b.height = 0;
    b.proposer = 0;
    b.id = genesis_id();
    return b;
  }();
  return g;
}

bool Block::id_consistent() const {
  if (is_genesis()) return *this == genesis();
  if (payload_kind == kBatchRefPayload && payload->size() != 32) return false;
  if (payload_kind > kBatchRefPayload) return false;
  if (id_memoized()) return id == id_memo_->id;
  return id == compute_id(parent, round, view, height, proposer, *payload, payload_kind);
}

bool Block::id_memoized() const { return id_memo_ != nullptr && id_memo_->matches(*this); }

void Block::encode(Encoder& enc) const {
  enc.raw(BytesView(id.data(), id.size()));
  parent.encode(enc);
  enc.u64(round);
  enc.u64(view);
  enc.u32(height);
  enc.u32(proposer);
  enc.u8(payload_kind);
  enc.bytes(*payload);
}

std::optional<Block> Block::decode(Decoder& dec) {
  auto id = dec.raw(32);
  if (!id) return std::nullopt;
  auto parent = Certificate::decode(dec);
  auto round = dec.u64();
  auto view = dec.u64();
  auto height = dec.u32();
  auto proposer = dec.u32();
  auto payload_kind = dec.u8();
  auto payload = dec.bytes();
  if (!parent || !round || !view || !height || !proposer || !payload_kind || !payload) {
    return std::nullopt;
  }
  Block b;
  std::copy(id->begin(), id->end(), b.id.begin());
  b.parent = *parent;
  b.round = *round;
  b.view = *view;
  b.height = *height;
  b.proposer = *proposer;
  b.payload_kind = *payload_kind;
  b.payload = make_shared_bytes(std::move(*payload));
  // Id consistency is a codec property: a wire block whose id does not
  // bind its fields never decodes, so the decode cache memoizes the check
  // together with the parse and handlers need not repeat it. The block
  // carries the hashed fields onward, so later checks of any copy
  // (BlockStore::insert, a sender's cache seed) need not rehash either.
  if (!b.id_consistent()) return std::nullopt;
  b.memoize_id(b.id);
  return b;
}

}  // namespace repro::smr
