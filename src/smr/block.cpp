#include "smr/block.h"

namespace repro::smr {

struct Block::IdMemo {
  BlockId id;
  Certificate parent;
  Round round;
  View view;
  FallbackHeight height;
  ReplicaId proposer;
  SharedBytes payload;

  bool matches(const Block& b) const {
    return payload == b.payload && round == b.round && view == b.view && height == b.height &&
           proposer == b.proposer && parent == b.parent;
  }
};

const SharedBytes& Block::empty_payload() {
  static const SharedBytes empty = make_shared_bytes(Bytes{});
  return empty;
}

void Block::memoize_id(const BlockId& hashed) {
  id_memo_ = std::make_shared<const IdMemo>(
      IdMemo{hashed, parent, round, view, height, proposer, payload});
}

BlockId Block::compute_id(const Certificate& parent, Round round, View view,
                          FallbackHeight height, ReplicaId proposer, BytesView payload) {
  Encoder enc;
  parent.encode(enc);
  enc.u64(round);
  enc.u64(view);
  enc.u32(height);
  enc.u32(proposer);
  enc.bytes(payload);
  return crypto::sha256_tagged("repro/block", enc.result());
}

Block Block::make(const Certificate& parent, Round round, View view, FallbackHeight height,
                  ReplicaId proposer, Bytes payload) {
  Block b;
  b.parent = parent;
  b.round = round;
  b.view = view;
  b.height = height;
  b.proposer = proposer;
  b.payload = make_shared_bytes(std::move(payload));
  b.id = compute_id(b.parent, b.round, b.view, b.height, b.proposer, *b.payload);
  b.memoize_id(b.id);
  return b;
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
  if (id_memoized()) return id == id_memo_->id;
  return id == compute_id(parent, round, view, height, proposer, *payload);
}

bool Block::id_memoized() const { return id_memo_ != nullptr && id_memo_->matches(*this); }

void Block::encode(Encoder& enc) const {
  enc.raw(BytesView(id.data(), id.size()));
  parent.encode(enc);
  enc.u64(round);
  enc.u64(view);
  enc.u32(height);
  enc.u32(proposer);
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
  auto payload = dec.bytes();
  if (!parent || !round || !view || !height || !proposer || !payload) {
    return std::nullopt;
  }
  Block b;
  std::copy(id->begin(), id->end(), b.id.begin());
  b.parent = *parent;
  b.round = *round;
  b.view = *view;
  b.height = *height;
  b.proposer = *proposer;
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
