// Decode-once delivery cache: hits must be indistinguishable from fresh
// decodes, mutated bytes must miss and be judged independently, the LRU
// bound must hold under floods of distinct payloads, the per-sender
// signature memo must never leak a verification to a different sender,
// and the buffer -> key memo must only ever answer for the live buffer it
// was given. Decoded blocks hand out one shared payload buffer, however
// many recipients take a copy.
#include <gtest/gtest.h>

#include "crypto/dealer.h"
#include "harness/experiment.h"
#include "smr/decode_cache.h"

namespace repro::smr {
namespace {

std::shared_ptr<const crypto::CryptoSystem> test_crypto() {
  return crypto::CryptoSystem::deal(QuorumParams::for_n(4), 21);
}

Bytes wire_coin_share(View view, ReplicaId signer, std::uint64_t value) {
  return encode_message(Message{CoinShareMsg{view, crypto::PartialSig{signer, value}}});
}

/// Seed `wire` the way a multicast sender does: insert the decoded form
/// under its content key as signed by `signer`, and remember the buffer.
SharedBytes seed_wire(DecodeCache& cache, Bytes wire, ReplicaId signer = 1) {
  SharedBytes buf = make_shared_bytes(std::move(wire));
  const auto key = DecodeCache::key_of(*buf);
  cache.insert(key, *decode_message(*buf), signer);
  cache.remember_buffer(buf, key);
  return buf;
}

TEST(DecodeCache, HitReturnsValueEqualToFreshDecode) {
  DecodeCache cache(16);
  const SharedBytes buf = seed_wire(cache, wire_coin_share(7, 2, 99));

  auto first = cache.decode_buffer(*buf, 2);
  ASSERT_TRUE(first.has_value());
  auto second = cache.decode_buffer(*buf, 2);
  ASSERT_TRUE(second.has_value());
  // Message has no operator==; canonical encoding makes byte equality
  // the right notion of "same decoded value".
  EXPECT_EQ(encode_message(second->msg), encode_message(first->msg));
  EXPECT_EQ(encode_message(second->msg), *buf);
  EXPECT_EQ(first->key, DecodeCache::key_of(*buf));
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(DecodeCache, EveryMutatedByteMissesAndIsJudgedIndependently) {
  DecodeCache cache(DecodeCache::kDefaultCapacity);
  const Bytes wire = wire_coin_share(3, 1, 42);
  const SharedBytes original = seed_wire(cache, wire);

  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes mutated = wire;
    mutated[i] ^= 0x01;
    const auto key = DecodeCache::key_of(mutated);
    EXPECT_NE(key, DecodeCache::key_of(wire)) << "byte " << i << " flip must change the key";
    // Claiming the mutated buffer holds those bytes maps nothing: no entry
    // has its key, so a delivery of it is the recipient's to decode (or
    // reject) on its own merits and can never alias the cached original.
    const SharedBytes buf = make_shared_bytes(std::move(mutated));
    cache.remember_buffer(buf, key);
    EXPECT_FALSE(cache.decode_buffer(*buf, 1).has_value()) << "byte " << i;
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.buffer_count(), 1u);
  EXPECT_TRUE(cache.decode_buffer(*original, 1).has_value());
}

TEST(DecodeCache, BoundHoldsUnderFloodOfDistinctPayloads) {
  constexpr std::size_t kCap = 32;
  DecodeCache cache(kCap);
  std::vector<SharedBytes> live;
  for (std::uint64_t i = 0; i < 10 * kCap; ++i) {
    live.push_back(seed_wire(cache, wire_coin_share(i, 0, i)));
    ASSERT_LE(cache.size(), kCap);
  }
  EXPECT_EQ(cache.size(), kCap);
  EXPECT_EQ(cache.stats().evictions, 10 * kCap - kCap);

  // LRU: the newest payload survives the flood, the oldest does not.
  EXPECT_TRUE(cache.decode_buffer(*live.back(), 1).has_value());
  EXPECT_FALSE(cache.decode_buffer(*live.front(), 1).has_value());
}

TEST(DecodeCache, SenderPrepopulationServesSelfDelivery) {
  auto sys = test_crypto();
  DecodeCache cache(16);
  // A signed type: the sender encodes once and seeds the cache.
  Message msg = FbQcMsg{genesis_certificate(), {}};
  sign_message(*sys, 1, msg);
  const SharedBytes wire = make_shared_bytes(encode_message(msg));
  const auto key = DecodeCache::key_of(*wire);
  cache.insert(key, msg, /*signer=*/1);
  cache.remember_buffer(wire, key);

  auto delivered = cache.decode_buffer(*wire, 1);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(encode_message(delivered->msg), *wire);
  EXPECT_TRUE(delivered->sender_verified);
}

TEST(DecodeCache, SenderMemoDoesNotLeakAcrossSenders) {
  DecodeCache cache(16);
  const SharedBytes buf = seed_wire(cache, wire_coin_share(1, 0, 5), /*signer=*/0);
  const auto key = DecodeCache::key_of(*buf);
  cache.note_sender_verified(key, 2);

  // A Byzantine replica replaying replica 2's exact bytes presents a
  // different (key, sender) pair — it must not inherit the verification.
  EXPECT_TRUE(cache.decode_buffer(*buf, 2)->sender_verified);
  EXPECT_FALSE(cache.decode_buffer(*buf, 3)->sender_verified);

  // Memos survive repeats and tolerate evicted keys.
  cache.note_sender_verified(key, 2);
  EXPECT_TRUE(cache.decode_buffer(*buf, 2)->sender_verified);
  const auto ghost = DecodeCache::key_of(Bytes{9, 9, 9});
  cache.note_sender_verified(ghost, 2);  // no-op, no crash
  EXPECT_EQ(cache.size(), 1u);
}

// ---- buffer -> entry memo -------------------------------------------------------

/// A cache entry seeded the way a sender seeds it, plus its buffer.
SharedBytes seed(DecodeCache& cache, View view) {
  return seed_wire(cache, wire_coin_share(view, 1, view));
}

/// The content key a delivery of `payload` finds by address, if any.
std::optional<crypto::Digest> key_by_address(DecodeCache& cache, const Bytes& payload) {
  auto hit = cache.decode_buffer(payload, 1);
  if (!hit) return std::nullopt;
  return hit->key;
}

TEST(DecodeCache, BufferKeyAnswersOnlyForTheRememberedBuffer) {
  DecodeCache cache(16);
  const SharedBytes buf = seed(cache, 4);
  const auto key = DecodeCache::key_of(*buf);
  const auto by_address = cache.decode_buffer(*buf, 1);
  ASSERT_TRUE(by_address.has_value());
  EXPECT_EQ(by_address->key, key);
  EXPECT_TRUE(by_address->sender_verified);   // the seeding signer
  EXPECT_FALSE(cache.decode_buffer(*buf, 2)->sender_verified);

  // The same bytes in another buffer get no hit by address.
  const Bytes copy = *buf;
  EXPECT_FALSE(cache.decode_buffer(copy, 1).has_value());

  // No entry for the key, no mapping.
  const SharedBytes orphan = make_shared_bytes(wire_coin_share(9, 1, 9));
  cache.remember_buffer(orphan, DecodeCache::key_of(*orphan));
  EXPECT_FALSE(cache.decode_buffer(*orphan, 1).has_value());
  EXPECT_EQ(cache.buffer_count(), 1u);
}

TEST(DecodeCache, ReusedAddressOfAFreedBufferGetsNoStaleKey) {
  DecodeCache cache(16);
  // Non-owning handles on one storage slot force the address reuse an
  // allocator may or may not produce.
  Bytes slot = wire_coin_share(5, 1, 5);
  auto handle = [&slot] { return SharedBytes(&slot, [](const Bytes*) {}); };
  {
    SharedBytes first = handle();
    const auto key = DecodeCache::key_of(*first);
    cache.insert(key, *decode_message(*first), 1);
    cache.remember_buffer(first, key);
    EXPECT_EQ(key_by_address(cache, slot), key);
  }
  // The first buffer is gone; different bytes now live at its address.
  slot = wire_coin_share(6, 1, 6);
  const SharedBytes second = handle();
  EXPECT_FALSE(cache.decode_buffer(*second, 1).has_value());
  EXPECT_EQ(cache.buffer_count(), 0u);  // the dead mapping is dropped
}

TEST(DecodeCache, EvictionDropsTheBufferMapping) {
  constexpr std::size_t kCap = 4;
  DecodeCache cache(kCap);
  const SharedBytes buf = seed(cache, 0);
  ASSERT_TRUE(cache.decode_buffer(*buf, 1).has_value());
  for (View v = 1; v <= kCap; ++v) {
    const Bytes wire = wire_coin_share(v, 2, v);
    cache.insert(DecodeCache::key_of(wire), *decode_message(wire), 2);
  }
  // The buffer is still alive, but its entry was evicted: no key, and the
  // memo holds nothing for it.
  EXPECT_FALSE(cache.decode_buffer(*buf, 1).has_value());
  EXPECT_EQ(cache.buffer_count(), 0u);
}

TEST(DecodeCache, BufferMemoStaysWithinTheEntryBound) {
  constexpr std::size_t kCap = 8;
  DecodeCache cache(kCap);
  std::vector<SharedBytes> live;
  for (View v = 0; v < 10 * kCap; ++v) live.push_back(seed(cache, v));
  EXPECT_LE(cache.buffer_count(), kCap);
  EXPECT_EQ(key_by_address(cache, *live.back()), DecodeCache::key_of(*live.back()));

  // Re-seeding the same bytes from a new buffer moves the mapping.
  const SharedBytes again = make_shared_bytes(Bytes(*live.back()));
  cache.remember_buffer(again, DecodeCache::key_of(*again));
  EXPECT_TRUE(cache.decode_buffer(*again, 1).has_value());
  EXPECT_FALSE(cache.decode_buffer(*live.back(), 1).has_value());
  EXPECT_LE(cache.buffer_count(), kCap);
}

TEST(DecodeCache, HitsShareOnePayloadBuffer) {
  DecodeCache cache(16);
  const Block block = Block::make(genesis_certificate(), 1, 0, 0, 2, Bytes(512, 0x5a));
  const SharedBytes wire =
      seed_wire(cache, encode_message(Message{ProposalMsg{block, std::nullopt, {}, {}}}));
  auto first = cache.decode_buffer(*wire, 1);
  ASSERT_TRUE(first.has_value());
  auto second = cache.decode_buffer(*wire, 1);
  ASSERT_TRUE(second.has_value());
  const Block& a = std::get<ProposalMsg>(first->msg).block;
  const Block& b = std::get<ProposalMsg>(second->msg).block;
  EXPECT_EQ(a.payload.get(), b.payload.get());
  EXPECT_EQ(*a.payload, *block.payload);
  EXPECT_TRUE(a.id_memoized());
}

TEST(DecodeCache, SimulatedReplicasStoreOneSharedPayloadBuffer) {
  // The simulator's replicas share one decode cache, so a proposal's
  // payload is one buffer in every replica's store: the proposer's own
  // (its encode seeds the cache) and each recipient's.
  harness::ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = harness::Protocol::kFallback3;
  cfg.seed = 11;
  harness::Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(20, 120'000'000));
  auto store = [&exp](ReplicaId id) -> const BlockStore& {
    return dynamic_cast<const core::ReplicaBase&>(exp.replica(id)).store();
  };
  std::size_t compared = 0;
  for (const auto& rec : exp.replica(1).ledger().records()) {
    const Block* b1 = store(1).get(rec.id);
    const Block* b2 = store(2).get(rec.id);
    ASSERT_NE(b1, nullptr);
    if (b2 == nullptr) continue;
    EXPECT_FALSE(b1->payload->empty());
    EXPECT_EQ(b1->payload.get(), b2->payload.get()) << "round " << rec.round;
    EXPECT_TRUE(b1->id_memoized());
    ++compared;
  }
  EXPECT_GE(compared, 20u);
}

}  // namespace
}  // namespace repro::smr
