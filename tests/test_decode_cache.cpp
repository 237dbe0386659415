// Decode-once delivery memo: a hit must be indistinguishable from a fresh
// decode, it must answer only for the live buffer that was seeded (a
// copy of the bytes, a mutated copy or a new buffer at a freed buffer's
// address all miss), only the seeding signer's delivery may skip the
// envelope check, and the LRU bound must hold under floods of seeded
// buffers. Byte-identical buffers each keep their own entry. Decoded
// blocks hand out one shared payload buffer, however many recipients
// take a copy.
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

/// Seed `wire` the way a multicast sender does: the buffer, its decoded
/// form and the signer.
SharedBytes seed_wire(DecodeCache& cache, Bytes wire, ReplicaId signer = 1) {
  SharedBytes buf = make_shared_bytes(std::move(wire));
  cache.insert(buf, *decode_message(*buf), signer);
  return buf;
}

/// A coin share seeded by replica 1, one per view.
SharedBytes seed(DecodeCache& cache, View view) {
  return seed_wire(cache, wire_coin_share(view, 1, view));
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
  const auto fresh = decode_message(*buf);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(encode_message(first->msg), encode_message(*fresh));
  EXPECT_EQ(encode_message(second->msg), encode_message(*fresh));
  EXPECT_EQ(encode_message(second->msg), *buf);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecodeCache, EveryMutatedByteMissesAndIsJudgedIndependently) {
  DecodeCache cache(DecodeCache::kDefaultCapacity);
  const Bytes wire = wire_coin_share(3, 1, 42);
  const SharedBytes original = seed_wire(cache, wire);

  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes mutated = wire;
    mutated[i] ^= 0x01;
    // A buffer that was never seeded misses: its delivery is the
    // recipient's to decode (or reject) on its own merits and can never
    // alias the memoized original.
    const SharedBytes buf = make_shared_bytes(std::move(mutated));
    EXPECT_FALSE(cache.decode_buffer(*buf, 1).has_value()) << "byte " << i;
    if (auto decoded = decode_message(*buf)) {
      EXPECT_EQ(encode_message(*decoded), *buf) << "byte " << i;
    }
  }
  EXPECT_EQ(cache.size(), 1u);
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

  // LRU: the newest buffers survive the flood, the oldest do not.
  for (std::size_t i = live.size() - kCap; i < live.size(); ++i) {
    EXPECT_TRUE(cache.decode_buffer(*live[i], 0).has_value()) << i;
  }
  EXPECT_FALSE(cache.decode_buffer(*live.front(), 0).has_value());
  EXPECT_FALSE(cache.decode_buffer(*live[live.size() - kCap - 1], 0).has_value());
}

TEST(DecodeCache, SenderPrepopulationServesSelfDelivery) {
  auto sys = test_crypto();
  DecodeCache cache(16);
  // A signed type: the sender encodes once and seeds the memo.
  Message msg = FbQcMsg{genesis_certificate(), {}};
  const SharedBytes wire = make_shared_bytes(encode_signed(*sys, 1, msg));
  cache.insert(wire, msg, /*signer=*/1);

  auto delivered = cache.decode_buffer(*wire, 1);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(encode_message(delivered->msg), *wire);
  EXPECT_TRUE(delivered->sender_verified);
}

TEST(DecodeCache, SenderMemoDoesNotLeakAcrossSenders) {
  auto sys = test_crypto();
  DecodeCache cache(16);
  Message msg = FbQcMsg{genesis_certificate(), {}};
  const SharedBytes wire = make_shared_bytes(encode_signed(*sys, 1, msg));
  cache.insert(wire, msg, /*signer=*/1);

  // The seeder's delivery skips the check. The same buffer delivered
  // under any other sender is still a hit, but it is not marked verified:
  // the caller runs the full check against the wire bytes, and replica
  // 1's signature fails for the forger, so the copy is dropped.
  EXPECT_TRUE(cache.decode_buffer(*wire, 1)->sender_verified);
  for (ReplicaId forger : {0u, 2u, 3u}) {
    auto hit = cache.decode_buffer(*wire, forger);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->sender_verified) << forger;
    EXPECT_FALSE(verify_message_signature_wire(*sys, forger, hit->msg, *wire)) << forger;
  }
  // A full check that passes is not remembered either: the entry keeps
  // its one signer.
  EXPECT_TRUE(verify_message_signature_wire(*sys, 1, msg, *wire));
  EXPECT_FALSE(cache.decode_buffer(*wire, 2)->sender_verified);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecodeCache, BufferKeyAnswersOnlyForTheRememberedBuffer) {
  DecodeCache cache(16);
  const SharedBytes buf = seed(cache, 4);
  const auto hit = cache.decode_buffer(*buf, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->sender_verified);  // the seeding signer
  EXPECT_FALSE(cache.decode_buffer(*buf, 2)->sender_verified);

  // The same bytes in another buffer get no hit by address.
  const Bytes copy = *buf;
  EXPECT_FALSE(cache.decode_buffer(copy, 1).has_value());
  const SharedBytes unseeded = make_shared_bytes(Bytes(*buf));
  EXPECT_FALSE(cache.decode_buffer(*unseeded, 1).has_value());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecodeCache, ByteIdenticalMulticastsFromTwoSendersBothHit) {
  // Unsigned messages relayed by several replicas (a coin-QC, the same
  // coin share payload) are byte-identical across senders. Each sender's
  // multicast buffer keeps its own entry while both are live.
  DecodeCache cache(16);
  const Bytes wire = encode_message(Message{CoinQcMsg{CoinQC{5, crypto::ThresholdSig{7}}, std::nullopt}});
  const SharedBytes from1 = seed_wire(cache, wire, 1);
  const SharedBytes from2 = seed_wire(cache, wire, 2);
  for (ReplicaId to = 0; to < 4; ++to) {
    auto a = cache.decode_buffer(*from1, 1);
    auto b = cache.decode_buffer(*from2, 2);
    ASSERT_TRUE(a.has_value()) << to;
    ASSERT_TRUE(b.has_value()) << to;
    EXPECT_TRUE(a->sender_verified);
    EXPECT_TRUE(b->sender_verified);
    EXPECT_EQ(encode_message(a->msg), wire);
    EXPECT_EQ(encode_message(b->msg), wire);
  }
  EXPECT_EQ(cache.size(), 2u);
}

TEST(DecodeCache, ReusedAddressOfAFreedBufferGetsNoStaleKey) {
  DecodeCache cache(16);
  // Non-owning handles on one storage slot force the address reuse an
  // allocator may or may not produce.
  Bytes slot = wire_coin_share(5, 1, 5);
  auto handle = [&slot] { return SharedBytes(&slot, [](const Bytes*) {}); };
  {
    SharedBytes first = handle();
    cache.insert(first, *decode_message(*first), 1);
    EXPECT_TRUE(cache.decode_buffer(slot, 1).has_value());
  }
  // The first buffer is gone; different bytes now live at its address.
  slot = wire_coin_share(6, 1, 6);
  const SharedBytes second = handle();
  EXPECT_FALSE(cache.decode_buffer(*second, 1).has_value());
  EXPECT_EQ(cache.size(), 0u);  // the dead entry is dropped

  // Seeding the new buffer at that address replaces any dead entry.
  cache.insert(second, *decode_message(*second), 1);
  auto hit = cache.decode_buffer(*second, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(encode_message(hit->msg), slot);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecodeCache, EvictionDropsTheBufferMapping) {
  constexpr std::size_t kCap = 4;
  DecodeCache cache(kCap);
  const SharedBytes buf = seed(cache, 0);
  ASSERT_TRUE(cache.decode_buffer(*buf, 1).has_value());
  std::vector<SharedBytes> newer;
  for (View v = 1; v <= kCap; ++v) newer.push_back(seed(cache, v));
  // The buffer is still alive, but its entry was evicted: a miss.
  EXPECT_FALSE(cache.decode_buffer(*buf, 1).has_value());
  EXPECT_EQ(cache.size(), kCap);
}

TEST(DecodeCache, BufferMemoStaysWithinTheEntryBound) {
  // Entries hold weak_ptrs: buffers that die once delivered leave entries
  // behind only up to the bound, and the memo never keeps their bytes.
  constexpr std::size_t kCap = 8;
  DecodeCache cache(kCap);
  std::weak_ptr<const Bytes> first;
  for (View v = 0; v < 10 * kCap; ++v) {
    const SharedBytes buf = seed(cache, v);
    if (v == 0) first = buf;
    ASSERT_LE(cache.size(), kCap);
  }
  EXPECT_TRUE(first.expired());
  const SharedBytes live = seed(cache, 1000);
  EXPECT_TRUE(cache.decode_buffer(*live, 1).has_value());
  EXPECT_LE(cache.size(), kCap);
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
