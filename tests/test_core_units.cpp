// Direct unit tests for the core replica machinery — the commit-rule
// scanner, the two lock rules, endorsement-aware ranking, vote pooling
// and the leader schedule — exercised through a test subclass instead of
// full protocol runs (those live in test_fallback / test_properties).
#include <gtest/gtest.h>

#include "core/replica_base.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace repro::core {
namespace {

smr::Certificate make_cert(const crypto::CryptoSystem& sys, smr::CertKind kind,
                           const smr::BlockId& id, Round r, View v, FallbackHeight h,
                           ReplicaId proposer) {
  std::vector<crypto::PartialSig> shares;
  const Bytes msg = smr::cert_signing_message(kind, id, r, v, h, proposer);
  for (ReplicaId i = 0; i < sys.params.quorum(); ++i) {
    shares.push_back(sys.quorum_sigs.sign_share(i, msg));
  }
  auto c = smr::combine_certificate(sys, kind, id, r, v, h, proposer, shares);
  EXPECT_TRUE(c.has_value());
  return *c;
}

smr::CoinQC make_coin(const crypto::CryptoSystem& sys, View v) {
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId i = 0; i < sys.params.coin_quorum(); ++i) {
    shares.push_back(sys.coin.coin_share(i, v));
  }
  auto qc = smr::combine_coin_qc(sys, v, shares);
  EXPECT_TRUE(qc.has_value());
  return *qc;
}

/// Minimal concrete replica exposing the protected machinery.
class TestReplica final : public ReplicaBase {
 public:
  explicit TestReplica(const ReplicaContext& ctx, std::uint32_t commit_len = 3)
      : ReplicaBase(ctx), commit_len_(commit_len) {}

  void start() override {}
  bool in_fallback() const override { return false; }

  /// Senders of every message that reached handle_message.
  std::vector<ReplicaId> handled_from;

  using ReplicaBase::counts_for_commit;
  using ReplicaBase::ensure_block;
  using ReplicaBase::multicast;
  using ReplicaBase::send;
  using ReplicaBase::install_coin;
  using ReplicaBase::is_endorsed;
  using ReplicaBase::lock_direct_rank;
  using ReplicaBase::lock_parent_rank;
  using ReplicaBase::note_certificate;
  using ReplicaBase::rank_of;
  using ReplicaBase::store_block;
  using ReplicaBase::update_qc_high;

 protected:
  std::uint32_t commit_len() const override { return commit_len_; }
  void handle_message(ReplicaId from, smr::Message&&) override { handled_from.push_back(from); }

 private:
  std::uint32_t commit_len_;
};

class CoreUnits : public ::testing::Test {
 protected:
  CoreUnits() {
    crypto_ = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 5);
    net_ = std::make_unique<net::Network>(sim_, 4, std::make_unique<net::FixedDelayModel>(10),
                                          Rng(1));
    ReplicaContext ctx;
    ctx.sim = &sim_;
    ctx.net = net_.get();
    ctx.crypto = crypto_;
    ctx.id = 0;
    ctx.seed = 9;
    replica_ = std::make_unique<TestReplica>(ctx);
  }

  /// Build & store a chain of `len` certified regular blocks with
  /// consecutive rounds in view `v`; returns the certificates.
  std::vector<smr::Certificate> build_chain(std::uint32_t len, View v) {
    std::vector<smr::Certificate> certs;
    smr::Certificate parent = smr::genesis_certificate();
    for (std::uint32_t i = 0; i < len; ++i) {
      smr::Block b = smr::Block::make(parent, parent.round + 1, v, 0, 0,
                                      Bytes{std::uint8_t(i)});
      replica_->store_block(b, 0);
      parent = make_cert(*crypto_, smr::CertKind::kQuorum, b.id, b.round, v, 0, 0);
      certs.push_back(parent);
    }
    return certs;
  }

  sim::Simulation sim_;
  std::shared_ptr<const crypto::CryptoSystem> crypto_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<TestReplica> replica_;
};

// ---- commit scanner ---------------------------------------------------------

TEST_F(CoreUnits, ThreeChainCommitsOldestBlock) {
  auto certs = build_chain(3, 0);
  EXPECT_EQ(replica_->ledger().size(), 0u);
  for (const auto& c : certs) replica_->note_certificate(c, 0);
  // 3 adjacent certified blocks, consecutive rounds -> commit block 1.
  ASSERT_EQ(replica_->ledger().size(), 1u);
  EXPECT_EQ(replica_->ledger().records()[0].round, 1u);
}

TEST_F(CoreUnits, TwoAdjacentCertifiedBlocksDoNotCommitUnderThreeChain) {
  auto certs = build_chain(2, 0);
  for (const auto& c : certs) replica_->note_certificate(c, 0);
  EXPECT_EQ(replica_->ledger().size(), 0u);
}

TEST_F(CoreUnits, RoundGapBreaksTheChain) {
  // b1 certified, then a block at round 3 extending it (gap at round 2):
  // DiemBFT permits the gap, but the commit rule must not fire.
  auto certs = build_chain(1, 0);
  const smr::Certificate& qc1 = certs[0];
  smr::Block b3 = smr::Block::make(qc1, 3, 0, 0, 0, Bytes{3});
  replica_->store_block(b3, 0);
  auto qc3 = make_cert(*crypto_, smr::CertKind::kQuorum, b3.id, 3, 0, 0, 0);
  smr::Block b4 = smr::Block::make(qc3, 4, 0, 0, 0, Bytes{4});
  replica_->store_block(b4, 0);
  auto qc4 = make_cert(*crypto_, smr::CertKind::kQuorum, b4.id, 4, 0, 0, 0);

  replica_->note_certificate(qc1, 0);
  replica_->note_certificate(qc3, 0);
  replica_->note_certificate(qc4, 0);
  EXPECT_EQ(replica_->ledger().size(), 0u);  // rounds 1,3,4 never commit
}

TEST_F(CoreUnits, CommitIncludesAllAncestors) {
  auto certs = build_chain(5, 0);
  for (const auto& c : certs) replica_->note_certificate(c, 0);
  // Chain of 5: the 3-chain tip at rounds 3,4,5 commits rounds 1..3.
  ASSERT_EQ(replica_->ledger().size(), 3u);
  EXPECT_EQ(replica_->ledger().records()[2].round, 3u);
}

TEST_F(CoreUnits, TwoChainModeCommitsWithTwoBlocks) {
  ReplicaContext ctx;
  ctx.sim = &sim_;
  ctx.net = net_.get();
  ctx.crypto = crypto_;
  ctx.id = 0;
  ctx.seed = 10;
  TestReplica two(ctx, /*commit_len=*/2);
  smr::Certificate parent = smr::genesis_certificate();
  std::vector<smr::Certificate> certs;
  for (int i = 0; i < 2; ++i) {
    smr::Block b = smr::Block::make(parent, parent.round + 1, 0, 0, 0, Bytes{std::uint8_t(i)});
    two.store_block(b, 0);
    parent = make_cert(*crypto_, smr::CertKind::kQuorum, b.id, b.round, 0, 0, 0);
    certs.push_back(parent);
  }
  for (const auto& c : certs) two.note_certificate(c, 0);
  ASSERT_EQ(two.ledger().size(), 1u);
}

TEST_F(CoreUnits, MixedViewChainDoesNotCommit) {
  // Three adjacent certified blocks but the middle one is from a later
  // view: the same-view requirement must block the commit.
  smr::Certificate parent = smr::genesis_certificate();
  View views[3] = {0, 1, 1};
  std::vector<smr::Certificate> certs;
  for (int i = 0; i < 3; ++i) {
    smr::Block b =
        smr::Block::make(parent, parent.round + 1, views[i], 0, 0, Bytes{std::uint8_t(i)});
    replica_->store_block(b, 0);
    parent = make_cert(*crypto_, smr::CertKind::kQuorum, b.id, b.round, views[i], 0, 0);
    certs.push_back(parent);
  }
  for (const auto& c : certs) replica_->note_certificate(c, 0);
  EXPECT_EQ(replica_->ledger().size(), 0u);
}

TEST_F(CoreUnits, FallbackCertsOnlyCommitWhenEndorsed) {
  // An f-chain of 3: without the coin nothing commits; after installing
  // the coin that elects the chain owner, the scan fires.
  const smr::CoinQC coin = make_coin(*crypto_, 0);
  const ReplicaId leader = coin.leader(*crypto_);

  smr::Certificate parent = smr::genesis_certificate();
  std::vector<smr::Certificate> fcerts;
  for (FallbackHeight h = 1; h <= 3; ++h) {
    smr::Block b =
        smr::Block::make(parent, parent.round + 1, 0, h, leader, Bytes{std::uint8_t(h)});
    replica_->store_block(b, 0);
    parent = make_cert(*crypto_, smr::CertKind::kFallback, b.id, b.round, 0, h, leader);
    fcerts.push_back(parent);
  }
  for (const auto& c : fcerts) replica_->note_certificate(c, 0);
  EXPECT_EQ(replica_->ledger().size(), 0u);  // not endorsed yet

  EXPECT_TRUE(replica_->install_coin(coin));  // rescans -> commit fires
  ASSERT_EQ(replica_->ledger().size(), 1u);
  EXPECT_EQ(replica_->ledger().records()[0].height, 1u);
}

TEST_F(CoreUnits, MissingBlockDefersCommitAndFetches) {
  // Build the chain but withhold b2's body from the replica: the scan
  // must defer and issue a fetch; supplying the body completes it.
  smr::Certificate parent = smr::genesis_certificate();
  std::vector<smr::Block> blocks;
  std::vector<smr::Certificate> certs;
  for (int i = 0; i < 3; ++i) {
    smr::Block b = smr::Block::make(parent, parent.round + 1, 0, 0, 0, Bytes{std::uint8_t(i)});
    blocks.push_back(b);
    parent = make_cert(*crypto_, smr::CertKind::kQuorum, b.id, b.round, 0, 0, 0);
    certs.push_back(parent);
  }
  replica_->store_block(blocks[0], 0);
  replica_->store_block(blocks[2], 0);  // b2 (index 1) missing
  for (const auto& c : certs) replica_->note_certificate(c, 1);
  EXPECT_EQ(replica_->ledger().size(), 0u);
  EXPECT_GT(replica_->stats().blocks_fetched, 0u);

  replica_->store_block(blocks[1], 1);  // body arrives (e.g. via fetch)
  ASSERT_EQ(replica_->ledger().size(), 1u);
}

// ---- endorsement / ranking -----------------------------------------------------

TEST_F(CoreUnits, EndorsementRequiresMatchingCoin) {
  const smr::CoinQC coin = make_coin(*crypto_, 2);
  const ReplicaId leader = coin.leader(*crypto_);
  const ReplicaId not_leader = (leader + 1) % 4;

  smr::Block b = smr::Block::make(smr::genesis_certificate(), 1, 2, 1, leader, Bytes{});
  auto fqc = make_cert(*crypto_, smr::CertKind::kFallback, b.id, 1, 2, 1, leader);
  smr::Block b2 = smr::Block::make(smr::genesis_certificate(), 1, 2, 1, not_leader, Bytes{});
  auto other = make_cert(*crypto_, smr::CertKind::kFallback, b2.id, 1, 2, 1, not_leader);

  EXPECT_FALSE(replica_->is_endorsed(fqc));  // coin unknown
  replica_->install_coin(coin);
  EXPECT_TRUE(replica_->is_endorsed(fqc));
  EXPECT_FALSE(replica_->is_endorsed(other));  // wrong proposer
  EXPECT_TRUE(replica_->counts_for_commit(fqc));
  EXPECT_FALSE(replica_->counts_for_commit(other));
}

TEST_F(CoreUnits, EndorsedFqcOutranksRegularQcOfSameView) {
  const smr::CoinQC coin = make_coin(*crypto_, 1);
  const ReplicaId leader = coin.leader(*crypto_);
  replica_->install_coin(coin);

  smr::Block rb = smr::Block::make(smr::genesis_certificate(), 9, 1, 0, 0, Bytes{});
  auto qc = make_cert(*crypto_, smr::CertKind::kQuorum, rb.id, 9, 1, 0, 0);
  smr::Block fb = smr::Block::make(smr::genesis_certificate(), 1, 1, 1, leader, Bytes{});
  auto fqc = make_cert(*crypto_, smr::CertKind::kFallback, fb.id, 1, 1, 1, leader);

  // Endorsed, round 1 beats plain round 9 in the same view (paper §3).
  EXPECT_GT(replica_->rank_of(fqc), replica_->rank_of(qc));

  replica_->update_qc_high(qc);
  EXPECT_EQ(replica_->qc_high(), qc);
  replica_->update_qc_high(fqc);
  EXPECT_EQ(replica_->qc_high(), fqc);
  replica_->update_qc_high(qc);  // lower rank: no change
  EXPECT_EQ(replica_->qc_high(), fqc);
}

// ---- lock rules -----------------------------------------------------------------

TEST_F(CoreUnits, ParentLockUsesGrandparentRank) {
  auto certs = build_chain(2, 0);
  replica_->lock_parent_rank(certs[1], 0);  // lock on qc for round-2 block
  // 2-chain lock: rank_lock = rank of its parent (round 1).
  EXPECT_EQ(replica_->rank_lock(), (smr::Rank{0, false, 1}));
}

TEST_F(CoreUnits, DirectLockUsesOwnRank) {
  auto certs = build_chain(2, 0);
  replica_->lock_direct_rank(certs[1]);
  EXPECT_EQ(replica_->rank_lock(), (smr::Rank{0, false, 2}));
}

TEST_F(CoreUnits, LocksAreMonotone) {
  auto certs = build_chain(3, 0);
  replica_->lock_direct_rank(certs[2]);
  replica_->lock_direct_rank(certs[0]);  // lower: must not regress
  EXPECT_EQ(replica_->rank_lock(), (smr::Rank{0, false, 3}));
}

// ---- multicast data path ----------------------------------------------------

TEST_F(CoreUnits, MulticastSelfDeliveryKeepsExactAccounting) {
  // Route the replica's own deliveries through the real network boundary
  // so the self-send takes the full encode -> network -> decode round
  // trip rather than a shortcut inside ReplicaBase.
  net_->register_handler(0, [this](ReplicaId from, const Bytes& payload) {
    replica_->on_message(from, payload);
  });
  smr::Message msg = smr::BlockRequestMsg{smr::BlockId{}, 2};
  const std::uint64_t wire = smr::encode_message(msg).size();
  replica_->multicast(std::move(msg));
  sim_.run();

  // Self-delivery is tallied separately and never inflates network
  // traffic: exactly n-1 wire messages, one self message, byte-for-byte.
  const net::NetStats& net = net_->stats();
  EXPECT_EQ(net.self_messages, 1u);
  EXPECT_EQ(net.self_bytes, wire);
  EXPECT_EQ(net.messages, 3u);
  EXPECT_EQ(net.bytes, 3 * wire);
  EXPECT_EQ(net.multicasts, 1u);
  EXPECT_EQ(net.payload_copies_avoided, 3u);

  // The sender serialized once and its own delivery hit the decode cache
  // it pre-populated — zero parses anywhere on this multicast.
  EXPECT_EQ(replica_->stats().multicast_encodes, 1u);
  EXPECT_EQ(replica_->stats().decode_hits, 1u);
  EXPECT_EQ(replica_->stats().decode_misses, 0u);
  EXPECT_EQ(replica_->decode_cache().size(), 1u);
}

TEST_F(CoreUnits, PointToPointBypassesDecodeCacheAndMulticastHitsIt) {
  // Four replicas sharing one decode cache, as in a simulation.
  auto cache = std::make_shared<smr::DecodeCache>();
  std::vector<std::unique_ptr<TestReplica>> reps;
  for (ReplicaId id = 0; id < 4; ++id) {
    ReplicaContext ctx;
    ctx.sim = &sim_;
    ctx.net = net_.get();
    ctx.crypto = crypto_;
    ctx.id = id;
    ctx.seed = 9 + id;
    ctx.decode_cache = cache;
    reps.push_back(std::make_unique<TestReplica>(ctx));
    net_->register_handler(id, [&reps, id](ReplicaId from, const Bytes& payload) {
      reps[id]->on_message(from, payload);
    });
  }
  const auto timeout = [](View v) {
    smr::FbTimeoutMsg m;
    m.view = v;
    m.qc_high = smr::genesis_certificate();
    return smr::Message{m};
  };

  // A point-to-point message never enters the cache: its one recipient
  // parses the bytes and checks the envelope signature itself.
  reps[0]->send(1, timeout(1));
  sim_.run();
  EXPECT_EQ(reps[1]->handled_from, (std::vector<ReplicaId>{0}));
  EXPECT_EQ(reps[1]->stats().decode_misses, 1u);
  EXPECT_EQ(reps[1]->stats().decode_hits, 0u);
  EXPECT_EQ(cache->size(), 0u);

  // The same signed bytes relayed under another sender are parsed, fail
  // the envelope check against that sender, and are dropped.
  smr::Message forged = timeout(2);
  net_->send(2, 1, smr::encode_signed(*crypto_, 0, forged));
  sim_.run();
  EXPECT_EQ(reps[1]->handled_from, (std::vector<ReplicaId>{0}));
  EXPECT_EQ(reps[1]->stats().decode_misses, 2u);
  EXPECT_EQ(cache->size(), 0u);

  // A multicast is one entry and n hits: every delivery of the one
  // shared buffer, the sender's own included, is served by address.
  reps[3]->multicast(timeout(3));
  sim_.run();
  EXPECT_EQ(cache->size(), 1u);
  for (ReplicaId id = 0; id < 4; ++id) {
    EXPECT_EQ(reps[id]->handled_from.back(), 3u) << "replica " << id;
    EXPECT_EQ(reps[id]->stats().decode_hits, 1u) << "replica " << id;
  }
  EXPECT_EQ(reps[1]->stats().decode_misses, 2u);  // no parse for the multicast

  // A seeded buffer delivered under a sender other than its seeder is
  // still a hit, but it pays the full envelope check: replica 0's
  // signature fails for sender 2, so the copy is dropped. Under the
  // seeder it is delivered.
  smr::Message seeded = timeout(4);
  const SharedBytes buf = make_shared_bytes(smr::encode_signed(*crypto_, 0, seeded));
  cache->insert(buf, seeded, 0);
  net_->send(2, 1, buf);
  sim_.run();
  EXPECT_EQ(reps[1]->stats().decode_hits, 2u);
  EXPECT_EQ(reps[1]->handled_from.back(), 3u);
  net_->send(0, 1, buf);
  sim_.run();
  EXPECT_EQ(reps[1]->stats().decode_hits, 3u);
  EXPECT_EQ(reps[1]->handled_from.back(), 0u);
  EXPECT_EQ(reps[1]->stats().decode_misses, 2u);
}

// ---- leader schedule ---------------------------------------------------------------

TEST(LeaderSchedule, RotatesEveryKRounds) {
  // Paper §3.1: L_{4k+1}..L_{4k+4} are the same replica.
  for (Round r = 1; r <= 4; ++r) EXPECT_EQ(round_leader(r, 4, 4), 0u);
  for (Round r = 5; r <= 8; ++r) EXPECT_EQ(round_leader(r, 4, 4), 1u);
  EXPECT_EQ(round_leader(17, 4, 4), 0u);  // wraps around n
}

TEST(LeaderSchedule, RotationOfOneChangesEveryRound) {
  EXPECT_EQ(round_leader(1, 4, 1), 0u);
  EXPECT_EQ(round_leader(2, 4, 1), 1u);
  EXPECT_EQ(round_leader(5, 4, 1), 0u);
}

}  // namespace
}  // namespace repro::core
