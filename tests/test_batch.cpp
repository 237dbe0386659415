// Pipelined proposal path (DESIGN.md §12): content-addressed batch store,
// digest-referenced blocks, out-of-band dissemination, pull-based
// recovery, adaptive sizing, and the inline/reference determinism pin.
#include <gtest/gtest.h>

#include "core/fallback.h"
#include "harness/experiment.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "smr/batch.h"
#include "smr/mempool.h"

namespace repro {
namespace {

using core::ReplicaBase;
using smr::Batch;
using smr::BatchId;
using smr::BatchStore;

Bytes bytes_of(std::size_t n, std::uint8_t fill) { return Bytes(n, fill); }

// ---- BatchStore unit behaviour ---------------------------------------------

TEST(BatchStore, StoresAndRetrievesByContentHash) {
  BatchStore store(1 << 20);
  Batch b = Batch::seal(bytes_of(100, 0xAB));
  EXPECT_EQ(b.id, Batch::compute_id(b.data));
  EXPECT_TRUE(store.put(b.id, b.data));
  ASSERT_NE(store.get(b.id), nullptr);
  EXPECT_EQ(*store.get(b.id), b.data);
  EXPECT_EQ(store.size(), 1u);
  // Duplicate puts are rejected (content-addressed: same id, same bytes).
  EXPECT_FALSE(store.put(b.id, b.data));
  EXPECT_EQ(store.size(), 1u);
}

TEST(BatchStore, EvictsLeastRecentlyUsedAtByteBound) {
  // Entry cost = data + 32 bytes of id; bound fits exactly 3 entries.
  BatchStore store(3 * (100 + 32));
  std::vector<Batch> batches;
  for (std::uint8_t i = 0; i < 3; ++i) {
    batches.push_back(Batch::seal(bytes_of(100, i)));
    EXPECT_TRUE(store.put(batches.back().id, batches.back().data));
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.evictions(), 0u);

  // Touch batch 0 so batch 1 becomes the LRU, then insert a fourth.
  ASSERT_NE(store.get(batches[0].id), nullptr);
  Batch b4 = Batch::seal(bytes_of(100, 0x33));
  EXPECT_TRUE(store.put(b4.id, b4.data));
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_TRUE(store.contains(batches[0].id));   // refreshed, survived
  EXPECT_FALSE(store.contains(batches[1].id));  // LRU, evicted
  EXPECT_TRUE(store.contains(batches[2].id));
  EXPECT_TRUE(store.contains(b4.id));
  EXPECT_LE(store.bytes(), store.max_bytes());
}

TEST(BatchStore, RejectsOversizeBatch) {
  BatchStore store(64);
  Batch big = Batch::seal(bytes_of(256, 0x01));
  EXPECT_FALSE(store.put(big.id, big.data));
  EXPECT_EQ(store.size(), 0u);
}

// ---- adaptive batch sizing --------------------------------------------------

TEST(AdaptiveBatch, GrowsWithBacklogShrinksWithInFlight) {
  smr::Mempool pool(0, /*batch_bytes=*/1024, Rng(1));
  // No backlog: target stays at the base size.
  EXPECT_EQ(pool.adaptive_target(64 * 1024, 0), 1024u);
  // Deep backlog, nothing in flight: target climbs stepwise to the max.
  pool.offer(1 << 20);
  std::size_t prev = 1024;
  for (int i = 0; i < 32; ++i) {
    const std::size_t t = pool.adaptive_target(64 * 1024, 0);
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_EQ(prev, 64u * 1024);
  // Rounds piling up in flight: target backs off toward the base.
  for (int i = 0; i < 32; ++i) prev = pool.adaptive_target(64 * 1024, 8);
  EXPECT_EQ(prev, 1024u);
  // Inert when the max does not exceed the base.
  EXPECT_EQ(pool.adaptive_target(1024, 0), 1024u);
}

// ---- digest-referenced round trip ------------------------------------------

TEST(BatchRef, RoundTripCommitsWithAnnouncedBatches) {
  harness::ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = harness::Protocol::kFallback3;
  cfg.seed = 91;
  cfg.pcfg.batch_bytes = 1024;  // > kBatchRefMinBytes: refs engage
  cfg.trace_capacity = 1 << 14;
  cfg.make_delay = [] { return std::make_unique<net::FixedDelayModel>(1'000); };
  harness::Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(30, 60'000'000));
  EXPECT_TRUE(exp.check_safety().ok);

  std::uint64_t sealed = 0, announced = 0, hits = 0, misses = 0;
  for (ReplicaId id = 0; id < cfg.n; ++id) {
    sealed += exp.replica(id).stats().batches_sealed;
    announced += exp.replica(id).stats().batches_announced;
    hits += exp.replica(id).stats().batch_ref_hits;
    misses += exp.replica(id).stats().batch_ref_misses;
  }
  EXPECT_GT(sealed, 0u);
  EXPECT_GT(announced, 0u);
  // Announcements precede proposals on FIFO links, so refs resolve from
  // the local store without pulling.
  EXPECT_GT(hits, 0u);

  // Execution sees full payloads, never the 32-byte references.
  for (const auto& rec : exp.replica(0).ledger().records()) {
    if (rec.height == 0) EXPECT_EQ(rec.payload_bytes, 1024u + 12);
  }

  // The dissemination shows up in the structured trace.
  bool saw_announce = false, saw_resolve = false;
  for (const auto& ev : exp.trace_events()) {
    saw_announce |= ev.kind == obs::EventKind::kBatchAnnounced;
    saw_resolve |= ev.kind == obs::EventKind::kBatchResolved;
  }
  EXPECT_TRUE(saw_announce);
  EXPECT_TRUE(saw_resolve);
}

// ---- pull-based recovery ----------------------------------------------------

TEST(BatchRef, PullRecoversUnannouncedBatchesUnderMuteLeader) {
  // Announcements off: every ref proposal arrives before its batch, so
  // voters must miss, pull from the proposer, and vote only after the
  // push lands. A mute leader rides along (its rounds time out into the
  // usual recovery), proving the deferred-vote path does not wedge
  // liveness machinery.
  harness::ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = harness::Protocol::kFallback3;
  cfg.seed = 92;
  cfg.pcfg.batch_bytes = 1024;
  cfg.pcfg.batch_announce = false;
  cfg.faults[3] = core::FaultKind::kMuteLeader;
  cfg.make_delay = [] { return std::make_unique<net::FixedDelayModel>(1'000); };
  harness::Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(20, 120'000'000));
  EXPECT_TRUE(exp.check_safety().ok);

  std::uint64_t pulled = 0, misses = 0, announced = 0;
  for (ReplicaId id = 0; id < cfg.n; ++id) {
    pulled += exp.replica(id).stats().batches_pulled;
    misses += exp.replica(id).stats().batch_ref_misses;
    announced += exp.replica(id).stats().batches_announced;
  }
  EXPECT_EQ(announced, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(pulled, 0u);
}

// ---- differential determinism pin ------------------------------------------

/// Inline and reference modes must order the identical transaction
/// stream and commit it at identical virtual times: the j-th proposal
/// seals the j-th mempool batch either way, and on fixed-delay links the
/// extra announce traffic never sits on the critical path. Block ids DO
/// differ (payload_kind is part of the id), so the pin compares
/// everything else — including the executed payload bytes.
TEST(BatchRef, InlineAndReferenceModesCommitIdentically) {
  auto run = [](bool refs) {
    harness::ExperimentConfig cfg;
    cfg.n = 4;
    cfg.protocol = harness::Protocol::kFallback3;
    cfg.seed = 93;
    cfg.pcfg.batch_bytes = 1024;
    cfg.pcfg.batch_refs = refs;
    cfg.make_delay = [] { return std::make_unique<net::FixedDelayModel>(1'000); };
    auto exp = std::make_unique<harness::Experiment>(cfg);
    exp->start();
    exp->run_for(5'000'000);
    return exp;
  };
  auto inline_exp = run(false);
  auto ref_exp = run(true);

  for (ReplicaId id = 0; id < 4; ++id) {
    const auto& a = inline_exp->replica(id).ledger().records();
    const auto& b = ref_exp->replica(id).ledger().records();
    ASSERT_GT(a.size(), 10u) << "replica " << id;
    ASSERT_EQ(a.size(), b.size()) << "replica " << id;
    const auto& base_a = dynamic_cast<const ReplicaBase&>(inline_exp->replica(id));
    const auto& base_b = dynamic_cast<const ReplicaBase&>(ref_exp->replica(id));
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].round, b[i].round) << id << "/" << i;
      EXPECT_EQ(a[i].view, b[i].view) << id << "/" << i;
      EXPECT_EQ(a[i].height, b[i].height) << id << "/" << i;
      EXPECT_EQ(a[i].payload_bytes, b[i].payload_bytes) << id << "/" << i;
      EXPECT_EQ(a[i].commit_time, b[i].commit_time) << id << "/" << i;
      // Executed transaction bytes are byte-identical.
      const smr::Block* ba = base_a.store().get(a[i].id);
      const smr::Block* bb = base_b.store().get(b[i].id);
      ASSERT_NE(ba, nullptr);
      ASSERT_NE(bb, nullptr);
      EXPECT_EQ(ba->txns(), bb->txns()) << id << "/" << i;
    }
  }
  // And the reference run actually exercised the reference path.
  std::uint64_t hits = 0;
  for (ReplicaId id = 0; id < 4; ++id) hits += ref_exp->replica(id).stats().batch_ref_hits;
  EXPECT_GT(hits, 0u);
}

// ---- Byzantine bad-digest rejection -----------------------------------------

/// White-box rig (same shape as test_protocol_rules): replica 0 is the
/// unit under test, deliveries to 1..3 are captured.
struct Rig {
  sim::Simulation sim;
  std::shared_ptr<const crypto::CryptoSystem> crypto_sys;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<core::FallbackReplica> replica;
  std::vector<std::tuple<ReplicaId, ReplicaId, smr::Message>> captured;

  explicit Rig(core::ProtocolConfig pcfg = {}) {
    crypto_sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 777);
    net = std::make_unique<net::Network>(sim, 4, std::make_unique<net::FixedDelayModel>(1),
                                         Rng(1));
    core::ReplicaContext ctx;
    ctx.sim = &sim;
    ctx.net = net.get();
    ctx.crypto = crypto_sys;
    ctx.id = 0;
    ctx.config = pcfg;
    ctx.seed = 7;
    replica = std::make_unique<core::FallbackReplica>(ctx, core::FallbackParams{});
    net->register_handler(0, [this](ReplicaId from, const Bytes& payload) {
      replica->on_message(from, payload);
    });
    for (ReplicaId id = 1; id < 4; ++id) {
      net->register_handler(id, [this, id](ReplicaId from, const Bytes& payload) {
        captured.emplace_back(id, from, *smr::decode_message(payload));
      });
    }
  }

  void inject(ReplicaId from, smr::Message msg) {
    smr::sign_message(*crypto_sys, from, msg);
    net->send(from, 0, smr::encode_message(msg));
    settle();
  }

  void settle() { sim.run_until(sim.now() + 10'000); }

  template <typename T>
  std::vector<T> sent() const {
    std::vector<T> out;
    for (const auto& [to, from, msg] : captured) {
      if (const T* m = std::get_if<T>(&msg)) out.push_back(*m);
    }
    return out;
  }

  smr::Certificate make_qc(const smr::Block& b) const {
    std::vector<crypto::PartialSig> shares;
    const Bytes m =
        smr::cert_signing_message(smr::CertKind::kQuorum, b.id, b.round, b.view, 0, 0);
    for (ReplicaId i = 0; i < 3; ++i) {
      shares.push_back(crypto_sys->quorum_sigs.sign_share(i, m));
    }
    return *smr::combine_certificate(*crypto_sys, smr::CertKind::kQuorum, b.id, b.round,
                                     b.view, 0, 0, shares);
  }
};

TEST(BatchRef, ByzantineBadDigestNeverGetsAVote) {
  core::ProtocolConfig pcfg;
  pcfg.leader_rotation = 1;  // leader(2) = replica 1
  Rig rig(pcfg);
  rig.replica->start();
  rig.settle();  // replica 0 proposes round 1
  const auto proposals = rig.sent<smr::ProposalMsg>();
  ASSERT_FALSE(proposals.empty());
  const smr::Block b1 = proposals.front().block;

  // Round-2 proposal from the correct leader, referencing a digest that
  // matches NO batch: 32 bytes of garbage, id-consistent as a ref block.
  Bytes bogus_ref(32, 0xEE);
  smr::Block bad = smr::Block::make(rig.make_qc(b1), 2, 0, 0, /*proposer=*/1,
                                    std::move(bogus_ref), smr::kBatchRefPayload);
  smr::ProposalMsg msg;
  msg.block = bad;
  rig.inject(1, std::move(msg));

  // The replica entered round 2 but deferred the vote and started pulling.
  EXPECT_EQ(rig.replica->current_round(), 2u);
  EXPECT_FALSE(rig.sent<smr::BatchPullMsg>().empty());
  for (const auto& v : rig.sent<smr::VoteMsg>()) EXPECT_NE(v.round, 2u);

  // A push whose bytes hash elsewhere cannot satisfy the reference: the
  // store files data under its TRUE digest, so the bogus one stays
  // unresolved and the vote stays withheld.
  rig.inject(1, smr::BatchPushMsg{bytes_of(1036, 0x42)});
  for (const auto& v : rig.sent<smr::VoteMsg>()) EXPECT_NE(v.round, 2u);
  EXPECT_GT(rig.replica->stats().batch_ref_misses, 0u);

  // Liveness recovers through the ordinary round timeout, exactly as for
  // a withheld proposal: the replica times out of round 2 rather than
  // wedging on the unresolvable reference.
  rig.sim.run_until(rig.sim.now() + 600'000);
  EXPECT_FALSE(rig.sent<smr::FbTimeoutMsg>().empty());
}

/// A block that enters the store through catch-up (an unsolicited
/// BlockResponseMsg) never passed proposal authentication, so the
/// deferred batch-resolution retry must not vote on it — even when it is
/// id-consistent, names the correct leader as proposer, and its batch
/// later resolves. Without the vote-candidate gate a Byzantine peer
/// could harvest honest votes for blocks the leader never proposed.
TEST(BatchRef, CatchUpBlockNeverHarvestsDeferredVote) {
  core::ProtocolConfig pcfg;
  pcfg.leader_rotation = 1;  // leader(1) = replica 0, leader(2) = replica 1
  Rig rig(pcfg);
  rig.replica->start();
  rig.settle();  // replica 0 proposes round 1
  const auto proposals = rig.sent<smr::ProposalMsg>();
  ASSERT_FALSE(proposals.empty());
  const smr::Block b1 = proposals.front().block;

  // Advance replica 0 into round 2 by forming the round-1 QC from votes
  // (no round-2 proposal exists: leader 1 stays silent).
  const Bytes vote_msg =
      smr::cert_signing_message(smr::CertKind::kQuorum, b1.id, b1.round, b1.view, 0, 0);
  for (ReplicaId i = 1; i < 4; ++i) {
    smr::VoteMsg v;
    v.block_id = b1.id;
    v.round = b1.round;
    v.view = b1.view;
    v.share = rig.crypto_sys->quorum_sigs.sign_share(i, vote_msg);
    rig.inject(i, std::move(v));
  }
  ASSERT_EQ(rig.replica->current_round(), 2u);

  // Byzantine replica 2 injects an id-consistent ref block for round 2
  // naming the honest leader 1 as proposer — via catch-up, not a signed
  // proposal from leader 1 — then supplies the matching batch.
  Bytes batch = bytes_of(2048, 0x7A);
  const BatchId ref = Batch::compute_id(batch);
  smr::Block forged = smr::Block::make(rig.make_qc(b1), 2, 0, 0, /*proposer=*/1,
                                       Bytes(ref.begin(), ref.end()), smr::kBatchRefPayload);
  smr::BlockResponseMsg resp;
  resp.blocks.push_back(forged);
  rig.inject(2, std::move(resp));
  EXPECT_GT(rig.replica->stats().batch_ref_misses, 0u);  // the retry armed
  rig.inject(2, smr::BatchPushMsg{std::move(batch)});

  // The batch resolved the block, but the resolution retry finds no
  // authenticated proposal for it: no round-2 vote ever leaves.
  for (const auto& v : rig.sent<smr::VoteMsg>()) EXPECT_NE(v.round, 2u);
}

/// Pull responses are deduplicated per (peer, batch): a flood of
/// identical 36-byte pulls cannot multiply into a stream of full-batch
/// pushes (bandwidth amplification). Distinct peers are unaffected, and
/// the same peer may pull again once the cooldown window passes.
TEST(BatchRef, PullResponsesAreRateLimitedPerPeer) {
  core::ProtocolConfig pcfg;
  pcfg.leader_rotation = 1;
  pcfg.batch_bytes = 1024;  // the round-1 proposal seals + announces
  Rig rig(pcfg);
  rig.replica->start();
  rig.settle();
  const auto announced = rig.sent<smr::BatchMsg>();
  ASSERT_FALSE(announced.empty());
  const BatchId ref = Batch::compute_id(announced.front().data);

  auto pushes_to = [&](ReplicaId peer) {
    std::size_t count = 0;
    for (const auto& [to, from, msg] : rig.captured) {
      if (to == peer && std::holds_alternative<smr::BatchPushMsg>(msg)) ++count;
    }
    return count;
  };
  rig.inject(2, smr::BatchPullMsg{ref});
  rig.inject(2, smr::BatchPullMsg{ref});
  rig.inject(2, smr::BatchPullMsg{ref});
  EXPECT_EQ(pushes_to(2), 1u);
  EXPECT_EQ(rig.replica->stats().batch_pushes_suppressed, 2u);
  // A different peer's first pull answers immediately.
  rig.inject(3, smr::BatchPullMsg{ref});
  EXPECT_EQ(pushes_to(3), 1u);
  // Past the cooldown the original peer is served again (honest retries
  // rotate through all n replicas, landing far outside the window).
  rig.sim.run_until(rig.sim.now() + 2 * core::ReplicaBase::kBatchPullTimeoutUs);
  rig.inject(2, smr::BatchPullMsg{ref});
  EXPECT_EQ(pushes_to(2), 2u);
}

/// End-to-end adaptive sizing: with batch_bytes_max set and a deep client
/// backlog, the production proposal path (next_payload -> take_payload)
/// seals batches above the base size; with the knob off every committed
/// payload stays at exactly base + header.
TEST(AdaptiveBatch, ProposalPathGrowsBatchesUnderBacklog) {
  auto run = [](std::size_t max_bytes) {
    harness::ExperimentConfig cfg;
    cfg.n = 4;
    cfg.protocol = harness::Protocol::kFallback3;
    cfg.seed = 94;
    cfg.pcfg.batch_bytes = 1024;
    cfg.pcfg.batch_bytes_max = max_bytes;
    cfg.make_delay = [] { return std::make_unique<net::FixedDelayModel>(1'000); };
    auto exp = std::make_unique<harness::Experiment>(cfg);
    for (ReplicaId id = 0; id < 4; ++id) {
      dynamic_cast<ReplicaBase&>(exp->replica(id)).offer_transactions(1 << 20);
    }
    exp->start();
    exp->run_for(5'000'000);
    return exp;
  };
  auto base = run(0);
  auto adaptive = run(16 * 1024);
  auto max_payload = [](const harness::Experiment& exp) {
    std::size_t mx = 0;
    for (const auto& rec : exp.replica(0).ledger().records()) {
      mx = std::max<std::size_t>(mx, rec.payload_bytes);
    }
    return mx;
  };
  ASSERT_GT(base->replica(0).ledger().records().size(), 10u);
  EXPECT_EQ(max_payload(*base), 1024u + 12);
  EXPECT_GT(max_payload(*adaptive), 1024u + 12);
  EXPECT_LE(max_payload(*adaptive), 16u * 1024 + 12);
}

}  // namespace
}  // namespace repro
