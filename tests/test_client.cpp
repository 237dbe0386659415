// Tests for the client layer: submission, batching, f+1 confirmation,
// retries around crashed replicas, and end-to-end liveness through
// asynchrony.
#include <gtest/gtest.h>

#include <bit>

#include "client/client_swarm.h"

namespace repro::client {
namespace {

using harness::Experiment;
using harness::ExperimentConfig;
using harness::NetScenario;
using harness::Protocol;

struct Rig {
  std::shared_ptr<TxnPools> pools;
  std::unique_ptr<Experiment> exp;
  std::unique_ptr<ClientSwarm> swarm;

  explicit Rig(ExperimentConfig cfg, ClientConfig ccfg = {}) {
    pools = std::make_shared<TxnPools>(cfg.n, ccfg.max_batch_txns);
    auto pools_copy = pools;
    cfg.payload_factory = [pools_copy](ReplicaId id) { return pools_copy->next_batch(id); };
    exp = std::make_unique<Experiment>(cfg);
    swarm = std::make_unique<ClientSwarm>(*exp, pools, ccfg, cfg.seed ^ 0xc11e47);
  }

  void run(SimTime duration) {
    exp->start();
    swarm->start();
    exp->sim().run_until(duration);
  }
};

// ---- TxnPools unit behaviour -------------------------------------------------

/// A distinct body per index; its id is txn_id(body_of(i)).
Bytes body_of(std::size_t i) {
  Encoder enc;
  enc.u64(i);
  return std::move(enc).result();
}

TxnId id_of(std::size_t i) { return txn_id(body_of(i)); }

TEST(TxnPools, BatchEncodingRoundTrips) {
  TxnPools pools(2, 10);
  const TxnId a = txn_id(Bytes{10, 11});
  const TxnId b = txn_id(Bytes{12});
  pools.submit({0}, Bytes{10, 11});
  pools.submit({0}, Bytes{12});
  const Bytes batch = pools.next_batch(0);
  const auto ids = TxnPools::decode_txn_ids(batch);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], a);
  EXPECT_EQ(ids[1], b);
}

TEST(TxnPools, DrainRespectsMaxBatch) {
  TxnPools pools(1, 3);
  for (int i = 0; i < 10; ++i) pools.submit({0}, Bytes{std::uint8_t(i)});
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)).size(), 3u);
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)).size(), 3u);
}

TEST(TxnPools, DuplicateSubmitIgnored) {
  TxnPools pools(1, 10);
  pools.submit({0}, Bytes{1});
  pools.submit({0}, Bytes{1});
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)).size(), 1u);
}

TEST(TxnPools, ProposedTxnStaysQueuedUntilItsReplicaRetiresIt) {
  TxnPools pools(2, 10);
  const TxnId a = txn_id(Bytes{1});
  pools.submit({0, 1}, Bytes{1});  // one RPC, both pools
  pools.submit({1}, Bytes{1});     // pools dedup per replica
  ASSERT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)), (std::vector<TxnId>{a}));
  // Proposing takes nothing out: the next block proposes it again, and a
  // retry landing there is deduplicated.
  EXPECT_TRUE(pools.holds(0, a));
  pools.submit({0}, Bytes{1});
  EXPECT_EQ(pools.size(0), 1u);
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)), (std::vector<TxnId>{a}));
  // Replica 0 commits it: gone there, still queued at replica 1.
  pools.retire(0, {a});
  EXPECT_TRUE(TxnPools::decode_txn_ids(pools.next_batch(0)).empty());
  EXPECT_FALSE(pools.holds(0, a));
  EXPECT_TRUE(pools.holds(1, a));
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(1)), (std::vector<TxnId>{a}));
}

TEST(TxnPools, RecentlyRetiredTxnIsRefused) {
  // max_batch 2: the window holds the last kRetiredBatches * 2 = 8 ids.
  TxnPools pools(2, 2);
  constexpr std::size_t kWindow = TxnPools::kRetiredBatches * 2;
  std::vector<TxnId> committed;
  for (std::size_t i = 0; i <= kWindow; ++i) committed.push_back(id_of(i));
  pools.retire(0, committed);
  // A retry that raced replica 0's commit reaches both pools: replica 0
  // refuses it, replica 1 (which has not committed it) queues it.
  pools.submit({0, 1}, body_of(kWindow));
  EXPECT_FALSE(pools.holds(0, id_of(kWindow)));
  EXPECT_TRUE(pools.holds(1, id_of(kWindow)));
  for (std::size_t i = 1; i <= kWindow; ++i) pools.submit({0}, body_of(i));
  EXPECT_EQ(pools.size(0), 0u);
  // The window is bounded: txn 0 left it and is queued again. Retiring an
  // id that is still in the window does not push another one out.
  pools.retire(0, {id_of(1)});
  pools.submit({0}, body_of(1));
  EXPECT_EQ(pools.size(0), 0u);
  pools.submit({0}, body_of(0));
  EXPECT_TRUE(pools.holds(0, id_of(0)));
}

TEST(TxnPools, DedupsAcrossALargeQueue) {
  constexpr std::size_t kTxns = 5000;
  constexpr std::size_t kBatch = 64;
  TxnPools pools(1, kBatch);
  for (std::size_t i = 0; i < kTxns; ++i) pools.submit({0}, body_of(i));
  // Every txn resubmitted — the oldest, the newest and all between.
  for (std::size_t i = kTxns; i-- > 0;) pools.submit({0}, body_of(i));
  EXPECT_EQ(pools.size(0), kTxns);
  // Propose and commit batch after batch: each takes the oldest txns.
  std::vector<TxnId> drained;
  for (;;) {
    const auto ids = TxnPools::decode_txn_ids(pools.next_batch(0));
    if (ids.empty()) break;
    drained.insert(drained.end(), ids.begin(), ids.end());
    pools.retire(0, ids);
  }
  ASSERT_EQ(drained.size(), kTxns);
  for (std::size_t i = 0; i < kTxns; ++i) EXPECT_EQ(drained[i], id_of(i)) << i;
}

TEST(TxnPools, FullPoolDropsItsOldestTxn) {
  TxnPools pools(1, 1);
  ASSERT_EQ(pools.capacity(), TxnPools::kCapacityBatches);
  const std::size_t cap = pools.capacity();
  for (std::size_t i = 0; i < cap + 2; ++i) pools.submit({0}, body_of(i));
  EXPECT_EQ(pools.size(0), cap);
  // The two oldest went; a dropped txn's retry is queued again (newest).
  pools.submit({0}, body_of(0));
  EXPECT_EQ(pools.size(0), cap);
  std::vector<TxnId> drained;
  while (pools.size(0) > 0) {
    drained.push_back(TxnPools::decode_txn_ids(pools.next_batch(0)).at(0));
    pools.retire(0, {drained.back()});
  }
  ASSERT_EQ(drained.size(), cap);
  EXPECT_EQ(drained.front(), id_of(3));
  EXPECT_EQ(drained[cap - 2], id_of(cap + 1));
  EXPECT_EQ(drained.back(), id_of(0));
}

TEST(TxnPools, BatchCarriesEachBodyOnceAndNoIds) {
  TxnPools pools(1, 10);
  const std::vector<Bytes> bodies = {Bytes{1}, Bytes(64, 7), Bytes{}, Bytes(13, 2)};
  std::size_t expected = 4;  // u32 count
  for (const Bytes& b : bodies) {
    pools.submit({0}, b);
    expected += 4 + b.size();  // u32 length + body
  }
  const Bytes batch = pools.next_batch(0);
  EXPECT_EQ(batch.size(), expected);
  EXPECT_EQ(TxnPools::decode_txn_payloads(batch), bodies);
}

TEST(TxnPools, DecodedIdsAreDerivedFromTheBodies) {
  TxnPools pools(1, 10);
  for (std::size_t i = 0; i < 5; ++i) pools.submit({0}, body_of(i));
  const Bytes batch = pools.next_batch(0);
  const auto ids = TxnPools::decode_txn_ids(batch);
  const auto bodies = TxnPools::decode_txn_payloads(batch);
  ASSERT_EQ(ids.size(), 5u);
  ASSERT_EQ(bodies.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ids[i], txn_id(bodies[i])) << i;
    EXPECT_EQ(ids[i], id_of(i)) << i;
    // The tag and layout perfbench's tracker re-derives ids with.
    EXPECT_EQ(ids[i], crypto::sha256_tagged("repro/txn", body_of(i))) << i;
  }
}

TEST(TxnPools, TruncatedBatchDecodesToACleanPrefix) {
  TxnPools pools(1, 10);
  for (std::size_t i = 0; i < 3; ++i) pools.submit({0}, body_of(i));
  const Bytes batch = pools.next_batch(0);
  const std::size_t entry = 4 + body_of(0).size();
  ASSERT_EQ(batch.size(), 4 + 3 * entry);
  for (std::size_t cut = 0; cut < batch.size(); ++cut) {
    const BytesView head(batch.data(), cut);
    const std::size_t whole = cut < 4 ? 0 : (cut - 4) / entry;
    const auto ids = TxnPools::decode_txn_ids(head);
    ASSERT_EQ(ids.size(), whole) << cut;
    for (std::size_t i = 0; i < whole; ++i) EXPECT_EQ(ids[i], id_of(i)) << cut;
    EXPECT_EQ(TxnPools::decode_txn_payloads(head).size(), whole) << cut;
  }
}

TEST(TxnPools, AlteredBodyNeverYieldsTheSubmittedId) {
  TxnPools pools(1, 10);
  const Bytes body = body_of(42);
  pools.submit({0}, body);
  const Bytes batch = pools.next_batch(0);
  ASSERT_EQ(TxnPools::decode_txn_ids(batch), (std::vector<TxnId>{txn_id(body)}));
  // Flip each body byte in turn: the decoded id is never the submitted
  // one, so an ack for the altered copy matches no in-flight txn.
  for (std::size_t pos = 8; pos < batch.size(); ++pos) {
    Bytes altered = batch;
    altered[pos] ^= 0x01;
    const auto ids = TxnPools::decode_txn_ids(altered);
    ASSERT_EQ(ids.size(), 1u) << pos;
    EXPECT_NE(ids[0], txn_id(body)) << pos;
  }
}

TEST(TxnPools, RetireDropsOnlyTheCommittingReplicasCopies) {
  TxnPools pools(2, 1);
  const std::size_t cap = pools.capacity();
  for (std::size_t i = 0; i < cap; ++i) pools.submit({0, 1}, body_of(i));
  // Replica 0 commits a block holding txns 0..9 and one it never queued.
  std::vector<TxnId> block;
  for (std::size_t i = 0; i < 10; ++i) block.push_back(id_of(i));
  block.push_back(id_of(cap + 100));
  pools.retire(0, block);
  EXPECT_EQ(pools.size(0), cap - 10);
  EXPECT_EQ(pools.size(1), cap);
  // A txn among the last 4 retired ids (4 blocks of one txn) is refused;
  // one retired before them can be queued again, and the freed room is
  // real: ten new txns fit without dropping the oldest survivor.
  pools.submit({0}, body_of(9));
  EXPECT_EQ(pools.size(0), cap - 10);
  pools.submit({0}, body_of(0));
  EXPECT_EQ(pools.size(0), cap - 9);
  for (std::size_t i = cap; i < cap + 9; ++i) pools.submit({0}, body_of(i));
  EXPECT_EQ(pools.size(0), cap);
  pools.retire(0, {});
  EXPECT_EQ(pools.size(0), cap);
  std::vector<TxnId> drained;
  while (pools.size(0) > 0) {
    drained.push_back(TxnPools::decode_txn_ids(pools.next_batch(0)).at(0));
    pools.retire(0, {drained.back()});
  }
  ASSERT_EQ(drained.size(), cap);
  EXPECT_EQ(drained.front(), id_of(10));
  EXPECT_EQ(drained[cap - 10], id_of(0));
  EXPECT_EQ(drained.back(), id_of(cap + 8));
  EXPECT_TRUE(TxnPools::decode_txn_ids(pools.next_batch(0)).empty());
  // Replica 1's copies are untouched and still in order.
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(1)), (std::vector<TxnId>{id_of(0)}));
  EXPECT_EQ(pools.size(1), cap);
}

TEST(TxnPools, EmptyPoolGivesEmptyBatch) {
  TxnPools pools(1, 10);
  EXPECT_TRUE(TxnPools::decode_txn_ids(pools.next_batch(0)).empty());
}

/// Serves one fixed pending chain to every proposer.
TxnPools::PendingIds pending_chain(const std::vector<TxnId>& chain) {
  return [chain](ReplicaId, std::vector<TxnId>& out) {
    out.insert(out.end(), chain.begin(), chain.end());
    return true;
  };
}

std::vector<TxnId> ids_of(std::initializer_list<std::size_t> indices) {
  std::vector<TxnId> ids;
  for (std::size_t i : indices) ids.push_back(id_of(i));
  return ids;
}

TEST(TxnPools, PendingChainTxnsAreSkippedAndStayQueuedInOrder) {
  TxnPools pools(1, 3);
  for (std::size_t i = 0; i < 6; ++i) pools.submit({0}, body_of(i));
  // The chain the new block extends carries txns 1 and 3, and one the
  // pool never queued.
  pools.set_pending_ids(pending_chain(ids_of({1, 3, 99})));
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)), ids_of({0, 2, 4}));
  EXPECT_EQ(pools.size(0), 6u);
  // That block commits: the next batch takes what is left unskipped.
  pools.retire(0, ids_of({0, 2, 4}));
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)), ids_of({5}));
  pools.retire(0, ids_of({5}));
  EXPECT_TRUE(TxnPools::decode_txn_ids(pools.next_batch(0)).empty());
  EXPECT_EQ(pools.size(0), 2u);
  // Still queued: a retry of a skipped txn is deduplicated.
  pools.submit({0}, body_of(3));
  EXPECT_EQ(pools.size(0), 2u);
  // The branch stops being pending (abandoned): the next batch takes the
  // skipped txns, oldest first.
  pools.set_pending_ids(pending_chain({}));
  pools.submit({0}, body_of(6));
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)), ids_of({1, 3, 6}));
  EXPECT_EQ(pools.size(0), 3u);
}

TEST(TxnPools, PendingChainThatCommitsRetiresItsSkippedTxns) {
  TxnPools pools(1, 8);
  for (std::size_t i = 0; i < 4; ++i) pools.submit({0}, body_of(i));
  pools.set_pending_ids(pending_chain(ids_of({0, 2})));
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)), ids_of({1, 3}));
  // The branch commits at this replica: retire drops what it skipped, and
  // only what the new block carries is left.
  pools.retire(0, ids_of({0, 2}));
  pools.set_pending_ids(pending_chain({}));
  EXPECT_EQ(pools.size(0), 2u);
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)), ids_of({1, 3}));
  pools.retire(0, ids_of({1, 3}));
  EXPECT_EQ(pools.size(0), 0u);
  EXPECT_TRUE(TxnPools::decode_txn_ids(pools.next_batch(0)).empty());
}

TEST(TxnPools, PoolWithoutPendingViewDrainsInOrder) {
  TxnPools without(1, 3), with_view(1, 3);
  for (std::size_t i = 0; i < 7; ++i) {
    without.submit({0}, body_of(i));
    with_view.submit({0}, body_of(i));
  }
  // A pending chain that holds none of the queued txns changes no batch.
  // Each batch commits before the next is built.
  with_view.set_pending_ids(pending_chain(ids_of({98, 99})));
  for (const auto& expected : {ids_of({0, 1, 2}), ids_of({3, 4, 5}), ids_of({6})}) {
    const Bytes batch = without.next_batch(0);
    EXPECT_EQ(TxnPools::decode_txn_ids(batch), expected);
    EXPECT_EQ(with_view.next_batch(0), batch);
    without.retire(0, expected);
    with_view.retire(0, expected);
  }
  EXPECT_EQ(without.size(0), 0u);
  EXPECT_EQ(with_view.size(0), 0u);
}

TEST(TxnPools, CutPendingChainGivesAnEmptyBatch) {
  // A leader can form QC(r) before block r reaches it: the chain its new
  // block extends is cut, and it cannot know which queued txns that chain
  // carries. Proposing none keeps a txn from committing twice.
  TxnPools pools(1, 4);
  for (std::size_t i = 0; i < 3; ++i) pools.submit({0}, body_of(i));
  bool cut = true;
  pools.set_pending_ids([&cut](ReplicaId, std::vector<TxnId>& out) {
    out.push_back(id_of(1));
    return !cut;
  });
  EXPECT_TRUE(TxnPools::decode_txn_ids(pools.next_batch(0)).empty());
  EXPECT_EQ(pools.size(0), 3u);
  // The missing block arrives: the walk is whole again.
  cut = false;
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)), ids_of({0, 2}));
}

// ---- end-to-end -----------------------------------------------------------------

TEST(ClientSwarm, TransactionsConfirmUnderSynchrony) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kFallback3;
  cfg.seed = 5;
  Rig rig(cfg);
  rig.run(20'000'000);
  const auto& st = rig.swarm->stats();
  EXPECT_GT(st.submitted, 50u);
  EXPECT_GT(st.confirmed, 40u);
  // Confirmations require f+1 = 2 acks; latency must be positive and sane.
  for (SimTime lat : st.confirm_latencies_us) {
    EXPECT_GT(lat, 0u);
    EXPECT_LT(lat, 10'000'000u);
  }
  EXPECT_TRUE(rig.exp->check_safety().ok);
}

TEST(ClientSwarm, ConfirmsDespiteCrashedReplica) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kFallback3;
  cfg.seed = 6;
  cfg.faults[2] = core::FaultKind::kCrash;
  ClientConfig ccfg;
  ccfg.num_clients = 4;
  Rig rig(cfg, ccfg);
  rig.run(40'000'000);
  const auto& st = rig.swarm->stats();
  // Txns confirm on the live replicas' acks; the unconfirmed ones are
  // resent to the replicas that have not acked, the crashed one included.
  EXPECT_GT(st.confirmed, 20u);
  EXPECT_GT(st.retries, 0u);
}

TEST(ClientSwarm, CrashedReplicaPoolsStayWithinTheCap) {
  // f=5 of 16 replicas crashed: every submit reaches their pools, which
  // nobody drains. The cap bounds those pools; the txns they drop are
  // still queued at the live replicas.
  ExperimentConfig cfg;
  cfg.n = 16;
  cfg.protocol = Protocol::kFallback3;
  cfg.seed = 11;
  for (ReplicaId id = 11; id < 16; ++id) cfg.faults[id] = core::FaultKind::kCrash;
  ClientConfig ccfg;
  ccfg.num_clients = 16;
  ccfg.submit_interval = 100'000;
  ccfg.max_batch_txns = 4;
  Rig rig(cfg, ccfg);
  const std::size_t cap = rig.pools->capacity();
  rig.exp->start();
  rig.swarm->start();
  std::uint64_t confirmed = 0;
  std::size_t crashed_peak = 0;
  for (int step = 0; step < 4; ++step) {
    rig.exp->sim().run_until(rig.exp->sim().now() + 20'000'000);
    for (ReplicaId id = 0; id < cfg.n; ++id) EXPECT_LE(rig.pools->size(id), cap) << id;
    for (ReplicaId id = 11; id < 16; ++id) {
      crashed_peak = std::max(crashed_peak, rig.pools->size(id));
    }
    EXPECT_GT(rig.swarm->stats().confirmed, confirmed) << "no confirmation in step " << step;
    confirmed = rig.swarm->stats().confirmed;
  }
  EXPECT_EQ(crashed_peak, cap) << "the cap never bound";
  EXPECT_TRUE(rig.exp->check_safety().ok);
}

TEST(ClientSwarm, ConfirmsThroughAsynchrony) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kFallback3;
  cfg.scenario = NetScenario::kAsynchronous;
  cfg.seed = 7;
  ClientConfig ccfg;
  ccfg.num_clients = 2;
  ccfg.submit_interval = 500'000;
  ccfg.retry_timeout = 10'000'000;
  Rig rig(cfg, ccfg);
  rig.run(120'000'000);
  EXPECT_GT(rig.swarm->stats().confirmed, 5u);
  EXPECT_TRUE(rig.exp->check_safety().ok);
}

/// The sim_async_n16 shape, shortened: n=16 Figure 2 under asynchrony,
/// 16 clients submitting until `submit_until`, then a drain to `end`
/// while they keep going. An outside tally reads every committed block,
/// applies the f+1 rule per txn, and counts the copies a replica commits
/// of a txn it had already committed.
struct AsyncN16Run {
  std::vector<std::uint32_t> committed_by;  ///< per txn sequence: replica bitmask
  std::uint64_t copies = 0, duplicates = 0;
  std::uint64_t submitted = 0;  ///< txns submitted by submit_until
  ClientStats stats;
  bool safe = false;

  /// Txns submitted by submit_until that fewer than f+1 replicas committed.
  std::uint64_t unconfirmed() const {
    const int quorum = static_cast<int>(QuorumParams::for_n(16).f + 1);
    std::uint64_t out = 0;
    for (std::uint64_t seq = 0; seq < submitted; ++seq) {
      out += seq >= committed_by.size() || std::popcount(committed_by[seq]) < quorum;
    }
    return out;
  }
};

AsyncN16Run run_async_n16(const ClientConfig& ccfg, SimTime submit_until, SimTime end) {
  ExperimentConfig cfg;
  cfg.n = 16;
  cfg.protocol = Protocol::kFallback3;
  cfg.scenario = NetScenario::kAsynchronous;
  cfg.seed = 7;
  AsyncN16Run out;
  Experiment* exp = nullptr;
  cfg.on_commit = [&](ReplicaId id, const smr::CommitRecord& rec) {
    const auto& base = dynamic_cast<const core::ReplicaBase&>(exp->replica(id));
    const smr::Block* block = base.store().get(rec.id);
    ASSERT_NE(block, nullptr);
    for (const Bytes& body : TxnPools::decode_txn_payloads(block->txns())) {
      Decoder dec(body);
      ASSERT_TRUE(dec.u32().has_value());  // client
      const auto seq = dec.u64();
      ASSERT_TRUE(seq.has_value());
      if (*seq >= out.committed_by.size()) out.committed_by.resize(*seq + 1, 0);
      ++out.copies;
      if (out.committed_by[*seq] & (1u << id)) ++out.duplicates;
      out.committed_by[*seq] |= 1u << id;
    }
  };
  Rig rig(cfg, ccfg);
  exp = rig.exp.get();
  rig.exp->start();
  rig.swarm->start();
  rig.exp->sim().run_until(submit_until);
  out.submitted = rig.swarm->stats().submitted;
  rig.exp->sim().run_until(end);
  out.stats = rig.swarm->stats();
  out.safe = rig.exp->check_safety().ok;
  return out;
}

TEST(ClientSwarm, AsynchronousN16ConfirmsEveryTxnAndRetiresCommittedOnes) {
  ClientConfig ccfg;
  ccfg.num_clients = 16;
  ccfg.submit_interval = 8'000'000;  // 2 tx/s in total
  ccfg.retry_timeout = 2'000'000;
  const AsyncN16Run run = run_async_n16(ccfg, 400'000'000, 700'000'000);
  EXPECT_GT(run.submitted, 50u);
  EXPECT_EQ(run.stats.bad_proofs, 0u);
  EXPECT_GE(run.stats.confirmed, run.submitted);
  EXPECT_EQ(run.unconfirmed(), 0u);
  // A replica drops the txns it commits from its own pool and refuses them
  // for a while after (DESIGN.md §20.5), and a proposer skips the txns
  // the chain it extends carries (§20.4). With the drop alone this run
  // once committed 7 488 duplicates in 28 528 copies: txns of view v's
  // chain, still uncommitted, proposed again in view v+1's f-blocks.
  EXPECT_EQ(run.duplicates, 0u) << run.copies << " copies";
  EXPECT_TRUE(run.safe);
}

TEST(ClientSwarm, LosingChainsTxnsConfirmWithoutARetry) {
  // Every pool holds a txn until its replica commits it, so a txn that
  // rode only in f-chains that lost the coin is proposed again in the
  // next view. No client retry is needed: the first one would fire long
  // after the run. Popping a txn from the pool when it is proposed
  // instead leaves some txns in no pool at all.
  ClientConfig ccfg;
  ccfg.num_clients = 16;
  ccfg.submit_interval = 2'000'000;  // 8 tx/s in total
  ccfg.retry_timeout = 100'000'000'000;
  const AsyncN16Run run = run_async_n16(ccfg, 200'000'000, 500'000'000);
  EXPECT_GT(run.submitted, 1500u);
  EXPECT_EQ(run.stats.retries, 0u);
  EXPECT_EQ(run.unconfirmed(), 0u) << "of " << run.submitted;
  EXPECT_EQ(run.duplicates, 0u) << run.copies << " copies";
  EXPECT_TRUE(run.safe);
}

TEST(ClientSwarm, RestartedReplicaStillAcksAndRetires) {
  // Replica 0 crashes and recovers from its WAL at 5 s; its new instance
  // commits again from genesis. Every copy any replica commits, before
  // or after the restart, draws one ack, and the committing replica's
  // pool no longer holds the block's txns once the commit is through.
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kFallback3;
  cfg.seed = 12;
  cfg.enable_wal = true;
  std::uint64_t copies = 0, still_queued = 0;
  Rig* rig_ptr = nullptr;
  cfg.on_commit = [&](ReplicaId id, const smr::CommitRecord& rec) {
    const auto& base = dynamic_cast<const core::ReplicaBase&>(rig_ptr->exp->replica(id));
    const smr::Block* block = base.store().get(rec.id);
    ASSERT_NE(block, nullptr);
    for (const TxnId& txn : TxnPools::decode_txn_ids(block->txns())) {
      ++copies;
      if (rig_ptr->pools->holds(id, txn)) ++still_queued;
    }
  };
  ClientConfig ccfg;
  ccfg.retry_timeout = 100'000;  // retries put txns in every pool
  Rig rig(cfg, ccfg);
  rig_ptr = &rig;
  rig.exp->start();
  rig.swarm->start();
  rig.exp->sim().run_until(5'000'000);
  const std::size_t before_restart = rig.exp->replica(0).ledger().size();
  ASSERT_TRUE(rig.exp->restart_replica(0));
  rig.exp->sim().run_until(15'000'000);
  EXPECT_GT(rig.exp->replica(0).ledger().size(), before_restart + 50);
  const auto& st = rig.swarm->stats();
  EXPECT_EQ(st.acks, copies);
  EXPECT_EQ(still_queued, 0u);
  EXPECT_TRUE(rig.exp->check_safety().ok);
}

TEST(ClientSwarm, NoConfirmationWithoutQuorumOfAcks) {
  // With DiemBFT under leader attack nothing commits, so nothing confirms
  // even though submissions and retries keep happening.
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kDiemBft;
  cfg.scenario = NetScenario::kLeaderAttack;
  cfg.seed = 8;
  ClientConfig ccfg;
  ccfg.num_clients = 2;
  ccfg.submit_interval = 1'000'000;
  Rig rig(cfg, ccfg);
  rig.run(60'000'000);
  EXPECT_EQ(rig.swarm->stats().confirmed, 0u);
  EXPECT_GT(rig.swarm->stats().retries, 0u);
  EXPECT_GT(rig.swarm->in_flight(), 0u);
}

TEST(ClientSwarm, CommittedPayloadsMatchSubmittedTxns) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kFallback3;
  cfg.seed = 9;
  Rig rig(cfg);
  rig.run(10'000'000);
  // Every committed batch decodes cleanly into txn records.
  const auto& base = dynamic_cast<const core::ReplicaBase&>(rig.exp->replica(0));
  std::size_t txns = 0;
  for (const auto& rec : rig.exp->replica(0).ledger().records()) {
    const smr::Block* b = base.store().get(rec.id);
    ASSERT_NE(b, nullptr);
    txns += TxnPools::decode_txn_ids(*b->payload).size();
  }
  EXPECT_GT(txns, 0u);
  EXPECT_LE(txns, rig.swarm->stats().submitted);
}

}  // namespace
}  // namespace repro::client
