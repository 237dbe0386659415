// Tests for the client layer: submission, batching, f+1 confirmation,
// retries around crashed replicas, and end-to-end liveness through
// asynchrony.
#include <gtest/gtest.h>

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

TEST(TxnPools, BatchEncodingRoundTrips) {
  TxnPools pools(2, 10);
  const TxnId a = crypto::sha256_tagged("t", Bytes{1});
  const TxnId b = crypto::sha256_tagged("t", Bytes{2});
  pools.submit(0, a, Bytes{10, 11});
  pools.submit(0, b, Bytes{12});
  const Bytes batch = pools.next_batch(0);
  const auto ids = TxnPools::decode_txn_ids(batch);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], a);
  EXPECT_EQ(ids[1], b);
}

TEST(TxnPools, DrainRespectsMaxBatch) {
  TxnPools pools(1, 3);
  for (int i = 0; i < 10; ++i) {
    pools.submit(0, crypto::sha256_tagged("t", Bytes{std::uint8_t(i)}), Bytes{std::uint8_t(i)});
  }
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)).size(), 3u);
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)).size(), 3u);
}

TEST(TxnPools, DuplicateSubmitIgnored) {
  TxnPools pools(1, 10);
  const TxnId a = crypto::sha256_tagged("t", Bytes{1});
  pools.submit(0, a, Bytes{1});
  pools.submit(0, a, Bytes{1});
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)).size(), 1u);
}

TEST(TxnPools, DrainedTxnCanBeSubmittedAgain) {
  TxnPools pools(2, 10);
  const TxnId a = crypto::sha256_tagged("t", Bytes{1});
  pools.submit(0, a, Bytes{1});
  pools.submit(1, a, Bytes{1});  // pools dedup per replica only
  ASSERT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)), (std::vector<TxnId>{a}));
  // Drained from replica 0: a retry lands there again and is queued.
  pools.submit(0, a, Bytes{1});
  pools.submit(0, a, Bytes{1});
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(0)), (std::vector<TxnId>{a}));
  EXPECT_TRUE(TxnPools::decode_txn_ids(pools.next_batch(0)).empty());
  EXPECT_EQ(TxnPools::decode_txn_ids(pools.next_batch(1)), (std::vector<TxnId>{a}));
}

TEST(TxnPools, DedupsAcrossALargeQueue) {
  constexpr std::size_t kTxns = 5000;
  constexpr std::size_t kBatch = 64;
  TxnPools pools(1, kBatch);
  const auto id_of = [](std::size_t i) {
    Encoder enc;
    enc.u64(i);
    return crypto::sha256_tagged("t", enc.result());
  };
  for (std::size_t i = 0; i < kTxns; ++i) pools.submit(0, id_of(i), Bytes{1});
  // Every txn resubmitted — the oldest, the newest and all between.
  for (std::size_t i = kTxns; i-- > 0;) pools.submit(0, id_of(i), Bytes{1});
  std::vector<TxnId> drained;
  for (;;) {
    const auto ids = TxnPools::decode_txn_ids(pools.next_batch(0));
    if (ids.empty()) break;
    drained.insert(drained.end(), ids.begin(), ids.end());
  }
  ASSERT_EQ(drained.size(), kTxns);
  for (std::size_t i = 0; i < kTxns; ++i) EXPECT_EQ(drained[i], id_of(i)) << i;
}

TEST(TxnPools, EmptyPoolGivesEmptyBatch) {
  TxnPools pools(1, 10);
  EXPECT_TRUE(TxnPools::decode_txn_ids(pools.next_batch(0)).empty());
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
  // Txns initially sent to the crashed replica confirm via retries.
  EXPECT_GT(st.confirmed, 20u);
  EXPECT_GT(st.retries, 0u);
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
