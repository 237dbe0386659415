// Bounded live state (DESIGN.md §19): a replica's block store drops the
// dead fallback chains of every view below its committed tip's. These
// tests pin what that must never cost: the structural-lemma checker still
// finds every certified block (live or as a retired header), honest
// ledgers still agree, a request for a pruned block is ignored without
// harm, and a restarted replica still catches up from committed blocks.
#include <gtest/gtest.h>

#include "client/client_swarm.h"
#include "core/replica_base.h"
#include "harness/experiment.h"
#include "harness/invariants.h"

namespace repro::harness {
namespace {

const core::ReplicaBase& base(const Experiment& exp, ReplicaId id) {
  return dynamic_cast<const core::ReplicaBase&>(exp.replica(id));
}

/// Stored blocks that are neither committed nor genesis.
std::size_t uncommitted_live(const Experiment& exp, ReplicaId id) {
  const auto& r = base(exp, id);
  return r.store().block_count() - r.ledger().size() - 1;
}

TEST(BlockPruning, LongAsyncSystemKeepsLiveStateFlat) {
  // The sim_async_n16 system: Figure 2 at n=16 under asynchrony with
  // client load. Without pruning every fallback view leaves up to 16
  // dead f-chains in every store for good.
  ExperimentConfig cfg;
  cfg.n = 16;
  cfg.protocol = Protocol::kFallback3;
  cfg.scenario = NetScenario::kAsynchronous;
  cfg.seed = 7;
  client::ClientConfig ccfg;
  ccfg.num_clients = 16;
  ccfg.submit_interval = 8'000'000;
  ccfg.retry_timeout = 2'000'000;
  auto pools = std::make_shared<client::TxnPools>(cfg.n, ccfg.max_batch_txns);
  cfg.payload_factory = [pools](ReplicaId id) { return pools->next_batch(id); };
  Experiment exp(cfg);
  client::ClientSwarm swarm(exp, pools, ccfg, 2000);
  exp.start();
  swarm.start();

  // Sample the uncommitted live blocks of every replica at each 30th
  // commit; the last third of the run must not hold more than the first.
  constexpr std::size_t kTarget = 630;
  std::vector<std::size_t> peaks;
  for (std::size_t target = 30; target <= kTarget; target += 30) {
    ASSERT_TRUE(exp.run_until_commits(target, exp.sim().now() + 2'000'000'000'000ull))
        << "stalled before commit " << target;
    std::size_t peak = 0;
    for (ReplicaId id = 0; id < cfg.n; ++id) peak = std::max(peak, uncommitted_live(exp, id));
    peaks.push_back(peak);
  }
  const std::size_t third = peaks.size() / 3;
  const std::size_t first = *std::max_element(peaks.begin(), peaks.begin() + third);
  const std::size_t last = *std::max_element(peaks.end() - third, peaks.end());
  EXPECT_LE(last, first + first / 2) << "uncommitted live blocks grow with age";
  EXPECT_GT(base(exp, 0).store().floor(), 0u);
  EXPECT_FALSE(base(exp, 0).store().retired().empty());
  // The memory-audit gauge reads the same live counts.
  std::size_t live = 0;
  for (ReplicaId id = 0; id < cfg.n; ++id) live += base(exp, id).store().block_count();
  EXPECT_EQ(exp.registry().snapshot().value("repro_store_live_blocks"), live);

  EXPECT_TRUE(exp.check_safety().ok) << exp.check_safety().detail;
  const InvariantReport inv = check_invariants(exp);
  EXPECT_TRUE(inv.ok) << (inv.violations.empty() ? "" : inv.violations.front());
  EXPECT_GT(inv.certificates_examined, 0u);
  EXPECT_EQ(inv.certified_blocks_unchecked, 0u);
}

/// An n=4 asynchronous system run until every replica has pruned.
ExperimentConfig pruning_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kFallback3;
  cfg.scenario = NetScenario::kAsynchronous;
  cfg.seed = seed;
  cfg.enable_wal = true;
  return cfg;
}

void run_until_pruned(Experiment& exp) {
  for (std::size_t target = 10; target <= 200; target += 10) {
    ASSERT_TRUE(exp.run_until_commits(target, exp.sim().now() + 4'000'000'000ull));
    bool all = true;
    for (ReplicaId id = 0; id < exp.n(); ++id) {
      all = all && !base(exp, id).store().retired().empty();
    }
    if (all) return;
  }
  FAIL() << "no replica pruned a certified block in 200 commits";
}

/// Block-response messages sent so far.
std::uint64_t responses(Experiment& exp) {
  return exp.network().stats().messages_by_type[static_cast<std::size_t>(
      smr::MsgType::kBlockResponse)];
}

TEST(BlockPruning, RequestForPrunedBlockGetsNoReply) {
  Experiment exp(pruning_config(31));
  exp.start();
  run_until_pruned(exp);
  if (HasFatalFailure()) return;

  const auto& server = base(exp, 0);
  const smr::BlockId pruned = server.store().retired().front().id;
  ASSERT_FALSE(server.store().contains(pruned));
  const smr::BlockId committed = server.ledger().records().front().id;
  ASSERT_TRUE(server.store().contains(committed));

  auto request = [&](const smr::BlockId& id) {
    smr::Message msg = smr::BlockRequestMsg{id, 16};
    smr::sign_message(exp.crypto_sys(), 1, msg);
    exp.replica(0).on_message(1, smr::encode_message(msg));
  };
  const std::uint64_t before = responses(exp);
  request(pruned);
  EXPECT_EQ(responses(exp), before) << "a pruned block was served";
  // A committed block below the floor is still served (catch-up needs it).
  request(committed);
  EXPECT_EQ(responses(exp), before + 1);

  ASSERT_TRUE(exp.run_until_commits(exp.min_honest_commits() + 5,
                                    exp.sim().now() + 4'000'000'000ull));
  EXPECT_TRUE(exp.check_safety().ok);
}

TEST(BlockPruning, RestartedReplicaCatchesUpFromCommittedBlocks) {
  Experiment exp(pruning_config(32));
  exp.start();
  run_until_pruned(exp);
  if (HasFatalFailure()) return;

  // The restarted replica comes back with an empty store and ledger: its
  // whole chain must come from peers that have pruned everything but
  // their committed blocks below their floors.
  const std::size_t before = exp.max_honest_commits();
  ASSERT_TRUE(exp.restart_replica(3));
  EXPECT_EQ(exp.replica(3).ledger().size(), 0u);
  ASSERT_TRUE(exp.run_until_commits(before + 10, exp.sim().now() + 8'000'000'000ull));
  EXPECT_GE(exp.replica(3).ledger().size(), before + 10);
  EXPECT_TRUE(exp.check_safety().ok) << exp.check_safety().detail;
  const InvariantReport inv = check_invariants(exp);
  EXPECT_TRUE(inv.ok) << (inv.violations.empty() ? "" : inv.violations.front());
}

}  // namespace
}  // namespace repro::harness
