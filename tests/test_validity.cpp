// External validity (paper §2, validated BFT SMR): with a predicate
// installed, honest replicas never vote for — and therefore never commit —
// a block whose batch fails it, while liveness continues around the
// invalid proposer.
#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace repro::harness {
namespace {

/// Test predicate: batches must not start with 0xFF (the convention the
/// kInvalidTxns fault injector uses).
bool no_ff_prefix(BytesView payload) {
  return payload.empty() || payload[0] != 0xFF;
}

ExperimentConfig validity_config(Protocol p, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = p;
  cfg.seed = seed;
  cfg.pcfg.batch_bytes = 32;
  cfg.pcfg.external_validator = no_ff_prefix;
  return cfg;
}

void expect_all_committed_valid(Experiment& exp) {
  for (ReplicaId id = 0; id < exp.n(); ++id) {
    if (!exp.is_honest(id)) continue;
    const auto& base = dynamic_cast<const core::ReplicaBase&>(exp.replica(id));
    for (const auto& rec : exp.replica(id).ledger().records()) {
      const smr::Block* b = base.store().get(rec.id);
      ASSERT_NE(b, nullptr);
      EXPECT_TRUE(no_ff_prefix(*b->payload)) << "invalid batch committed!";
    }
  }
}

TEST(ExternalValidity, HonestRunsAreUnaffected) {
  Experiment exp(validity_config(Protocol::kFallback3, 1));
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(30, 120'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
  expect_all_committed_valid(exp);
}

TEST(ExternalValidity, InvalidProposerNeverGetsCommitted) {
  auto cfg = validity_config(Protocol::kFallback3, 2);
  cfg.faults[1] = core::FaultKind::kInvalidTxns;
  Experiment exp(cfg);
  exp.start();
  // The invalid proposer's rounds time out (nobody votes), pushing the
  // system through fallbacks, but it keeps committing valid blocks.
  ASSERT_TRUE(exp.run_until_commits(20, 600'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
  expect_all_committed_valid(exp);
  // And none of the committed blocks were proposed by the faulty replica
  // in the steady state (its fallback chains can win the coin, but even
  // those blocks carry the 0xFF prefix and are thus never voted).
  std::uint64_t fallbacks = 0;
  for (ReplicaId id = 0; id < 4; ++id) {
    if (exp.is_honest(id)) fallbacks += exp.replica(id).stats().fallbacks_entered;
  }
  EXPECT_GT(fallbacks, 0u);  // the invalid leader forced view changes
}

TEST(ExternalValidity, DiemBftRejectsInvalidBatchesToo) {
  auto cfg = validity_config(Protocol::kDiemBft, 3);
  cfg.faults[2] = core::FaultKind::kInvalidTxns;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(20, 600'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
  expect_all_committed_valid(exp);
}

TEST(ExternalValidity, FallbackChainsAlsoChecked) {
  // Under asynchrony everything commits through fallback chains; the
  // predicate must hold there as well (Fallback Vote checks it).
  auto cfg = validity_config(Protocol::kFallback3, 4);
  cfg.scenario = NetScenario::kAsynchronous;
  cfg.faults[3] = core::FaultKind::kInvalidTxns;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(4, 8'000'000'000ull));
  EXPECT_TRUE(exp.check_safety().ok);
  expect_all_committed_valid(exp);
}

}  // namespace
}  // namespace repro::harness
