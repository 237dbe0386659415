// Soak tests: long runs (thousands of commits) mixing network phases,
// faults and crash-restarts, asserting safety, the structural lemmas and
// bounded replica memory (the pool-pruning paths actually execute).
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/invariants.h"

namespace repro::harness {
namespace {

TEST(Soak, TwoThousandCommitsSteadyState) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kFallback3;
  cfg.seed = 1001;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(2000, 600'000'000'000ull));
  EXPECT_TRUE(exp.check_safety().ok);
  const auto rep = check_invariants(exp);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations.front());
  // Rounds advanced far past ReplicaBase::kRoundWindow, so the round
  // advances erased old vote targets many times over.
  EXPECT_GT(exp.replica(0).current_round(), 1500u);
}

TEST(Soak, DiemBftTwoThousandCommits) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kDiemBft;
  cfg.seed = 1002;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(2000, 600'000'000'000ull));
  EXPECT_TRUE(exp.check_safety().ok);
}

TEST(Soak, AlternatingGoodAndBadNetworkPhases) {
  // 10 alternating phases of synchrony and leader attack; the system must
  // keep making progress overall and stay safe throughout.
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kFallback3;
  cfg.scenario = NetScenario::kLeaderAttack;
  cfg.attack_delay = 3'000'000;
  cfg.seed = 1003;
  Experiment exp(cfg);

  bool attack_on = false;
  auto* attack =
      dynamic_cast<net::AdaptiveLeaderAttackModel*>(&exp.network().delay_model());
  auto& e = exp;
  attack->set_targets_fn([&attack_on, &e]() {
    std::set<ReplicaId> targets;
    if (!attack_on) return targets;
    for (ReplicaId id = 0; id < e.n(); ++id) {
      targets.insert(core::round_leader(e.replica(id).current_round(), e.n(),
                                        e.config().pcfg.leader_rotation));
    }
    return targets;
  });
  exp.start();

  std::size_t last = 0;
  for (int phase = 0; phase < 10; ++phase) {
    attack_on = (phase % 2 == 1);
    exp.run_for(5'000'000);
    if (!attack_on) {
      // Good phases must make clear progress.
      EXPECT_GT(exp.max_honest_commits(), last) << "phase " << phase;
      last = exp.max_honest_commits();
    }
    ASSERT_TRUE(exp.check_safety().ok) << "phase " << phase;
  }
  EXPECT_GT(exp.min_honest_commits(), 200u);
  const auto rep = check_invariants(exp);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations.front());
}

TEST(Soak, LongRunWithFaultsAndRestarts) {
  ExperimentConfig cfg;
  cfg.n = 7;
  cfg.protocol = Protocol::kFallback3;
  cfg.seed = 1004;
  cfg.enable_wal = true;
  cfg.faults[6] = core::FaultKind::kEquivocate;
  cfg.faults[5] = core::FaultKind::kTimeoutSpam;
  Experiment exp(cfg);
  exp.start();
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(exp.run_until_commits(100u * i, 600'000'000'000ull)) << i;
    exp.restart_replica(static_cast<ReplicaId>(i % 5));  // honest replicas only
  }
  ASSERT_TRUE(exp.run_until_commits(1000, 600'000'000'000ull));
  EXPECT_TRUE(exp.check_safety().ok);
  const auto rep = check_invariants(exp);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations.front());
}

TEST(Soak, AlwaysFallbackManyViews) {
  // Hundreds of consecutive fallback views (coin elections) at n = 7.
  ExperimentConfig cfg;
  cfg.n = 7;
  cfg.protocol = Protocol::kAlwaysFallback;
  cfg.seed = 1005;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(500, 600'000'000'000ull));
  EXPECT_TRUE(exp.check_safety().ok);
  EXPECT_GT(exp.replica(0).current_view(), 100u);
}

}  // namespace
}  // namespace repro::harness
