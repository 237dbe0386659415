// Property-based sweeps (parameterized gtest): the paper's Safety and
// Liveness theorems checked across the cross-product of protocol,
// network scenario, fault mix, system size and seed. Each instance runs a
// full system and asserts:
//   Safety  — honest committed ledgers are pairwise prefix-consistent,
//             always (Theorem 6).
//   Liveness — honest replicas keep committing whenever the protocol
//             claims liveness for the scenario (Theorem 8); DiemBFT is
//             exempt under the asynchronous adversary (Table 1).
#include <gtest/gtest.h>

#include <string>

#include "harness/chaos.h"
#include "harness/experiment.h"

namespace repro::harness {
namespace {

struct SweepCase {
  Protocol protocol;
  NetScenario scenario;
  std::uint32_t n;
  /// Faults applied to the last replicas, at most f of them.
  std::vector<core::FaultKind> faults;
  std::uint64_t seed;
  bool expect_liveness;
  std::size_t commit_target;
  SimTime horizon;
};

std::string scenario_tag(NetScenario s) {
  switch (s) {
    case NetScenario::kSynchronous: return "sync";
    case NetScenario::kAsynchronous: return "async";
    case NetScenario::kPartialSynchrony: return "psync";
    case NetScenario::kLeaderAttack: return "attack";
  }
  return "?";
}

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string name = std::string(protocol_name(c.protocol)) + "_" +
                     scenario_tag(c.scenario) + "_n" + std::to_string(c.n);
  for (auto f : c.faults) name += std::string("_") + fault_token(f);
  name += "_s" + std::to_string(c.seed);
  for (auto& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

class ProtocolSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ProtocolSweep, SafetyAlwaysLivenessWhenClaimed) {
  const SweepCase& c = GetParam();
  ExperimentConfig cfg;
  cfg.n = c.n;
  cfg.protocol = c.protocol;
  cfg.scenario = c.scenario;
  cfg.seed = c.seed;
  const auto f = QuorumParams::for_n(c.n).f;
  ASSERT_LE(c.faults.size(), f) << "test bug: more than f faults";
  for (std::size_t i = 0; i < c.faults.size(); ++i) {
    cfg.faults[static_cast<ReplicaId>(c.n - 1 - i)] = c.faults[i];
  }

  Experiment exp(cfg);
  exp.start();
  const bool reached = exp.run_until_commits(c.commit_target, c.horizon);

  const SafetyReport safety = exp.check_safety();
  EXPECT_TRUE(safety.ok) << safety.detail;

  if (c.expect_liveness) {
    EXPECT_TRUE(reached) << "min honest commits " << exp.min_honest_commits() << "/"
                         << c.commit_target;
  } else {
    EXPECT_EQ(exp.min_honest_commits(), 0u) << "DiemBFT committed under the attack?";
  }
}

std::vector<SweepCase> make_cases() {
  std::vector<SweepCase> cases;
  const std::vector<Protocol> protocols = {Protocol::kDiemBft, Protocol::kFallback3,
                                           Protocol::kFallback3Adopt, Protocol::kFallback2,
                                           Protocol::kAlwaysFallback};

  // 1) Every protocol x {sync, psync} x {4, 7} x 2 seeds — all must be live.
  for (Protocol p : protocols) {
    for (NetScenario s : {NetScenario::kSynchronous, NetScenario::kPartialSynchrony}) {
      for (std::uint32_t n : {4u, 7u}) {
        for (std::uint64_t seed : {1ull, 2ull}) {
          cases.push_back(SweepCase{p, s, n, {}, seed, true, 8, 2'000'000'000ull});
        }
      }
    }
  }

  // 2) Asynchrony/attack: fallback family live; DiemBFT not live under
  //    the leader attack.
  for (Protocol p : {Protocol::kFallback3, Protocol::kFallback3Adopt, Protocol::kFallback2,
                     Protocol::kAlwaysFallback}) {
    for (NetScenario s : {NetScenario::kAsynchronous, NetScenario::kLeaderAttack}) {
      for (std::uint64_t seed : {3ull, 4ull}) {
        cases.push_back(SweepCase{p, s, 4, {}, seed, true, 4, 6'000'000'000ull});
      }
    }
  }
  for (std::uint64_t seed : {5ull, 6ull, 7ull}) {
    cases.push_back(SweepCase{Protocol::kDiemBft, NetScenario::kLeaderAttack, 4, {}, seed,
                              false, 1, 400'000'000ull});
  }

  // 3) Fault mixes at n = 4 (f = 1), every protocol, synchrony.
  for (Protocol p : protocols) {
    for (core::FaultKind f : {core::FaultKind::kCrash, core::FaultKind::kMuteLeader,
                              core::FaultKind::kEquivocate, core::FaultKind::kWithholdVotes,
                              core::FaultKind::kTimeoutSpam}) {
      cases.push_back(SweepCase{p, NetScenario::kSynchronous, 4, {f}, 8, true, 6,
                                4'000'000'000ull});
    }
  }

  // 4) f = 2 fault mixes at n = 7 for the main protocol, sync and async.
  using FK = core::FaultKind;
  const std::vector<std::vector<FK>> mixes = {
      {FK::kCrash, FK::kCrash},
      {FK::kCrash, FK::kEquivocate},
      {FK::kMuteLeader, FK::kWithholdVotes},
      {FK::kTimeoutSpam, FK::kCrash},
  };
  for (const auto& mix : mixes) {
    cases.push_back(SweepCase{Protocol::kFallback3, NetScenario::kSynchronous, 7, mix, 9,
                              true, 6, 4'000'000'000ull});
    cases.push_back(SweepCase{Protocol::kFallback3, NetScenario::kAsynchronous, 7, mix, 10,
                              true, 3, 8'000'000'000ull});
  }

  // 5) Crash faults under the leader attack for the 2-chain variant.
  cases.push_back(SweepCase{Protocol::kFallback2, NetScenario::kLeaderAttack, 7,
                            {FK::kCrash, FK::kCrash}, 11, true, 3, 8'000'000'000ull});

  // 6) Larger system smoke: n = 10 (f = 3) with three crashes.
  cases.push_back(SweepCase{Protocol::kFallback3, NetScenario::kSynchronous, 10,
                            {FK::kCrash, FK::kCrash, FK::kCrash}, 12, true, 5,
                            4'000'000'000ull});

  // 7) Equivocation *inside the fallback chains*: the per-proposer
  //    r̄/h̄_vote rules must keep safety while the system stays live.
  for (Protocol p : {Protocol::kFallback3, Protocol::kFallback3Adopt, Protocol::kFallback2,
                     Protocol::kAlwaysFallback}) {
    for (std::uint64_t seed : {13ull, 14ull}) {
      cases.push_back(SweepCase{p, NetScenario::kAsynchronous, 4, {FK::kEquivocate}, seed,
                                true, 3, 10'000'000'000ull});
    }
  }
  cases.push_back(SweepCase{Protocol::kFallback3, NetScenario::kLeaderAttack, 7,
                            {FK::kEquivocate, FK::kEquivocate}, 15, true, 3,
                            10'000'000'000ull});

  // 8) Adoption variants with faults under attack.
  cases.push_back(SweepCase{Protocol::kFallback3Adopt, NetScenario::kLeaderAttack, 7,
                            {FK::kCrash, FK::kMuteLeader}, 16, true, 3, 10'000'000'000ull});
  cases.push_back(SweepCase{Protocol::kAlwaysFallback, NetScenario::kAsynchronous, 7,
                            {FK::kCrash, FK::kWithholdVotes}, 17, true, 3,
                            12'000'000'000ull});

  // 9) n = 13 (f = 4) with a full mixed-fault contingent.
  cases.push_back(SweepCase{Protocol::kFallback3, NetScenario::kSynchronous, 13,
                            {FK::kCrash, FK::kEquivocate, FK::kMuteLeader, FK::kTimeoutSpam},
                            18, true, 5, 8'000'000'000ull});

  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProtocolSweep, ::testing::ValuesIn(make_cases()),
                         case_name);

}  // namespace
}  // namespace repro::harness
