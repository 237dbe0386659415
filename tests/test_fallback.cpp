// Integration tests for the paper's contribution: DiemBFT with the
// Asynchronous Fallback (Figure 2), its 2-chain variant (Figure 4), the
// §3 chain-adoption optimization, and the always-fallback baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "harness/experiment.h"

namespace repro::harness {
namespace {

ExperimentConfig fb_config(Protocol p, std::uint32_t n, std::uint64_t seed = 7) {
  ExperimentConfig cfg;
  cfg.n = n;
  cfg.protocol = p;
  cfg.scenario = NetScenario::kSynchronous;
  cfg.seed = seed;
  return cfg;
}

/// Post-run structural invariants from the paper's lemmas, checked on the
/// committed chain of every honest replica:
///  - Lemma 2: adjacent blocks have consecutive round numbers and
///    nondecreasing view numbers.
///  - Theorem 6 territory: the ledger is one connected chain.
void check_chain_invariants(Experiment& exp) {
  for (ReplicaId id = 0; id < exp.n(); ++id) {
    if (!exp.is_honest(id)) continue;
    const auto& base = dynamic_cast<const core::ReplicaBase&>(exp.replica(id));
    const auto& recs = exp.replica(id).ledger().records();
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const smr::Block* b = base.store().get(recs[i].id);
      ASSERT_NE(b, nullptr);
      if (i == 0) {
        EXPECT_EQ(b->parent.block_id, smr::genesis_id());
        EXPECT_EQ(b->round, 1u);
      } else {
        EXPECT_EQ(b->parent.block_id, recs[i - 1].id) << "replica " << id << " pos " << i;
        EXPECT_EQ(b->round, recs[i - 1].round + 1) << "Lemma 2: consecutive rounds";
        EXPECT_GE(b->view, recs[i - 1].view) << "Lemma 2: nondecreasing views";
      }
    }
  }
}

// ---- steady state -------------------------------------------------------------

TEST(Fallback, SteadyStateCommitsWithoutEnteringFallback) {
  Experiment exp(fb_config(Protocol::kFallback3, 4));
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(100, 120'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
  check_chain_invariants(exp);
  for (ReplicaId id = 0; id < 4; ++id) {
    EXPECT_EQ(exp.replica(id).stats().fallbacks_entered, 0u);
    EXPECT_EQ(exp.replica(id).current_view(), 0u);  // never left view 0
  }
}

TEST(Fallback, SteadyStateRoundsAreConsecutive) {
  // Fig 2 vote rule (r == qc.r + 1) forbids round gaps entirely.
  Experiment exp(fb_config(Protocol::kFallback3, 4));
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(40, 120'000'000));
  const auto& recs = exp.replica(2).ledger().records();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].round, i + 1);
  }
}

// ---- entering / exiting the fallback --------------------------------------------

TEST(Fallback, AsyncPeriodTriggersFallbackAndViewAdvances) {
  auto cfg = fb_config(Protocol::kFallback3, 4);
  cfg.scenario = NetScenario::kAsynchronous;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(3, 2'000'000'000ull));
  EXPECT_TRUE(exp.check_safety().ok);
  std::uint64_t entered = 0;
  for (ReplicaId id = 0; id < 4; ++id) entered += exp.replica(id).stats().fallbacks_entered;
  EXPECT_GT(entered, 0u);
  EXPECT_GT(exp.replica(0).current_view(), 0u);
  check_chain_invariants(exp);
}

TEST(Fallback, EveryEnteredFallbackEventuallyExits) {
  // Lemma 7 (termination): run through several async-triggered fallbacks
  // and require entered == exited once the network quiesces.
  auto cfg = fb_config(Protocol::kFallback3, 4);
  cfg.scenario = NetScenario::kAsynchronous;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(5, 3'000'000'000ull));
  // Let in-flight fallbacks finish: message delays are capped at
  // async_max (8s), so a bounded number of extra windows must suffice.
  auto all_exited = [&] {
    for (ReplicaId id = 0; id < 4; ++id) {
      const auto& st = exp.replica(id).stats();
      if (st.fallbacks_entered != st.fallbacks_exited) return false;
    }
    return true;
  };
  for (int i = 0; i < 40 && !all_exited(); ++i) exp.run_for(10'000'000);
  for (ReplicaId id = 0; id < 4; ++id) {
    const auto& st = exp.replica(id).stats();
    EXPECT_EQ(st.fallbacks_entered, st.fallbacks_exited) << "replica " << id;
  }
}

TEST(Fallback, CommitsUnderLeaderAttackWhereDiemStalls) {
  // The paper's headline: same adversary, opposite liveness outcomes.
  auto attack_cfg = fb_config(Protocol::kFallback3, 4);
  attack_cfg.scenario = NetScenario::kLeaderAttack;
  Experiment ours(attack_cfg);
  ours.start();
  ASSERT_TRUE(ours.run_until_commits(10, 3'000'000'000ull));
  EXPECT_TRUE(ours.check_safety().ok);
  check_chain_invariants(ours);

  auto diem_cfg = attack_cfg;
  diem_cfg.protocol = Protocol::kDiemBft;
  Experiment diem(diem_cfg);
  diem.start();
  diem.run_for(500'000'000);
  EXPECT_EQ(diem.min_honest_commits(), 0u);
}

TEST(Fallback, RecoversSteadyStateAfterGst) {
  auto cfg = fb_config(Protocol::kFallback3, 4);
  cfg.scenario = NetScenario::kPartialSynchrony;
  cfg.gst = 4'000'000;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(50, 500'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
  check_chain_invariants(exp);
  // After GST the system should be back in steady state: the last many
  // commits happen without growing the view number.
  const View final_view = exp.replica(0).current_view();
  exp.run_until_commits(100, 1'000'000'000);
  EXPECT_EQ(exp.replica(0).current_view(), final_view);
}

TEST(Fallback, CommitProbabilityPerFallbackIsAtLeastTwoThirds) {
  // Lemma 7: each fallback commits a new block with probability >= 2/3
  // (the coin lands on one of >= 2f+1 completed chains). Count over many
  // seeded async runs: fraction of views that committed f-blocks.
  int views_total = 0;
  int views_with_commit = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    auto cfg = fb_config(Protocol::kFallback3, 4, seed);
    cfg.scenario = NetScenario::kAsynchronous;
    Experiment exp(cfg);
    exp.start();
    exp.run_until_commits(6, 2'000'000'000ull);
    const auto& recs = exp.replica(0).ledger().records();
    std::set<View> commit_views;
    for (const auto& rec : recs) {
      if (rec.height > 0) commit_views.insert(rec.view);
    }
    const View reached = exp.replica(0).current_view();
    views_total += static_cast<int>(reached);
    views_with_commit += static_cast<int>(commit_views.size());
  }
  ASSERT_GT(views_total, 20);
  const double p = static_cast<double>(views_with_commit) / views_total;
  EXPECT_GT(p, 0.55) << "Lemma 7 lower bound is 2/3; observed " << p;
}

// ---- fault tolerance --------------------------------------------------------------

TEST(Fallback, SurvivesFCrashes) {
  auto cfg = fb_config(Protocol::kFallback3, 7);
  cfg.faults[5] = core::FaultKind::kCrash;
  cfg.faults[6] = core::FaultKind::kCrash;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(25, 600'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
  check_chain_invariants(exp);
}

TEST(Fallback, SurvivesCrashesDuringAsynchrony) {
  auto cfg = fb_config(Protocol::kFallback3, 7);
  cfg.scenario = NetScenario::kAsynchronous;
  cfg.faults[0] = core::FaultKind::kCrash;
  cfg.faults[3] = core::FaultKind::kCrash;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(3, 4'000'000'000ull));
  EXPECT_TRUE(exp.check_safety().ok);
  check_chain_invariants(exp);
}

TEST(Fallback, EquivocatingLeaderCannotBreakSafety) {
  auto cfg = fb_config(Protocol::kFallback3, 4);
  cfg.faults[0] = core::FaultKind::kEquivocate;
  Experiment exp(cfg);
  exp.start();
  exp.run_until_commits(15, 400'000'000);
  EXPECT_TRUE(exp.check_safety().ok);
  EXPECT_GT(exp.min_honest_commits(), 0u);
  check_chain_invariants(exp);
}

TEST(Fallback, TimeoutSpammerCannotForceFallbackAlone) {
  // One spammer is < 2f+1 shares: no f-TC can form from it alone, and the
  // steady state keeps committing.
  auto cfg = fb_config(Protocol::kFallback3, 4);
  cfg.faults[3] = core::FaultKind::kTimeoutSpam;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(30, 300'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
  for (ReplicaId id = 0; id < 3; ++id) {
    EXPECT_EQ(exp.replica(id).stats().fallbacks_entered, 0u);
  }
}

TEST(Fallback, MuteLeaderForcesFallbackButProgressContinues) {
  auto cfg = fb_config(Protocol::kFallback3, 4);
  cfg.faults[1] = core::FaultKind::kMuteLeader;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(25, 600'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
  check_chain_invariants(exp);
}

// A faulty replica multicasts f-blocks mutated after Block::make, so the
// id no longer binds the fields. Block::decode rejects every such frame:
// no honest replica dispatches, stores or votes on one. The sender also
// refuses to seed the shared decode cache with its unchecked decoded
// form; a seeded entry would let recipients skip the decode and trip
// BlockStore::insert's id assertion.
TEST(Fallback, TamperedFBlocksAreNeverStoredOrVotedOn) {
  constexpr ReplicaId kTamperer = 15;
  auto cfg = fb_config(Protocol::kFallback3, 16, 5);
  cfg.scenario = NetScenario::kAsynchronous;
  cfg.faults[kTamperer] = core::FaultKind::kTamperFBlocks;
  cfg.trace_capacity = 1 << 14;
  Experiment exp(cfg);

  // Watch every f-proposal frame the tamperer's multicasts deliver.
  std::set<smr::BlockId> claimed;
  std::size_t frames = 0, decoded = 0;
  for (ReplicaId id = 0; id < exp.n(); ++id) {
    exp.network().register_handler(id, [&, id](ReplicaId from, const Bytes& payload) {
      if (from == kTamperer && payload.size() > 32 &&
          payload[0] == static_cast<std::uint8_t>(smr::MsgType::kFbProposal)) {
        ++frames;
        if (smr::decode_message(payload)) ++decoded;
        smr::BlockId bid{};  // Block::encode leads with the id
        std::copy_n(payload.begin() + 1, bid.size(), bid.begin());
        claimed.insert(bid);
      }
      exp.replica(id).on_message(from, payload);
    });
  }
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(5, 4'000'000'000ull));
  EXPECT_TRUE(exp.check_safety().ok);
  check_chain_invariants(exp);

  ASSERT_GT(frames, 0u) << "the tamperer never proposed an f-block";
  EXPECT_EQ(decoded, 0u);
  EXPECT_GT(exp.replica(kTamperer).stats().cache_seeds_refused, 0u);

  std::set<std::uint64_t> keys;
  for (const auto& bid : claimed) {
    keys.insert(crypto::digest_prefix_u64(bid));
    for (ReplicaId id = 0; id < exp.n(); ++id) {
      if (!exp.is_honest(id)) continue;
      const auto& base = dynamic_cast<const core::ReplicaBase&>(exp.replica(id));
      EXPECT_FALSE(base.store().contains(bid)) << "replica " << id;
    }
  }
  for (ReplicaId id = 0; id < exp.n(); ++id) ASSERT_EQ(exp.trace_ring(id)->dropped(), 0u);
  std::size_t honest_fb_votes = 0;
  for (const auto& ev : exp.trace_events()) {
    if (!exp.is_honest(ev.replica)) continue;
    const bool fb_vote = ev.kind == obs::EventKind::kVoteSent && ev.height > 0;
    if (fb_vote) ++honest_fb_votes;
    if (fb_vote || ev.kind == obs::EventKind::kProposalReceived) {
      EXPECT_EQ(keys.count(ev.key), 0u) << "replica " << ev.replica << " took a tampered f-block";
    }
  }
  EXPECT_GT(honest_fb_votes, 0u) << "no honest f-vote recorded: the check above saw nothing";
}

// ---- variants -----------------------------------------------------------------------

TEST(Fallback, AdoptionVariantCommitsUnderAsynchrony) {
  auto cfg = fb_config(Protocol::kFallback3Adopt, 4);
  cfg.scenario = NetScenario::kAsynchronous;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(3, 2'000'000'000ull));
  EXPECT_TRUE(exp.check_safety().ok);
  check_chain_invariants(exp);
}

TEST(Fallback, TwoChainVariantCommitsEverywhere) {
  for (NetScenario s : {NetScenario::kSynchronous, NetScenario::kAsynchronous,
                        NetScenario::kLeaderAttack}) {
    auto cfg = fb_config(Protocol::kFallback2, 4);
    cfg.scenario = s;
    Experiment exp(cfg);
    exp.start();
    ASSERT_TRUE(exp.run_until_commits(5, 3'000'000'000ull)) << "scenario " << int(s);
    EXPECT_TRUE(exp.check_safety().ok);
    check_chain_invariants(exp);
  }
}

TEST(Fallback, TwoChainHasLowerCommitLatencyThanThreeChain) {
  // Section 4: 2-chain commit saves 2 rounds of latency in steady state.
  auto median_latency = [](Protocol p) {
    Experiment exp(fb_config(p, 4, 99));
    exp.start();
    EXPECT_TRUE(exp.run_until_commits(60, 200'000'000));
    auto lats = exp.commit_latencies(0);
    EXPECT_GT(lats.size(), 20u);
    std::sort(lats.begin(), lats.end());
    return lats[lats.size() / 2];
  };
  const SimTime lat3 = median_latency(Protocol::kFallback3);
  const SimTime lat2 = median_latency(Protocol::kFallback2);
  EXPECT_LT(lat2, lat3);
}

TEST(Fallback, AlwaysFallbackAlwaysLive) {
  for (NetScenario s : {NetScenario::kSynchronous, NetScenario::kAsynchronous,
                        NetScenario::kLeaderAttack}) {
    auto cfg = fb_config(Protocol::kAlwaysFallback, 4);
    cfg.scenario = s;
    Experiment exp(cfg);
    exp.start();
    ASSERT_TRUE(exp.run_until_commits(5, 3'000'000'000ull)) << "scenario " << int(s);
    EXPECT_TRUE(exp.check_safety().ok);
    check_chain_invariants(exp);
  }
}

TEST(Fallback, AlwaysFallbackNeverRunsSteadyState) {
  Experiment exp(fb_config(Protocol::kAlwaysFallback, 4));
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(10, 600'000'000));
  // Every committed block is a fallback-block.
  for (const auto& rec : exp.replica(0).ledger().records()) {
    EXPECT_GT(rec.height, 0u);
  }
}

// ---- ranking / view bookkeeping -----------------------------------------------------

TEST(Fallback, ViewsIncrementByOnePerFallback) {
  auto cfg = fb_config(Protocol::kFallback3, 4);
  cfg.scenario = NetScenario::kAsynchronous;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(4, 3'000'000'000ull));
  // Committed views never skip (views advance one fallback at a time for
  // a replica that participates in each).
  const auto& recs = exp.replica(0).ledger().records();
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GE(recs[i].view, recs[i - 1].view);
  }
}

TEST(Fallback, LargerScaleSanity) {
  Experiment exp(fb_config(Protocol::kFallback3, 13));
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(15, 200'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
  check_chain_invariants(exp);
}

TEST(Fallback, LongAsyncRunKeepsItsShareQuorums) {
  // Fallback views carry no timer, so a share dropped inside one is lost
  // for good. When the share pools had caps that evicted their smallest
  // key, the f-vote pool filled and evicted live f-block targets, and this
  // run stopped at 433 decisions with an empty event queue. Each pool now
  // lives exactly as long as its round or view (DESIGN.md §21), and no
  // honest replica has a target refused.
  auto cfg = fb_config(Protocol::kFallback3, 4, /*seed=*/1);
  cfg.scenario = NetScenario::kAsynchronous;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(500, 1'000'000'000'000ull))
      << "stopped at " << exp.min_honest_commits() << " decisions";
  EXPECT_TRUE(exp.check_safety().ok);
  check_chain_invariants(exp);
  for (ReplicaId id = 0; id < 4; ++id) {
    EXPECT_EQ(exp.replica(id).stats().share_targets_refused, 0u) << "replica " << id;
  }
}

TEST(Fallback, DeterministicForFixedSeed) {
  auto run = [](std::uint64_t seed) {
    auto cfg = fb_config(Protocol::kFallback3, 4, seed);
    cfg.scenario = NetScenario::kAsynchronous;
    Experiment exp(cfg);
    exp.start();
    exp.run_until_commits(4, 2'000'000'000ull);
    std::vector<smr::BlockId> ids;
    for (const auto& rec : exp.replica(1).ledger().records()) ids.push_back(rec.id);
    return ids;
  };
  EXPECT_EQ(run(21), run(21));
}

}  // namespace
}  // namespace repro::harness
