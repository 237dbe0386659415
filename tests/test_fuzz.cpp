// Robustness fuzzing: a Byzantine sender controls every byte it sends, so
// no sequence of malformed, truncated, bit-flipped or replayed messages
// may ever crash an honest replica or break safety. These tests hammer
// the decode and handler paths with adversarial bytes.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "smr/messages.h"

namespace repro::harness {
namespace {

/// Valid wire messages of every type, to use as mutation seeds.
std::vector<Bytes> seed_messages(const crypto::CryptoSystem& sys) {
  using namespace smr;
  const Block blk = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1, 2, 3});
  std::vector<Message> msgs;
  msgs.push_back(ProposalMsg{blk, std::nullopt, {}, {}});
  msgs.push_back(VoteMsg{blk.id, 1, 0, crypto::PartialSig{1, 42}});
  msgs.push_back(DiemTimeoutMsg{3, crypto::PartialSig{0, 7}, genesis_certificate(), {}});
  msgs.push_back(DiemTcMsg{TimeoutCert{3, crypto::ThresholdSig{9}}});
  msgs.push_back(FbTimeoutMsg{0, crypto::PartialSig{2, 5}, genesis_certificate(), {}, {}});
  msgs.push_back(FbProposalMsg{Block::make(genesis_certificate(), 1, 0, 1, 2, Bytes{7}),
                               FallbackTC{0, crypto::ThresholdSig{3}},
                               {},
                               {}});
  msgs.push_back(FbVoteMsg{blk.id, 1, 0, 1, 2, crypto::PartialSig{3, 1}});
  msgs.push_back(FbQcMsg{genesis_certificate(), {}});
  msgs.push_back(CoinShareMsg{0, crypto::PartialSig{1, 2}});
  msgs.push_back(CoinQcMsg{CoinQC{0, crypto::ThresholdSig{4}}});
  msgs.push_back(BlockRequestMsg{blk.id, 32});
  msgs.push_back(BlockResponseMsg{{blk}});

  std::vector<Bytes> wires;
  for (auto& m : msgs) wires.push_back(encode_signed(sys, 0, m));
  return wires;
}

TEST(Fuzz, DecodeNeverCrashesOnMutatedMessages) {
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 1);
  Rng rng(0xf0220);
  for (const Bytes& seed : seed_messages(*sys)) {
    for (int trial = 0; trial < 400; ++trial) {
      Bytes mutated = seed;
      const int flips = 1 + static_cast<int>(rng.uniform(8));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.uniform(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
      }
      // Must not crash; result may be nullopt or a (differently) valid msg.
      auto decoded = smr::decode_message(mutated);
      if (decoded) {
        // Whatever decodes must re-encode to the same bytes (canonical).
        EXPECT_EQ(smr::encode_message(*decoded), mutated);
      }
    }
  }
}

TEST(Fuzz, DecodeNeverCrashesOnRandomBytes) {
  Rng rng(0xbeef);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(rng.uniform(300));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)smr::decode_message(junk);
  }
}

TEST(Fuzz, RepliсasSurviveGarbageInjection) {
  // Run a live system and inject mutated/replayed/random messages into
  // every replica from every sender id; the system must neither crash nor
  // lose safety, and must still commit.
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kFallback3;
  cfg.seed = 77;
  Experiment exp(cfg);
  exp.start();

  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 1);  // WRONG keys on purpose
  const auto seeds = seed_messages(*sys);
  Rng rng(0xabad1dea);

  for (int wave = 0; wave < 30; ++wave) {
    exp.sim().run_until(exp.sim().now() + 100'000);
    for (ReplicaId victim = 0; victim < 4; ++victim) {
      // (a) replay of a foreign-keyed valid message
      exp.replica(victim).on_message(static_cast<ReplicaId>(rng.uniform(4)),
                                     seeds[rng.uniform(seeds.size())]);
      // (b) mutated message
      Bytes mutated = seeds[rng.uniform(seeds.size())];
      mutated[rng.uniform(mutated.size())] ^= 0x40;
      exp.replica(victim).on_message(static_cast<ReplicaId>(rng.uniform(4)), mutated);
      // (c) pure junk
      Bytes junk(rng.uniform(100) + 1);
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
      exp.replica(victim).on_message(static_cast<ReplicaId>(rng.uniform(4)), junk);
    }
  }
  ASSERT_TRUE(exp.run_until_commits(20, 120'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
}

TEST(Fuzz, ReplayOfOwnValidMessagesIsHarmless) {
  // Capture real traffic from one run and replay it (out of order,
  // repeatedly) into a second run with the same keys.
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kFallback3;
  cfg.seed = 11;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(5, 60'000'000));

  // Harvest blocks from replica 0's store as replay material.
  const auto& base = dynamic_cast<const core::ReplicaBase&>(exp.replica(0));
  std::vector<Bytes> replays;
  for (const auto& rec : exp.replica(0).ledger().records()) {
    const smr::Block* b = base.store().get(rec.id);
    smr::Message m = smr::BlockResponseMsg{{*b}};
    replays.push_back(smr::encode_message(m));
  }
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    exp.replica(rng.uniform(4)).on_message(static_cast<ReplicaId>(rng.uniform(4)),
                                           replays[rng.uniform(replays.size())]);
  }
  ASSERT_TRUE(exp.run_until_commits(15, 120'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
}

}  // namespace
}  // namespace repro::harness
