// WAL unit tests (framing, checksums, torn-tail recovery) and
// crash-recovery integration: restarted replicas rejoin from durable vote
// state without ever equivocating, and catch up on the chain.
#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include "harness/experiment.h"
#include "harness/invariants.h"
#include "storage/wal.h"

namespace repro {
namespace {

using harness::Experiment;
using harness::ExperimentConfig;
using harness::NetScenario;
using harness::Protocol;

// ---- MemWal -----------------------------------------------------------------

TEST(MemWal, AppendReplayRoundTrip) {
  storage::MemWal wal;
  wal.append(Bytes{1, 2, 3});
  wal.append(Bytes{});
  wal.append(Bytes{9});
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (Bytes{1, 2, 3}));
  EXPECT_TRUE(records[1].empty());
  EXPECT_EQ(records[2], (Bytes{9}));
}

// ---- FileWal ----------------------------------------------------------------

class FileWalTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "wal_test_" +
                      std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".log";

  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(FileWalTest, PersistsAcrossReopen) {
  {
    storage::FileWal wal(path_);
    wal.append(Bytes{1, 2});
    wal.append(Bytes{3, 4, 5});
  }
  storage::FileWal wal2(path_);
  const auto records = wal2.replay();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1], (Bytes{3, 4, 5}));
  wal2.append(Bytes{6});
  EXPECT_EQ(wal2.record_count(), 3u);
}

TEST_F(FileWalTest, TornTailIsDropped) {
  {
    storage::FileWal wal(path_);
    wal.append(Bytes{1, 2});
    wal.append(Bytes{3, 4});
  }
  // Truncate mid-record: chop the last 3 bytes.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(0, truncate(path_.c_str(), size - 3));

  storage::FileWal wal(path_);
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (Bytes{1, 2}));
}

TEST_F(FileWalTest, CorruptedRecordStopsReplay) {
  {
    storage::FileWal wal(path_);
    wal.append(Bytes{1, 2, 3, 4});
    wal.append(Bytes{5, 6, 7, 8});
  }
  // Flip a byte inside the first record's body.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 9, SEEK_SET);  // 8-byte header + second body byte
  std::fputc(0xEE, f);
  std::fclose(f);

  storage::FileWal wal(path_);
  EXPECT_TRUE(wal.replay().empty());  // conservative stop at corruption
}

TEST_F(FileWalTest, EmptyFileReplaysEmpty) {
  storage::FileWal wal(path_);
  EXPECT_TRUE(wal.replay().empty());
}

// ---- crash-recovery integration ------------------------------------------------

ExperimentConfig recovery_config(Protocol p, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = p;
  cfg.seed = seed;
  cfg.enable_wal = true;
  return cfg;
}

TEST(CrashRecovery, RestartedReplicaRejoinsAndCatchesUp) {
  Experiment exp(recovery_config(Protocol::kFallback3, 21));
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(10, 60'000'000));

  exp.restart_replica(2);
  const auto& fresh = dynamic_cast<const core::ReplicaBase&>(exp.replica(2));
  EXPECT_TRUE(fresh.recovered());
  EXPECT_EQ(fresh.ledger().size(), 0u);  // chain state is not logged...

  ASSERT_TRUE(exp.run_until_commits(40, 400'000'000));  // ...but rebuilds
  EXPECT_GE(exp.replica(2).ledger().size(), 40u);
  EXPECT_TRUE(exp.check_safety().ok);
}

TEST(CrashRecovery, VoteStateSurvivesRestart) {
  Experiment exp(recovery_config(Protocol::kFallback3, 22));
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(8, 60'000'000));
  const auto& before = dynamic_cast<const core::ReplicaBase&>(exp.replica(1));
  const Round r_vote_before = before.r_vote();
  const smr::Rank lock_before = before.rank_lock();
  ASSERT_GT(r_vote_before, 0u);

  exp.restart_replica(1);
  const auto& after = dynamic_cast<const core::ReplicaBase&>(exp.replica(1));
  EXPECT_EQ(after.r_vote(), r_vote_before);
  EXPECT_EQ(after.rank_lock(), lock_before);
}

TEST(CrashRecovery, RepeatedRestartsStaySafeAndLive) {
  Experiment exp(recovery_config(Protocol::kFallback3, 23));
  exp.start();
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(exp.run_until_commits(5 * (round + 1), 600'000'000)) << round;
    exp.restart_replica(static_cast<ReplicaId>(round % 4));
  }
  ASSERT_TRUE(exp.run_until_commits(40, 600'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
  const auto rep = harness::check_invariants(exp);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations.front());
}

TEST(CrashRecovery, RestartDuringAsynchronyIsSafe) {
  auto cfg = recovery_config(Protocol::kFallback3, 24);
  cfg.scenario = NetScenario::kAsynchronous;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(2, 4'000'000'000ull));
  exp.restart_replica(0);  // quite possibly mid-fallback
  exp.restart_replica(3);
  ASSERT_TRUE(exp.run_until_commits(6, 8'000'000'000ull));
  EXPECT_TRUE(exp.check_safety().ok);
}

TEST(CrashRecovery, DiemBftRecoversToo) {
  Experiment exp(recovery_config(Protocol::kDiemBft, 25));
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(10, 60'000'000));
  exp.restart_replica(2);
  ASSERT_TRUE(exp.run_until_commits(30, 400'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
}

TEST(CrashRecovery, TwoChainVariantRecoversToo) {
  Experiment exp(recovery_config(Protocol::kFallback2, 26));
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(10, 60'000'000));
  exp.restart_replica(1);
  ASSERT_TRUE(exp.run_until_commits(30, 400'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
}

TEST(CrashRecovery, RestartWithoutWalIsARecoverableError) {
  // Without a WAL a restart would be an amnesia crash, which the
  // durability story does not cover. The harness must refuse — returning
  // false so generated chaos schedules can skip the event — rather than
  // aborting the process.
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = Protocol::kFallback3;
  cfg.seed = 28;
  Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(5, 60'000'000));
  EXPECT_FALSE(exp.restart_replica(1));
  EXPECT_FALSE(exp.restart_replica(99));  // out-of-range id likewise refused
  // The refused restart must leave the run undisturbed.
  ASSERT_TRUE(exp.run_until_commits(10, 60'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
}

TEST(CrashRecovery, HaltedInstanceIsSilent) {
  Experiment exp(recovery_config(Protocol::kFallback3, 27));
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(5, 60'000'000));
  auto& old_ref = exp.replica(0);
  exp.restart_replica(0);
  // Feeding the halted instance directly must be a no-op.
  old_ref.on_message(1, Bytes{1, 2, 3});
  ASSERT_TRUE(exp.run_until_commits(15, 200'000'000));
  EXPECT_TRUE(exp.check_safety().ok);
}

}  // namespace
}  // namespace repro
