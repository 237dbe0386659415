// Unit tests for the combine-then-verify share accumulators
// (smr/share_accumulator.h) — the optimistic quorum-assembly layer under
// every vote/timeout/coin-share pool.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/threshold.h"
#include "smr/share_accumulator.h"

using namespace repro;
using namespace repro::smr;

namespace {

Bytes str_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

class ShareAccumulatorTest : public ::testing::Test {
 protected:
  ShareAccumulatorTest() : rng_(77), scheme_(crypto::ThresholdScheme::deal(7, 5, rng_)) {}

  ShareEnv env(bool lazy = true) { return ShareEnv{&scheme_, &lagrange_, &stats_, lazy}; }

  crypto::PartialSig share_of(ReplicaId i) { return scheme_.sign_share(i, msg_); }

  crypto::PartialSig bad_share_of(ReplicaId i) {
    auto s = share_of(i);
    s.value ^= 1;
    return s;
  }

  Rng rng_;
  crypto::ThresholdScheme scheme_;
  crypto::LagrangeCache lagrange_;
  ShareStats stats_;
  const Bytes msg_ = str_bytes("target message");
};

TEST_F(ShareAccumulatorTest, OptimisticPathFormsAtThresholdWithoutShareVerifies) {
  ShareAccumulator acc(scheme_, msg_);
  for (ReplicaId i = 0; i < 4; ++i) {
    EXPECT_FALSE(acc.add(env(), share_of(i)).has_value());
  }
  const auto sig = acc.add(env(), share_of(4));
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme_.verify(*sig, msg_));
  EXPECT_TRUE(acc.done());
  EXPECT_EQ(stats_.shares_verified, 0u);  // no per-share check on the honest path
  EXPECT_EQ(stats_.shares_deferred, 5u);
  EXPECT_EQ(stats_.combines_optimistic, 1u);
  EXPECT_EQ(stats_.combine_fallbacks, 0u);
}

TEST_F(ShareAccumulatorTest, LazySignatureEqualsEagerSignature) {
  ShareAccumulator lazy_acc(scheme_, msg_);
  ShareAccumulator eager_acc(scheme_, msg_);
  std::optional<crypto::ThresholdSig> lazy_sig, eager_sig;
  for (ReplicaId i = 0; i < 5; ++i) {
    lazy_sig = lazy_acc.add(env(true), share_of(i));
    eager_sig = eager_acc.add(env(false), share_of(i));
  }
  ASSERT_TRUE(lazy_sig && eager_sig);
  EXPECT_EQ(lazy_sig->value, eager_sig->value);
}

TEST_F(ShareAccumulatorTest, BadShareTriggersFallbackEvictionAndRecovers) {
  ShareAccumulator acc(scheme_, msg_);
  EXPECT_FALSE(acc.add(env(), bad_share_of(0)).has_value());  // buffered unverified
  for (ReplicaId i = 1; i < 4; ++i) {
    EXPECT_FALSE(acc.add(env(), share_of(i)).has_value());
  }
  // 5th distinct signer reaches threshold; the optimistic combine fails,
  // the per-share pass evicts signer 0 and the accumulator drops back
  // below threshold.
  EXPECT_FALSE(acc.add(env(), share_of(4)).has_value());
  EXPECT_EQ(stats_.combine_fallbacks, 1u);
  EXPECT_EQ(stats_.bad_shares_rejected, 1u);
  EXPECT_EQ(acc.count(), 4u);
  ASSERT_GT(stats_.blame.size(), 0u);
  EXPECT_EQ(stats_.blame[0], 1u);
  // The next valid share completes the certificate.
  const auto sig = acc.add(env(), share_of(5));
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme_.verify(*sig, msg_));
}

TEST_F(ShareAccumulatorTest, BannedSignerStaysBannedAfterEviction) {
  ShareAccumulator acc(scheme_, msg_);
  acc.add(env(), bad_share_of(0));
  for (ReplicaId i = 1; i < 5; ++i) acc.add(env(), share_of(i));  // fallback evicts 0
  EXPECT_EQ(stats_.bad_shares_rejected, 1u);
  // A now-VALID share from the banned signer is refused: admitting it
  // would let a Byzantine replica force one combine fallback per share.
  EXPECT_FALSE(acc.add(env(), share_of(0)).has_value());
  EXPECT_EQ(acc.count(), 4u);
  const auto sig = acc.add(env(), share_of(5));
  ASSERT_TRUE(sig.has_value());
}

TEST_F(ShareAccumulatorTest, EagerModeRejectsAndBansAtAdmission) {
  ShareAccumulator acc(scheme_, msg_);
  EXPECT_FALSE(acc.add(env(false), bad_share_of(0)).has_value());
  EXPECT_EQ(stats_.bad_shares_rejected, 1u);
  EXPECT_EQ(acc.count(), 0u);
  // Banned exactly like the lazy fallback pass would: later valid shares
  // from the same signer are dropped, keeping both modes byte-identical.
  EXPECT_FALSE(acc.add(env(false), share_of(0)).has_value());
  EXPECT_EQ(acc.count(), 0u);
  std::optional<crypto::ThresholdSig> sig;
  for (ReplicaId i = 1; i < 6; ++i) sig = acc.add(env(false), share_of(i));
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(stats_.combines_optimistic, 0u);  // all-verified combine skips the check
}

TEST_F(ShareAccumulatorTest, DuplicateAndOutOfRangeSignersRejected) {
  ShareAccumulator acc(scheme_, msg_);
  EXPECT_FALSE(acc.add(env(), share_of(2)).has_value());
  EXPECT_FALSE(acc.add(env(), share_of(2)).has_value());  // duplicate
  EXPECT_EQ(acc.count(), 1u);
  crypto::PartialSig oor = share_of(2);
  oor.signer = 7;  // n = 7, ids are 0..6
  EXPECT_FALSE(acc.add(env(), oor).has_value());
  EXPECT_EQ(acc.count(), 1u);
}

TEST_F(ShareAccumulatorTest, DoneAccumulatorIgnoresFurtherShares) {
  ShareAccumulator acc(scheme_, msg_);
  std::optional<crypto::ThresholdSig> sig;
  for (ReplicaId i = 0; i < 5; ++i) sig = acc.add(env(), share_of(i));
  ASSERT_TRUE(sig.has_value());
  // The certificate is handed out exactly once; extra shares are no-ops.
  EXPECT_FALSE(acc.add(env(), share_of(5)).has_value());
  EXPECT_TRUE(acc.done());
}

TEST_F(ShareAccumulatorTest, AllBadSharesNeverFormCertificate) {
  ShareAccumulator acc(scheme_, msg_);
  for (ReplicaId i = 0; i < 7; ++i) {
    EXPECT_FALSE(acc.add(env(), bad_share_of(i)).has_value());
  }
  EXPECT_FALSE(acc.done());
  // The add reaching threshold (5th) triggered one fallback pass that
  // evicted all five buffered shares; the last two sit buffered below
  // threshold and can never complete a quorum (only 2 unbanned signers).
  EXPECT_EQ(stats_.combine_fallbacks, 1u);
  EXPECT_EQ(stats_.bad_shares_rejected, 5u);
  EXPECT_EQ(acc.count(), 2u);
}

TEST(SharePool, KeysIsolateTargetsAndEraseBeforePrunes) {
  Rng rng(9);
  auto scheme = crypto::ThresholdScheme::deal(4, 3, rng);
  crypto::LagrangeCache lagrange;
  ShareStats stats;
  const ShareEnv env{&scheme, &lagrange, &stats, true};
  SharePool<std::uint64_t> pool;

  auto msg_for = [](std::uint64_t key) { return str_bytes("round " + std::to_string(key)); };
  for (std::uint64_t round : {1ull, 2ull, 3ull}) {
    for (ReplicaId i = 0; i < 2; ++i) {
      EXPECT_FALSE(pool.add(env, round, scheme.sign_share(i, msg_for(round)),
                            [&] { return msg_for(round); })
                       .has_value());
    }
    EXPECT_EQ(pool.count(round), 2u);
  }
  EXPECT_EQ(pool.size(), 3u);
  // Completing round 2 does not touch rounds 1 and 3.
  const auto sig = pool.add(env, 2, scheme.sign_share(2, msg_for(2)), [&] { return msg_for(2); });
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(pool.formed(2));
  EXPECT_FALSE(pool.formed(1));
  // Prune everything below round 3; a floor below every key removes nothing.
  pool.erase_before(3);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.count(3), 2u);
  EXPECT_EQ(pool.count(1), 0u);
  pool.erase_before(0);
  EXPECT_EQ(pool.size(), 1u);

  // Fill the pool: a full pool refuses a new target (counted) and never
  // evicts one it holds, so round 3's two shares still complete it.
  const std::size_t cap = SharePool<std::uint64_t>::kMaxTargets;
  for (std::uint64_t round = 4; pool.size() < cap; ++round) {
    pool.add(env, round, scheme.sign_share(0, msg_for(round)), [&] { return msg_for(round); });
  }
  EXPECT_EQ(stats.targets_refused, 0u);
  const std::uint64_t extra = 1000;
  EXPECT_FALSE(pool.add(env, extra, scheme.sign_share(0, msg_for(extra)),
                        [&] { return msg_for(extra); })
                   .has_value());
  EXPECT_EQ(stats.targets_refused, 1u);
  EXPECT_EQ(pool.size(), cap);
  EXPECT_EQ(pool.count(extra), 0u);
  EXPECT_EQ(pool.count(3), 2u);
  EXPECT_EQ(pool.count(4), 1u);
  EXPECT_TRUE(pool.add(env, 3, scheme.sign_share(2, msg_for(3)), [&] { return msg_for(3); })
                  .has_value());
  EXPECT_EQ(stats.targets_refused, 1u);  // a held target is never refused
}

}  // namespace
