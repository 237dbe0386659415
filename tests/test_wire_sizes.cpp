// Wire-size properties behind Theorem 9: certificates are constant-size
// in n (that is what makes the sync path O(n) instead of O(n^2)), votes
// are tiny, and message overheads are bounded. These tests pin the
// actual encoded sizes so an accidental regression to O(n)-sized
// certificates (e.g. shipping signer bitmaps or vote vectors) fails CI.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "smr/messages.h"

namespace repro::smr {
namespace {

Certificate make_qc(const crypto::CryptoSystem& sys, Round r) {
  const Block b = Block::make(genesis_certificate(), r, 0, 0, 0, Bytes{});
  std::vector<crypto::PartialSig> shares;
  const Bytes msg = cert_signing_message(CertKind::kQuorum, b.id, r, 0, 0, 0);
  for (ReplicaId i = 0; i < sys.params.quorum(); ++i) {
    shares.push_back(sys.quorum_sigs.sign_share(i, msg));
  }
  return *combine_certificate(sys, CertKind::kQuorum, b.id, r, 0, 0, 0, shares);
}

std::size_t certificate_wire_size(const Certificate& c) {
  Encoder enc;
  c.encode(enc);
  return enc.size();
}

TEST(WireSizes, CertificateSizeIndependentOfN) {
  // The whole point of threshold signatures (paper §2): a QC combining
  // 2f+1 shares is one constant-size object.
  std::size_t size4 = 0, size31 = 0, size100 = 0;
  {
    auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 1);
    size4 = certificate_wire_size(make_qc(*sys, 1));
  }
  {
    auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(31), 2);
    size31 = certificate_wire_size(make_qc(*sys, 1));
  }
  {
    auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(100), 3);
    size100 = certificate_wire_size(make_qc(*sys, 1));
  }
  EXPECT_EQ(size4, size31);
  EXPECT_EQ(size31, size100);
  EXPECT_LE(size4, 80u);  // kind + id + numbers + one threshold sig
}

TEST(WireSizes, VoteIsConstantSize) {
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(31), 4);
  VoteMsg vote{genesis_id(), 5, 0, sys->quorum_sigs.sign_share(7, Bytes{1})};
  const Bytes wire = encode_message(Message{vote});
  EXPECT_LE(wire.size(), 80u);
}

TEST(WireSizes, EmptyProposalOverheadIsBounded) {
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(31), 5);
  const Certificate qc = make_qc(*sys, 1);
  Block b = Block::make(qc, 2, 0, 0, 0, Bytes{});
  Message msg = ProposalMsg{std::move(b), std::nullopt, {}, {}};
  // Tag + block (id + parent cert + numbers) + flags + signature.
  EXPECT_LE(encode_signed(*sys, 0, msg).size(), 220u);
}

TEST(WireSizes, ProposalScalesOnlyWithPayload) {
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 6);
  const Certificate qc = make_qc(*sys, 1);
  auto size_for = [&](std::size_t payload) {
    Block b = Block::make(qc, 2, 0, 0, 0, Bytes(payload, 0x7));
    Message msg = ProposalMsg{std::move(b), std::nullopt, {}, {}};
    return encode_signed(*sys, 0, msg).size();
  };
  const std::size_t s0 = size_for(0);
  const std::size_t s1k = size_for(1024);
  EXPECT_EQ(s1k - s0, 1024u);  // byte-for-byte: no payload re-encoding blowup
}

TEST(WireSizes, TimeoutMessageConstantSize) {
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(31), 7);
  FbTimeoutMsg m;
  m.view = 3;
  m.view_share = sys->quorum_sigs.sign_share(2, ftc_signing_message(3));
  m.qc_high = make_qc(*sys, 9);
  Message msg = m;
  EXPECT_LE(encode_signed(*sys, 2, msg).size(), 180u);
}

TEST(WireSizes, MeasuredSyncTrafficMatchesLinearModel) {
  // End-to-end: with empty batches, per-decision bytes are ~2(n-1) small
  // constant-size messages, i.e. linear in n with a small constant.
  for (std::uint32_t n : {4u, 13u}) {
    harness::ExperimentConfig cfg;
    cfg.n = n;
    cfg.protocol = harness::Protocol::kFallback3;
    cfg.seed = 8;
    harness::Experiment exp(cfg);
    exp.start();
    ASSERT_TRUE(exp.run_until_commits(40, 2'000'000'000ull));
    const double bytes_per_decision =
        double(exp.network().stats().bytes) / exp.min_honest_commits();
    // proposal (~210B) + vote (~60B) per replica-pair, with slack for
    // block fetches and rotation-boundary effects.
    EXPECT_LT(bytes_per_decision, 400.0 * (n - 1)) << "n=" << n;
  }
}

}  // namespace
}  // namespace repro::smr
