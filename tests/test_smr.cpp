// Unit tests for the SMR data model: ranks, blocks, certificates, wire
// messages, block store, ledger and mempool.
#include <gtest/gtest.h>

#include <functional>

#include "smr/block.h"
#include "smr/block_store.h"
#include "smr/certificates.h"
#include "smr/ledger.h"
#include "smr/mempool.h"
#include "smr/messages.h"
#include "smr/rank.h"

namespace repro::smr {
namespace {

std::shared_ptr<const crypto::CryptoSystem> test_crypto(std::uint32_t n = 4) {
  return crypto::CryptoSystem::deal(QuorumParams::for_n(n), 4242);
}

Certificate make_qc(const crypto::CryptoSystem& sys, const BlockId& id, Round r, View v) {
  std::vector<crypto::PartialSig> shares;
  const Bytes msg = cert_signing_message(CertKind::kQuorum, id, r, v, 0, 0);
  for (ReplicaId i = 0; i < sys.params.quorum(); ++i) {
    shares.push_back(sys.quorum_sigs.sign_share(i, msg));
  }
  auto qc = combine_certificate(sys, CertKind::kQuorum, id, r, v, 0, 0, shares);
  EXPECT_TRUE(qc.has_value());
  return *qc;
}

Certificate make_fqc(const crypto::CryptoSystem& sys, const BlockId& id, Round r, View v,
                     FallbackHeight h, ReplicaId proposer) {
  std::vector<crypto::PartialSig> shares;
  const Bytes msg = cert_signing_message(CertKind::kFallback, id, r, v, h, proposer);
  for (ReplicaId i = 0; i < sys.params.quorum(); ++i) {
    shares.push_back(sys.quorum_sigs.sign_share(i, msg));
  }
  auto qc = combine_certificate(sys, CertKind::kFallback, id, r, v, h, proposer, shares);
  EXPECT_TRUE(qc.has_value());
  return *qc;
}

// ---- Rank -------------------------------------------------------------------

TEST(Rank, OrderedByViewFirst) {
  EXPECT_LT((Rank{0, true, 100}), (Rank{1, false, 1}));
}

TEST(Rank, EndorsedBeatsPlainInSameView) {
  // Paper §3: an endorsed f-QC ranks higher than any QC of the same view.
  EXPECT_LT((Rank{3, false, 100}), (Rank{3, true, 1}));
}

TEST(Rank, RoundBreaksTiesLast) {
  EXPECT_LT((Rank{3, false, 5}), (Rank{3, false, 6}));
  EXPECT_EQ((Rank{3, false, 5}), (Rank{3, false, 5}));
}

TEST(Rank, MaxPicksHigher) {
  const Rank a{1, false, 9};
  const Rank b{2, false, 1};
  EXPECT_EQ(max(a, b), b);
  EXPECT_EQ(max(b, a), b);
}

TEST(Rank, DiemDegenerateCaseRanksByRound) {
  // View fixed at 0, no endorsements: rank order == round order.
  EXPECT_LT((Rank{0, false, 3}), (Rank{0, false, 4}));
}

// ---- Block ------------------------------------------------------------------

TEST(Block, IdBindsAllFields) {
  const Certificate g = genesis_certificate();
  const Block base = Block::make(g, 1, 0, 0, 2, Bytes{1, 2});
  EXPECT_TRUE(base.id_consistent());

  Block tampered = base;
  tampered.round = 2;
  EXPECT_FALSE(tampered.id_consistent());
  tampered = base;
  tampered.payload = make_shared_bytes(Bytes{1, 3});
  EXPECT_FALSE(tampered.id_consistent());
  tampered = base;
  tampered.proposer = 3;
  EXPECT_FALSE(tampered.id_consistent());
  tampered = base;
  tampered.height = 1;
  EXPECT_FALSE(tampered.id_consistent());
}

TEST(Block, GenesisIsSelfConsistent) {
  EXPECT_TRUE(Block::genesis().id_consistent());
  EXPECT_TRUE(Block::genesis().is_genesis());
  EXPECT_EQ(Block::genesis().round, 0u);
}

TEST(Block, EncodeDecodeRoundTrip) {
  const Block b = Block::make(genesis_certificate(), 5, 2, 3, 1, Bytes{9, 9, 9});
  Encoder enc;
  b.encode(enc);
  Decoder dec(enc.result());
  auto decoded = Block::decode(dec);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, b);
  EXPECT_TRUE(dec.done());
}

std::optional<Block> wire_round_trip(const Block& b) {
  Encoder enc;
  b.encode(enc);
  Decoder dec(enc.result());
  return Block::decode(dec);
}

bool wire_block_decodes(const Block& b) { return wire_round_trip(b).has_value(); }

/// One mutation of each wire field of a block.
const std::pair<const char*, void (*)(Block&)> kFieldTampers[] = {
    {"id", [](Block& b) { b.id[0] ^= 0x01; }},
    {"parent", [](Block& b) { b.parent.round = 7; }},
    {"round", [](Block& b) { b.round = 2; }},
    {"view", [](Block& b) { b.view = 1; }},
    {"height", [](Block& b) { b.height = 1; }},
    {"proposer", [](Block& b) { b.proposer = 3; }},
    {"payload_kind", [](Block& b) { b.payload_kind = kBatchRefPayload; }},
    {"payload", [](Block& b) { b.payload = make_shared_bytes(Bytes{1, 3}); }},
};

TEST(Block, DecodeRejectsEachTamperedField) {
  // Wire-level twin of IdBindsAllFields: received blocks get their id
  // checked in Block::decode, so a block with any field changed after
  // Block::make never decodes.
  const Block base = Block::make(genesis_certificate(), 1, 0, 0, 2, Bytes{1, 2});
  EXPECT_TRUE(wire_block_decodes(base));
  EXPECT_TRUE(wire_block_decodes(Block::genesis()));

  for (const auto& [field, tamper] : kFieldTampers) {
    Block tampered = base;
    tamper(tampered);
    EXPECT_FALSE(wire_block_decodes(tampered)) << field;
  }

  // Id-consistent but malformed: a batch reference must be 32 bytes and
  // the payload kind must be known.
  EXPECT_FALSE(wire_block_decodes(
      Block::make(genesis_certificate(), 1, 0, 0, 2, Bytes(31, 7), kBatchRefPayload)));
  EXPECT_FALSE(wire_block_decodes(Block::make(genesis_certificate(), 1, 0, 0, 2, Bytes{1}, 2)));
  EXPECT_TRUE(wire_block_decodes(
      Block::make(genesis_certificate(), 1, 0, 0, 2, Bytes(32, 7), kBatchRefPayload)));
}

TEST(Block, IdMemoVouchesOnlyForTheFieldsItHashed) {
  // Blocks from make() and decode() carry a record of the fields they
  // hashed, so checking them again costs no hash. The record must never
  // vouch for anything else: each mutated wire field, and a payload
  // swapped for different bytes, fails the check on either kind of block.
  const Block made = Block::make(genesis_certificate(), 1, 0, 0, 2, Bytes{1, 2});
  const std::optional<Block> decoded = wire_round_trip(made);
  ASSERT_TRUE(decoded.has_value());
  for (const Block* base : {&made, &*decoded}) {
    EXPECT_TRUE(base->id_memoized());
    EXPECT_TRUE(base->id_consistent());
    for (const auto& [field, tamper] : kFieldTampers) {
      Block tampered = *base;
      tamper(tampered);
      EXPECT_FALSE(tampered.id_consistent()) << field;
    }
    // Equal bytes in a fresh buffer: the memo no longer applies (buffers
    // compare by identity), and the rehash accepts the block.
    Block fresh = *base;
    fresh.payload = make_shared_bytes(Bytes(*base->payload));
    EXPECT_FALSE(fresh.id_memoized());
    EXPECT_TRUE(fresh.id_consistent());
    // Copies share the buffer and the memo.
    const Block copy = *base;
    EXPECT_EQ(copy.payload.get(), base->payload.get());
    EXPECT_TRUE(copy.id_memoized());
  }
  // A hand-built block has no memo and is judged by the hash alone.
  Block manual;
  manual.parent = made.parent;
  manual.round = made.round;
  manual.proposer = made.proposer;
  manual.payload = made.payload;
  manual.id = made.id;
  EXPECT_FALSE(manual.id_memoized());
  EXPECT_TRUE(manual.id_consistent());
  manual.round = 9;
  EXPECT_FALSE(manual.id_consistent());
}

TEST(Block, BlockResponseWithOneTamperedBlockIsRejected) {
  const Block a = Block::make(genesis_certificate(), 1, 0, 0, 1, Bytes{1});
  Block bad = Block::make(genesis_certificate(), 2, 0, 0, 2, Bytes{2});
  bad.payload = make_shared_bytes(Bytes{2, 3});
  const Block c = Block::make(genesis_certificate(), 3, 0, 0, 3, Bytes{4});

  BlockResponseMsg good;
  good.blocks = {a, c};
  EXPECT_TRUE(decode_message(encode_message(Message{good})).has_value());
  EXPECT_TRUE(blocks_id_consistent(Message{good}));

  BlockResponseMsg resp;
  resp.blocks = {a, bad, c};
  EXPECT_FALSE(decode_message(encode_message(Message{resp})).has_value());
  EXPECT_FALSE(blocks_id_consistent(Message{resp}));
}

TEST(Block, DistinctPayloadsDistinctIds) {
  const Block a = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1});
  const Block b = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{2});
  EXPECT_NE(a.id, b.id);
}

// ---- Certificates --------------------------------------------------------------

TEST(Certificates, GenesisVerifiesByFiat) {
  auto sys = test_crypto();
  EXPECT_TRUE(verify_certificate(*sys, genesis_certificate()));
}

TEST(Certificates, ForgedGenesisRejected) {
  auto sys = test_crypto();
  Certificate fake = genesis_certificate();
  fake.round = 3;
  EXPECT_FALSE(verify_certificate(*sys, fake));
}

TEST(Certificates, QuorumCertRoundTripsAndVerifies) {
  auto sys = test_crypto();
  const Block b = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{});
  const Certificate qc = make_qc(*sys, b.id, 1, 0);
  EXPECT_TRUE(verify_certificate(*sys, qc));

  Encoder enc;
  qc.encode(enc);
  Decoder dec(enc.result());
  auto decoded = Certificate::decode(dec);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, qc);
}

TEST(Certificates, TamperedQcRejected) {
  auto sys = test_crypto();
  const Block b = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{});
  Certificate qc = make_qc(*sys, b.id, 1, 0);
  qc.round = 2;
  EXPECT_FALSE(verify_certificate(*sys, qc));
}

TEST(Certificates, QuorumCertWithHeightRejected) {
  auto sys = test_crypto();
  const Block b = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{});
  Certificate qc = make_qc(*sys, b.id, 1, 0);
  qc.height = 2;  // regular QCs must have height 0
  EXPECT_FALSE(verify_certificate(*sys, qc));
}

TEST(Certificates, FallbackCertVerifies) {
  auto sys = test_crypto();
  const Block b = Block::make(genesis_certificate(), 1, 1, 1, 2, Bytes{});
  const Certificate fqc = make_fqc(*sys, b.id, 1, 1, 1, 2);
  EXPECT_TRUE(verify_certificate(*sys, fqc));
}

TEST(Certificates, FallbackCertHeightBoundsEnforced) {
  auto sys = test_crypto();
  const Block b = Block::make(genesis_certificate(), 1, 1, 1, 2, Bytes{});
  Certificate fqc = make_fqc(*sys, b.id, 1, 1, 1, 2);
  fqc.height = 0;
  EXPECT_FALSE(verify_certificate(*sys, fqc));
  fqc.height = 4;
  EXPECT_FALSE(verify_certificate(*sys, fqc));
}

TEST(Certificates, SigningMessageSeparatesQcFromFqc) {
  // An f-QC signature must not validate as a regular QC of the same block.
  const BlockId id = genesis_id();
  EXPECT_NE(cert_signing_message(CertKind::kQuorum, id, 1, 0, 0, 0),
            cert_signing_message(CertKind::kFallback, id, 1, 0, 1, 0));
}

TEST(Certificates, CombineRequiresQuorum) {
  auto sys = test_crypto();
  const Block b = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{});
  const Bytes msg = cert_signing_message(CertKind::kQuorum, b.id, 1, 0, 0, 0);
  std::vector<crypto::PartialSig> shares = {sys->quorum_sigs.sign_share(0, msg),
                                            sys->quorum_sigs.sign_share(1, msg)};
  EXPECT_FALSE(
      combine_certificate(*sys, CertKind::kQuorum, b.id, 1, 0, 0, 0, shares).has_value());
}

TEST(Certificates, TcAndFtcVerify) {
  auto sys = test_crypto();
  std::vector<crypto::PartialSig> tc_shares, ftc_shares;
  for (ReplicaId i = 0; i < 3; ++i) {
    tc_shares.push_back(sys->quorum_sigs.sign_share(i, tc_signing_message(7)));
    ftc_shares.push_back(sys->quorum_sigs.sign_share(i, ftc_signing_message(2)));
  }
  auto tc = combine_tc(*sys, 7, tc_shares);
  ASSERT_TRUE(tc.has_value());
  EXPECT_TRUE(verify_tc(*sys, *tc));
  EXPECT_FALSE(verify_tc(*sys, TimeoutCert{8, tc->sig}));

  auto ftc = combine_ftc(*sys, 2, ftc_shares);
  ASSERT_TRUE(ftc.has_value());
  EXPECT_TRUE(verify_ftc(*sys, *ftc));
  EXPECT_FALSE(verify_ftc(*sys, FallbackTC{3, ftc->sig}));
}

TEST(Certificates, TcShareIsNotFtcShare) {
  // Round-TC and view-f-TC domains must not collide even for equal numbers.
  EXPECT_NE(tc_signing_message(5), ftc_signing_message(5));
}

TEST(Certificates, CoinQcElectsConsistently) {
  auto sys = test_crypto();
  std::vector<crypto::PartialSig> shares = {sys->coin.coin_share(0, 3),
                                            sys->coin.coin_share(2, 3)};
  auto qc = combine_coin_qc(*sys, 3, shares);
  ASSERT_TRUE(qc.has_value());
  EXPECT_TRUE(verify_coin_qc(*sys, *qc));
  EXPECT_LT(qc->leader(*sys), 4u);
  EXPECT_FALSE(verify_coin_qc(*sys, CoinQC{4, qc->sig}));
}

// ---- Messages -------------------------------------------------------------------

TEST(Messages, AllTypesRoundTrip) {
  auto sys = test_crypto();
  const Block blk = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1, 2, 3});
  const Certificate qc = make_qc(*sys, blk.id, 1, 0);

  std::vector<Message> cases;
  {
    ProposalMsg m;
    m.block = blk;
    m.tc = TimeoutCert{3, crypto::ThresholdSig{99}};
    m.coins = {CoinQC{1, crypto::ThresholdSig{5}}};
    cases.push_back(m);
  }
  cases.push_back(VoteMsg{blk.id, 1, 0, crypto::PartialSig{2, 77}});
  {
    DiemTimeoutMsg m;
    m.round = 4;
    m.round_share = crypto::PartialSig{1, 55};
    m.qc_high = qc;
    cases.push_back(m);
  }
  cases.push_back(DiemTcMsg{TimeoutCert{9, crypto::ThresholdSig{1}}});
  {
    FbTimeoutMsg m;
    m.view = 2;
    m.view_share = crypto::PartialSig{0, 11};
    m.qc_high = qc;
    cases.push_back(m);
  }
  {
    FbProposalMsg m;
    m.block = blk;
    m.ftc = FallbackTC{2, crypto::ThresholdSig{8}};
    cases.push_back(m);
  }
  cases.push_back(FbVoteMsg{blk.id, 2, 1, 1, 3, crypto::PartialSig{1, 6}});
  cases.push_back(FbQcMsg{qc, {}});
  cases.push_back(CoinShareMsg{7, crypto::PartialSig{3, 2}});
  cases.push_back(CoinQcMsg{CoinQC{7, crypto::ThresholdSig{3}}});
  cases.push_back(BlockRequestMsg{blk.id, 64});
  cases.push_back(BlockResponseMsg{{blk, Block::genesis()}});

  for (auto& msg : cases) {
    sign_message(*sys, 0, msg);
    const Bytes wire = encode_message(msg);
    ASSERT_FALSE(wire.empty());
    EXPECT_EQ(wire[0], static_cast<std::uint8_t>(message_type(msg)));
    // The size hint encode_message reserves from must be exact — a drift
    // here means mid-encode reallocations (or an over-reservation) snuck
    // back in with a wire-format change.
    EXPECT_EQ(encoded_size(msg), wire.size()) << "type " << int(wire[0]);
    auto decoded = decode_message(wire);
    ASSERT_TRUE(decoded.has_value()) << "type " << int(wire[0]);
    EXPECT_EQ(encode_message(*decoded), wire);
  }
}

TEST(Messages, SignatureVerificationBindsSender) {
  auto sys = test_crypto();
  Message msg = ProposalMsg{Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{}),
                            std::nullopt, {}, {}};
  sign_message(*sys, 1, msg);
  EXPECT_TRUE(verify_message_signature(*sys, 1, msg));
  EXPECT_FALSE(verify_message_signature(*sys, 2, msg));
}

TEST(Messages, UnsignedTypesAlwaysVerify) {
  auto sys = test_crypto();
  Message msg = VoteMsg{genesis_id(), 1, 0, crypto::PartialSig{0, 1}};
  EXPECT_TRUE(verify_message_signature(*sys, 3, msg));
}

TEST(Messages, MalformedInputRejected) {
  EXPECT_FALSE(decode_message(Bytes{}).has_value());
  EXPECT_FALSE(decode_message(Bytes{0}).has_value());     // invalid tag
  EXPECT_FALSE(decode_message(Bytes{200}).has_value());   // unknown tag
  EXPECT_FALSE(decode_message(Bytes{1, 2, 3}).has_value());  // truncated body
}

TEST(Messages, TrailingGarbageRejected) {
  Message msg = CoinShareMsg{7, crypto::PartialSig{3, 2}};
  Bytes wire = encode_message(msg);
  wire.push_back(0xff);
  EXPECT_FALSE(decode_message(wire).has_value());
}

TEST(Messages, TruncationAtEveryByteNeverCrashes) {
  auto sys = test_crypto();
  Message msg = FbProposalMsg{Block::make(genesis_certificate(), 1, 0, 1, 0, Bytes{1}),
                              FallbackTC{0, crypto::ThresholdSig{1}},
                              {CoinQC{0, crypto::ThresholdSig{2}}},
                              {}};
  sign_message(*sys, 0, msg);
  const Bytes wire = encode_message(msg);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(decode_message(BytesView(wire.data(), len)).has_value()) << len;
  }
}

// ---- BlockStore ------------------------------------------------------------------

TEST(BlockStore, GenesisPreInstalled) {
  BlockStore store;
  EXPECT_TRUE(store.contains(genesis_id()));
  EXPECT_TRUE(store.is_certified(genesis_id()));
}

TEST(BlockStore, InsertAndGet) {
  BlockStore store;
  const Block b = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1});
  EXPECT_TRUE(store.insert(b));
  EXPECT_FALSE(store.insert(b));  // dedup
  ASSERT_NE(store.get(b.id), nullptr);
  EXPECT_EQ(*store.get(b.id), b);
}

TEST(BlockStore, InsertHandsBackTheStoredBlock) {
  BlockStore store;
  const Block b = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1});
  const auto first = store.insert(b);
  EXPECT_TRUE(first.inserted);
  EXPECT_EQ(first.block, store.get(b.id));
  // A duplicate reports the block already held, not a copy.
  const auto again = store.insert(b);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.block, first.block);
}

TEST(BlockStore, WalkAncestorsToGenesis) {
  auto sys = test_crypto();
  BlockStore store;
  const Block b1 = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1});
  const Certificate qc1 = make_qc(*sys, b1.id, 1, 0);
  const Block b2 = Block::make(qc1, 2, 0, 0, 0, Bytes{2});
  store.insert(b1);
  store.insert(b2);
  const auto walk = store.walk_ancestors(b2.id);
  EXPECT_FALSE(walk.missing.has_value());
  ASSERT_EQ(walk.blocks.size(), 3u);
  EXPECT_EQ(walk.blocks[0]->id, b2.id);
  EXPECT_EQ(walk.blocks[2]->id, genesis_id());
}

TEST(BlockStore, WalkReportsMissingAncestor) {
  auto sys = test_crypto();
  BlockStore store;
  const Block b1 = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1});
  const Certificate qc1 = make_qc(*sys, b1.id, 1, 0);
  const Block b2 = Block::make(qc1, 2, 0, 0, 0, Bytes{2});
  store.insert(b2);  // b1 body absent
  const auto walk = store.walk_ancestors(b2.id);
  ASSERT_TRUE(walk.missing.has_value());
  EXPECT_EQ(*walk.missing, b1.id);
  EXPECT_EQ(walk.blocks.size(), 1u);
}

TEST(BlockStore, CertificateLogKeepsFirstPerBlock) {
  auto sys = test_crypto();
  BlockStore store;
  const Block b = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{});
  const Certificate qc = make_qc(*sys, b.id, 1, 0);
  EXPECT_TRUE(store.add_certificate(qc));
  EXPECT_FALSE(store.add_certificate(qc));
  ASSERT_NE(store.certificate_for(b.id), nullptr);
  EXPECT_EQ(store.certificate_for(b.id)->block_id, b.id);
}

TEST(BlockStore, FallbackCertificatesIndexEachViewInArrivalOrder) {
  // A coin install rescans only its view's f-QCs, in the order the log
  // holds them: the index must name exactly those positions.
  auto sys = test_crypto();
  BlockStore store;
  const Block b = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{});
  const Certificate qc = make_qc(*sys, b.id, 1, 0);
  std::vector<Certificate> fqcs;
  for (ReplicaId p = 0; p < 3; ++p) {
    const Block f = Block::make(qc, 2, p == 2 ? 2 : 1, 1, p, Bytes{});
    fqcs.push_back(make_fqc(*sys, f.id, 2, f.view, 1, p));
  }
  EXPECT_TRUE(store.add_certificate(fqcs[0]));  // view 1
  EXPECT_TRUE(store.add_certificate(qc));
  EXPECT_TRUE(store.add_certificate(fqcs[2]));  // view 2
  EXPECT_TRUE(store.add_certificate(fqcs[1]));  // view 1
  EXPECT_FALSE(store.add_certificate(fqcs[0]));  // duplicate: no new position

  const auto& log = store.certificates();
  ASSERT_EQ(store.fallback_certificates(1).size(), 2u);
  EXPECT_EQ(log[store.fallback_certificates(1)[0]], fqcs[0]);
  EXPECT_EQ(log[store.fallback_certificates(1)[1]], fqcs[1]);
  ASSERT_EQ(store.fallback_certificates(2).size(), 1u);
  EXPECT_EQ(log[store.fallback_certificates(2)[0]], fqcs[2]);
  EXPECT_TRUE(store.fallback_certificates(0).empty());
  EXPECT_TRUE(store.fallback_certificates(3).empty());
}

/// A store holding a committed chain genesis <- b1 (view 0) <- c1 (view
/// 1, f-block of replica 0) <- e2 (view 2), next to dead view-1 f-blocks:
/// d1 (certified, replica 2) and u1 (never certified, replica 3).
struct PruneFixture {
  std::shared_ptr<const crypto::CryptoSystem> sys = test_crypto();
  BlockStore store;
  Block b1, c1, d1, u1, e2;
  Certificate qc1, fqc_c1, fqc_d1, qc_e2;

  PruneFixture() {
    b1 = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1});
    qc1 = make_qc(*sys, b1.id, 1, 0);
    c1 = Block::make(qc1, 2, 1, 1, 0, Bytes{2});
    d1 = Block::make(qc1, 2, 1, 1, 2, Bytes(300, 0xd1));
    u1 = Block::make(qc1, 2, 1, 1, 3, Bytes{4});
    fqc_c1 = make_fqc(*sys, c1.id, 2, 1, 1, 0);
    fqc_d1 = make_fqc(*sys, d1.id, 2, 1, 1, 2);
    e2 = Block::make(fqc_c1, 3, 2, 0, 1, Bytes{5});
    qc_e2 = make_qc(*sys, e2.id, 3, 2);
    for (const Block* b : {&b1, &c1, &d1, &u1, &e2}) store.insert(*b);
    for (const Certificate* c : {&qc1, &fqc_c1, &fqc_d1, &qc_e2}) store.add_certificate(*c);
  }

  /// What the ledger would say after committing b1 and c1.
  std::function<bool(const BlockId&)> committed() const {
    return [b = b1.id, c = c1.id](const BlockId& id) { return id == b || id == c; };
  }
};

TEST(BlockStore, PruneDropsDeadViewsKeepsCommittedAndGenesis) {
  PruneFixture fx;
  BlockStore& store = fx.store;
  ASSERT_EQ(store.block_count(), 6u);
  EXPECT_EQ(store.prune(2, fx.committed()), 2u);  // d1 and u1
  EXPECT_EQ(store.floor(), 2u);
  for (const BlockId& kept : {genesis_id(), fx.b1.id, fx.c1.id, fx.e2.id}) {
    EXPECT_TRUE(store.contains(kept));
  }
  EXPECT_FALSE(store.contains(fx.d1.id));
  EXPECT_FALSE(store.contains(fx.u1.id));
  // Certificates of committed and live blocks stay; the dead one's goes.
  EXPECT_TRUE(store.is_certified(genesis_id()));
  EXPECT_TRUE(store.is_certified(fx.b1.id));
  EXPECT_TRUE(store.is_certified(fx.c1.id));
  EXPECT_TRUE(store.is_certified(fx.e2.id));
  EXPECT_FALSE(store.is_certified(fx.d1.id));
  EXPECT_EQ(store.block_count(), 4u);
  EXPECT_EQ(store.certificate_count(), 4u);
  // The committed chain still walks to genesis.
  const auto walk = store.walk_ancestors(fx.e2.id);
  EXPECT_FALSE(walk.missing.has_value());
  EXPECT_EQ(walk.blocks.size(), 4u);
  // Raising the floor is the only thing that prunes.
  EXPECT_EQ(store.prune(2, fx.committed()), 0u);
  EXPECT_EQ(store.prune(1, fx.committed()), 0u);
  EXPECT_EQ(store.floor(), 2u);
}

TEST(BlockStore, PruneRecordsHeadersForCertifiedRetiredBlocksOnly) {
  PruneFixture fx;
  fx.store.prune(2, fx.committed());
  // d1 held a certificate: its header stays, without the payload. u1 was
  // never certified, so no lemma reads it and it leaves nothing.
  ASSERT_EQ(fx.store.retired().size(), 1u);
  const BlockHeader& h = fx.store.retired().front();
  EXPECT_EQ(h.id, fx.d1.id);
  EXPECT_EQ(h.parent, fx.d1.parent);
  EXPECT_EQ(h.round, fx.d1.round);
  EXPECT_EQ(h.view, fx.d1.view);
  EXPECT_EQ(h.height, fx.d1.height);
  EXPECT_EQ(h.proposer, fx.d1.proposer);
  EXPECT_FALSE(h.is_genesis());
}

TEST(BlockStore, PruneKeepsTheCertificateLogAndViewIndexConsistent) {
  PruneFixture fx;
  BlockStore& store = fx.store;
  const Block f3 = Block::make(fx.qc_e2, 4, 3, 1, 1, Bytes{6});
  const Certificate fqc_f3 = make_fqc(*fx.sys, f3.id, 4, 3, 1, 1);
  store.insert(f3);
  EXPECT_TRUE(store.add_certificate(fqc_f3));
  const std::vector<Certificate> log_before = store.certificates();

  store.prune(2, fx.committed());
  // The log is the audit trail: whole and in order.
  EXPECT_EQ(store.certificates(), log_before);
  EXPECT_TRUE(store.fallback_certificates(1).empty());
  ASSERT_EQ(store.fallback_certificates(3).size(), 1u);
  EXPECT_EQ(store.certificates()[store.fallback_certificates(3)[0]], fqc_f3);

  // Below the floor a certificate is refused and logs nothing; at the
  // floor it is recorded as before.
  const Certificate late = make_fqc(*fx.sys, fx.u1.id, 2, 1, 1, 3);
  EXPECT_FALSE(store.add_certificate(late));
  EXPECT_FALSE(store.is_certified(fx.u1.id));
  EXPECT_EQ(store.certificates().size(), log_before.size());
  const Block e2b = Block::make(fx.fqc_c1, 3, 2, 0, 2, Bytes{7});
  EXPECT_TRUE(store.add_certificate(make_qc(*fx.sys, e2b.id, 3, 2)));
  EXPECT_EQ(store.certificates().size(), log_before.size() + 1);
}

TEST(BlockStore, LateBlockBelowTheFloorGoesAtTheNextPrune) {
  PruneFixture fx;
  BlockStore& store = fx.store;
  store.prune(2, fx.committed());
  // A catch-up response may still deliver a dead view-1 block.
  EXPECT_TRUE(store.insert(fx.u1));
  EXPECT_TRUE(store.contains(fx.u1.id));
  store.prune(3, fx.committed());
  EXPECT_FALSE(store.contains(fx.u1.id));
  EXPECT_FALSE(store.contains(fx.e2.id));  // view 2, uncommitted
  EXPECT_TRUE(store.contains(fx.c1.id));
}

// ---- Ledger ----------------------------------------------------------------------

TEST(Ledger, CommitsChainOldestFirst) {
  auto sys = test_crypto();
  BlockStore store;
  const Block b1 = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1});
  const Certificate qc1 = make_qc(*sys, b1.id, 1, 0);
  const Block b2 = Block::make(qc1, 2, 0, 0, 0, Bytes{2});
  store.insert(b1);
  store.insert(b2);

  Ledger ledger;
  std::vector<Round> committed_rounds;
  ledger.set_commit_callback([&](const Block& b, SimTime) {
    committed_rounds.push_back(b.round);
  });
  EXPECT_EQ(ledger.commit_chain(b2, store, 100), 2u);
  EXPECT_EQ(committed_rounds, (std::vector<Round>{1, 2}));
  EXPECT_TRUE(ledger.is_committed(b1.id));
  EXPECT_TRUE(ledger.is_committed(b2.id));
  EXPECT_EQ(ledger.records()[0].commit_time, 100u);
}

TEST(Ledger, RecommitIsNoop) {
  auto sys = test_crypto();
  BlockStore store;
  const Block b1 = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1});
  store.insert(b1);
  Ledger ledger;
  EXPECT_EQ(ledger.commit_chain(b1, store, 1), 1u);
  EXPECT_EQ(ledger.commit_chain(b1, store, 2), 0u);
  EXPECT_EQ(ledger.size(), 1u);
}

TEST(Ledger, CanCommitDetectsMissingAncestor) {
  auto sys = test_crypto();
  BlockStore store;
  const Block b1 = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1});
  const Certificate qc1 = make_qc(*sys, b1.id, 1, 0);
  const Block b2 = Block::make(qc1, 2, 0, 0, 0, Bytes{2});
  store.insert(b2);
  Ledger ledger;
  std::optional<BlockId> missing;
  EXPECT_FALSE(ledger.can_commit(b2, store, &missing));
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(*missing, b1.id);
}

TEST(Ledger, CommitExtendsFromPreviousCommit) {
  auto sys = test_crypto();
  BlockStore store;
  const Block b1 = Block::make(genesis_certificate(), 1, 0, 0, 0, Bytes{1});
  const Certificate qc1 = make_qc(*sys, b1.id, 1, 0);
  const Block b2 = Block::make(qc1, 2, 0, 0, 0, Bytes{2});
  store.insert(b1);
  store.insert(b2);
  Ledger ledger;
  ledger.commit_chain(b1, store, 1);
  EXPECT_EQ(ledger.commit_chain(b2, store, 2), 1u);
  ASSERT_EQ(ledger.records().size(), 2u);
  EXPECT_EQ(ledger.records()[1].id, b2.id);
}

// ---- Mempool ----------------------------------------------------------------------

TEST(Mempool, BatchesHaveConfiguredSize) {
  Mempool pool(3, 256, Rng(1));
  EXPECT_EQ(pool.next_batch().size(), 256u + 12u);
}

TEST(Mempool, BatchesAreDistinct) {
  Mempool pool(3, 64, Rng(1));
  EXPECT_NE(pool.next_batch(), pool.next_batch());
  EXPECT_EQ(pool.batches_produced(), 2u);
}

TEST(Mempool, DeterministicAcrossInstances) {
  Mempool a(3, 64, Rng(9)), b(3, 64, Rng(9));
  EXPECT_EQ(a.next_batch(), b.next_batch());
}

}  // namespace
}  // namespace repro::smr
