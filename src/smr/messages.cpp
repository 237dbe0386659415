#include "smr/messages.h"

#include "common/assert.h"

namespace repro::smr {
namespace {

void encode_partial(Encoder& enc, const crypto::PartialSig& p) {
  enc.u32(p.signer);
  enc.u64(p.value);
}

std::optional<crypto::PartialSig> decode_partial(Decoder& dec) {
  auto signer = dec.u32();
  auto value = dec.u64();
  if (!signer || !value) return std::nullopt;
  return crypto::PartialSig{*signer, *value};
}

void encode_sig(Encoder& enc, const crypto::Signature& s) {
  enc.raw(BytesView(s.data(), s.size()));
}

std::optional<crypto::Signature> decode_sig(Decoder& dec) {
  auto raw = dec.raw(32);
  if (!raw) return std::nullopt;
  crypto::Signature s;
  std::copy(raw->begin(), raw->end(), s.begin());
  return s;
}

void encode_coins(Encoder& enc, const std::vector<CoinQC>& coins) {
  enc.u32(static_cast<std::uint32_t>(coins.size()));
  for (const auto& c : coins) c.encode(enc);
}

std::optional<std::vector<CoinQC>> decode_coins(Decoder& dec) {
  auto count = dec.u32();
  if (!count || *count > 64) return std::nullopt;  // sanity bound
  std::vector<CoinQC> coins;
  coins.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto c = CoinQC::decode(dec);
    if (!c) return std::nullopt;
    coins.push_back(*c);
  }
  return coins;
}

void encode_block_id(Encoder& enc, const BlockId& id) {
  enc.raw(BytesView(id.data(), id.size()));
}

std::optional<BlockId> decode_block_id(Decoder& dec) {
  auto raw = dec.raw(32);
  if (!raw) return std::nullopt;
  BlockId id;
  std::copy(raw->begin(), raw->end(), id.begin());
  return id;
}

// ---- per-type body encoding (everything except the trailing signature) --

void encode_body(Encoder& enc, const ProposalMsg& m) {
  m.block.encode(enc);
  enc.bool_(m.tc.has_value());
  if (m.tc) m.tc->encode(enc);
  encode_coins(enc, m.coins);
}

void encode_body(Encoder& enc, const VoteMsg& m) {
  encode_block_id(enc, m.block_id);
  enc.u64(m.round);
  enc.u64(m.view);
  encode_partial(enc, m.share);
}

void encode_body(Encoder& enc, const DiemTimeoutMsg& m) {
  enc.u64(m.round);
  encode_partial(enc, m.round_share);
  m.qc_high.encode(enc);
}

void encode_body(Encoder& enc, const DiemTcMsg& m) { m.tc.encode(enc); }

void encode_body(Encoder& enc, const FbTimeoutMsg& m) {
  enc.u64(m.view);
  encode_partial(enc, m.view_share);
  m.qc_high.encode(enc);
  encode_coins(enc, m.coins);
}

void encode_body(Encoder& enc, const FbProposalMsg& m) {
  m.block.encode(enc);
  enc.bool_(m.ftc.has_value());
  if (m.ftc) m.ftc->encode(enc);
  encode_coins(enc, m.coins);
}

void encode_body(Encoder& enc, const FbVoteMsg& m) {
  encode_block_id(enc, m.block_id);
  enc.u64(m.round);
  enc.u64(m.view);
  enc.u32(m.height);
  enc.u32(m.chain_owner);
  encode_partial(enc, m.share);
}

void encode_body(Encoder& enc, const FbQcMsg& m) { m.fqc.encode(enc); }

void encode_body(Encoder& enc, const CoinShareMsg& m) {
  enc.u64(m.view);
  encode_partial(enc, m.share);
}

void encode_body(Encoder& enc, const CoinQcMsg& m) {
  m.qc.encode(enc);
  enc.bool_(m.leader_best.has_value());
  if (m.leader_best) m.leader_best->encode(enc);
}

void encode_body(Encoder& enc, const BlockRequestMsg& m) {
  encode_block_id(enc, m.block_id);
  enc.u32(m.ancestors);
}

void encode_body(Encoder& enc, const BlockResponseMsg& m) {
  enc.u32(static_cast<std::uint32_t>(m.blocks.size()));
  for (const Block& b : m.blocks) b.encode(enc);
}

// ---- per-type body decoding ---------------------------------------------

std::optional<ProposalMsg> decode_proposal(Decoder& dec) {
  ProposalMsg m;
  auto block = Block::decode(dec);
  if (!block) return std::nullopt;
  m.block = std::move(*block);
  auto has_tc = dec.bool_();
  if (!has_tc) return std::nullopt;
  if (*has_tc) {
    auto tc = TimeoutCert::decode(dec);
    if (!tc) return std::nullopt;
    m.tc = *tc;
  }
  auto coins = decode_coins(dec);
  if (!coins) return std::nullopt;
  m.coins = std::move(*coins);
  auto sig = decode_sig(dec);
  if (!sig) return std::nullopt;
  m.sig = *sig;
  return m;
}

std::optional<VoteMsg> decode_vote(Decoder& dec) {
  VoteMsg m;
  auto id = decode_block_id(dec);
  auto round = dec.u64();
  auto view = dec.u64();
  auto share = decode_partial(dec);
  if (!id || !round || !view || !share) return std::nullopt;
  m.block_id = *id;
  m.round = *round;
  m.view = *view;
  m.share = *share;
  return m;
}

std::optional<DiemTimeoutMsg> decode_diem_timeout(Decoder& dec) {
  DiemTimeoutMsg m;
  auto round = dec.u64();
  auto share = decode_partial(dec);
  if (!round || !share) return std::nullopt;
  auto qc = Certificate::decode(dec);
  auto sig = decode_sig(dec);
  if (!qc || !sig) return std::nullopt;
  m.round = *round;
  m.round_share = *share;
  m.qc_high = *qc;
  m.sig = *sig;
  return m;
}

std::optional<DiemTcMsg> decode_diem_tc(Decoder& dec) {
  auto tc = TimeoutCert::decode(dec);
  if (!tc) return std::nullopt;
  return DiemTcMsg{*tc};
}

std::optional<FbTimeoutMsg> decode_fb_timeout(Decoder& dec) {
  FbTimeoutMsg m;
  auto view = dec.u64();
  auto share = decode_partial(dec);
  if (!view || !share) return std::nullopt;
  auto qc = Certificate::decode(dec);
  auto coins = decode_coins(dec);
  auto sig = decode_sig(dec);
  if (!qc || !coins || !sig) return std::nullopt;
  m.view = *view;
  m.view_share = *share;
  m.qc_high = *qc;
  m.coins = std::move(*coins);
  m.sig = *sig;
  return m;
}

std::optional<FbProposalMsg> decode_fb_proposal(Decoder& dec) {
  FbProposalMsg m;
  auto block = Block::decode(dec);
  if (!block) return std::nullopt;
  m.block = std::move(*block);
  auto has_ftc = dec.bool_();
  if (!has_ftc) return std::nullopt;
  if (*has_ftc) {
    auto ftc = FallbackTC::decode(dec);
    if (!ftc) return std::nullopt;
    m.ftc = *ftc;
  }
  auto coins = decode_coins(dec);
  auto sig = decode_sig(dec);
  if (!coins || !sig) return std::nullopt;
  m.coins = std::move(*coins);
  m.sig = *sig;
  return m;
}

std::optional<FbVoteMsg> decode_fb_vote(Decoder& dec) {
  FbVoteMsg m;
  auto id = decode_block_id(dec);
  auto round = dec.u64();
  auto view = dec.u64();
  auto height = dec.u32();
  auto owner = dec.u32();
  auto share = decode_partial(dec);
  if (!id || !round || !view || !height || !owner || !share) return std::nullopt;
  m.block_id = *id;
  m.round = *round;
  m.view = *view;
  m.height = *height;
  m.chain_owner = *owner;
  m.share = *share;
  return m;
}

std::optional<FbQcMsg> decode_fb_qc(Decoder& dec) {
  auto fqc = Certificate::decode(dec);
  auto sig = decode_sig(dec);
  if (!fqc || !sig) return std::nullopt;
  return FbQcMsg{*fqc, *sig};
}

std::optional<CoinShareMsg> decode_coin_share(Decoder& dec) {
  auto view = dec.u64();
  auto share = decode_partial(dec);
  if (!view || !share) return std::nullopt;
  return CoinShareMsg{*view, *share};
}

std::optional<CoinQcMsg> decode_coin_qc(Decoder& dec) {
  auto qc = CoinQC::decode(dec);
  if (!qc) return std::nullopt;
  auto has_best = dec.bool_();
  if (!has_best) return std::nullopt;
  CoinQcMsg msg{*qc, std::nullopt};
  if (*has_best) {
    auto best = Certificate::decode(dec);
    if (!best) return std::nullopt;
    msg.leader_best = *best;
  }
  return msg;
}

std::optional<BlockRequestMsg> decode_block_request(Decoder& dec) {
  auto id = decode_block_id(dec);
  auto ancestors = dec.u32();
  if (!id || !ancestors) return std::nullopt;
  return BlockRequestMsg{*id, *ancestors};
}

std::optional<BlockResponseMsg> decode_block_response(Decoder& dec) {
  auto count = dec.u32();
  if (!count || *count > kMaxBlocksPerResponse) return std::nullopt;
  BlockResponseMsg m;
  m.blocks.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto block = Block::decode(dec);
    if (!block) return std::nullopt;
    m.blocks.push_back(std::move(*block));
  }
  return m;
}

// Signed messages append the signature after the body.
template <typename T>
constexpr bool kHasOuterSig =
    std::is_same_v<T, ProposalMsg> || std::is_same_v<T, DiemTimeoutMsg> ||
    std::is_same_v<T, FbTimeoutMsg> || std::is_same_v<T, FbProposalMsg> ||
    std::is_same_v<T, FbQcMsg>;

constexpr std::size_t kSigSize = 32;  // outer Signature

}  // namespace

MsgType message_type(const Message& msg) {
  return std::visit(
      [](const auto& m) -> MsgType {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ProposalMsg>) return MsgType::kProposal;
        if constexpr (std::is_same_v<T, VoteMsg>) return MsgType::kVote;
        if constexpr (std::is_same_v<T, DiemTimeoutMsg>) return MsgType::kDiemTimeout;
        if constexpr (std::is_same_v<T, DiemTcMsg>) return MsgType::kDiemTc;
        if constexpr (std::is_same_v<T, FbTimeoutMsg>) return MsgType::kFbTimeout;
        if constexpr (std::is_same_v<T, FbProposalMsg>) return MsgType::kFbProposal;
        if constexpr (std::is_same_v<T, FbVoteMsg>) return MsgType::kFbVote;
        if constexpr (std::is_same_v<T, FbQcMsg>) return MsgType::kFbQc;
        if constexpr (std::is_same_v<T, CoinShareMsg>) return MsgType::kCoinShare;
        if constexpr (std::is_same_v<T, CoinQcMsg>) return MsgType::kCoinQc;
        if constexpr (std::is_same_v<T, BlockRequestMsg>) return MsgType::kBlockRequest;
        if constexpr (std::is_same_v<T, BlockResponseMsg>) return MsgType::kBlockResponse;
      },
      msg);
}

Bytes encode_message(const Message& msg) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(message_type(msg)));
  std::visit(
      [&enc](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        encode_body(enc, m);
        if constexpr (kHasOuterSig<T>) encode_sig(enc, m.sig);
      },
      msg);
  return std::move(enc).result();
}

Bytes encode_signed(const crypto::CryptoSystem& crypto, ReplicaId signer, Message& msg) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(message_type(msg)));
  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        encode_body(enc, m);
        if constexpr (kHasOuterSig<T>) {
          m.sig = crypto.signatures.sign(signer, enc.result());
          encode_sig(enc, m.sig);
        }
      },
      msg);
  return std::move(enc).result();
}

bool blocks_id_consistent(const Message& msg) {
  if (const auto* p = std::get_if<ProposalMsg>(&msg)) return p->block.id_consistent();
  if (const auto* f = std::get_if<FbProposalMsg>(&msg)) return f->block.id_consistent();
  if (const auto* r = std::get_if<BlockResponseMsg>(&msg)) {
    for (const Block& b : r->blocks) {
      if (!b.id_consistent()) return false;
    }
  }
  return true;
}

std::optional<Message> decode_message(BytesView data) {
  Decoder dec(data);
  auto tag = dec.u8();
  if (!tag) return std::nullopt;
  std::optional<Message> out;
  switch (static_cast<MsgType>(*tag)) {
    case MsgType::kProposal: {
      auto m = decode_proposal(dec);
      if (m) out = std::move(*m);
      break;
    }
    case MsgType::kVote: {
      auto m = decode_vote(dec);
      if (m) out = *m;
      break;
    }
    case MsgType::kDiemTimeout: {
      auto m = decode_diem_timeout(dec);
      if (m) out = *m;
      break;
    }
    case MsgType::kDiemTc: {
      auto m = decode_diem_tc(dec);
      if (m) out = *m;
      break;
    }
    case MsgType::kFbTimeout: {
      auto m = decode_fb_timeout(dec);
      if (m) out = std::move(*m);
      break;
    }
    case MsgType::kFbProposal: {
      auto m = decode_fb_proposal(dec);
      if (m) out = std::move(*m);
      break;
    }
    case MsgType::kFbVote: {
      auto m = decode_fb_vote(dec);
      if (m) out = *m;
      break;
    }
    case MsgType::kFbQc: {
      auto m = decode_fb_qc(dec);
      if (m) out = *m;
      break;
    }
    case MsgType::kCoinShare: {
      auto m = decode_coin_share(dec);
      if (m) out = *m;
      break;
    }
    case MsgType::kCoinQc: {
      auto m = decode_coin_qc(dec);
      if (m) out = *m;
      break;
    }
    case MsgType::kBlockRequest: {
      auto m = decode_block_request(dec);
      if (m) out = *m;
      break;
    }
    case MsgType::kBlockResponse: {
      auto m = decode_block_response(dec);
      if (m) out = std::move(*m);
      break;
    }
    default:
      return std::nullopt;
  }
  if (!out || !dec.done()) return std::nullopt;  // reject trailing garbage
  return out;
}

bool verify_message_signature_wire(const crypto::CryptoSystem& crypto, ReplicaId sender,
                                   const Message& msg, BytesView payload) {
  return std::visit(
      [&](const auto& m) -> bool {
        using T = std::decay_t<decltype(m)>;
        if constexpr (kHasOuterSig<T>) {
          // decode_message consumed the whole buffer and read m.sig from
          // its tail, so the signed prefix is everything before it.
          if (payload.size() < 1 + kSigSize) return false;
          return crypto.signatures.verify(sender, payload.first(payload.size() - kSigSize),
                                          m.sig);
        } else {
          (void)m;
          return true;
        }
      },
      msg);
}

}  // namespace repro::smr
