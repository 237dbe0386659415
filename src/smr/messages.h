// Wire messages for all protocol variants.
//
// Every message serializes as: 1 type-tag byte, then the body, then (for
// ⟨m⟩_i-style authenticated messages) the sender's 32-byte signature over
// tag||body. Votes and coin shares need no outer signature: the threshold
// share itself authenticates the signer, exactly as in the paper where a
// vote *is* a threshold signature share.
//
// Messages that embed a certificate which might be an *endorsed* f-QC
// (timeouts carrying qc_high, proposals carrying parents) also carry the
// coin-QCs that prove the endorsement ("As cryptographic evidence of
// endorsement, the first block in a new view can additionally include the
// coin-QC of the previous view" — paper §3). Receivers install these into
// their coin table before judging ranks.
#pragma once

#include <optional>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "crypto/dealer.h"
#include "smr/block.h"
#include "smr/certificates.h"

namespace repro::smr {

enum class MsgType : std::uint8_t {
  kProposal = 1,     // steady state: leader's regular block
  kVote = 2,         // steady state: share on a regular block -> next leader
  kDiemTimeout = 3,  // DiemBFT pacemaker: ⟨{r}_i, qc_high⟩_i multicast
  kDiemTc = 4,       // DiemBFT pacemaker: TC forwarded to the new leader
  kFbTimeout = 5,    // fallback: ⟨{v}_i, qc_high⟩_i multicast
  kFbProposal = 6,   // fallback: f-block (height-1 carries the f-TC)
  kFbVote = 7,       // fallback: share on an f-block -> chain owner
  kFbQc = 8,         // fallback: completed top-height f-QC multicast
  kCoinShare = 9,    // leader election: coin share multicast
  kCoinQc = 10,      // leader election: combined coin-QC multicast
  kBlockRequest = 11,   // block retrieval: fetch a missing block by id
  kBlockResponse = 12,  // block retrieval: the requested block
  // Reserved tags (DESIGN.md §12): no message has them, so decode_message
  // rejects them. They stay only because perfbench/ names them.
  kBatch = 13,
  kBatchPull = 14,
  kBatchPush = 15,
};

struct ProposalMsg {
  Block block;
  std::optional<TimeoutCert> tc;  ///< DiemBFT: TC that justified entering this round
  std::vector<CoinQC> coins;      ///< endorsement evidence for embedded certs
  crypto::Signature sig{};
};

struct VoteMsg {
  BlockId block_id{};
  Round round = 0;
  View view = 0;
  crypto::PartialSig share;  ///< {id, r, v}_i — signer identified inside
};

struct DiemTimeoutMsg {
  Round round = 0;
  crypto::PartialSig round_share;  ///< {r}_i
  Certificate qc_high;
  crypto::Signature sig{};
};

struct DiemTcMsg {
  TimeoutCert tc;
};

struct FbTimeoutMsg {
  View view = 0;
  crypto::PartialSig view_share;  ///< {v}_i
  Certificate qc_high;
  std::vector<CoinQC> coins;
  crypto::Signature sig{};
};

struct FbProposalMsg {
  Block block;                    ///< an f-block (height 1..3)
  std::optional<FallbackTC> ftc;  ///< required at height 1 (paper: "j also sends tc̄")
  std::vector<CoinQC> coins;
  crypto::Signature sig{};
};

struct FbVoteMsg {
  BlockId block_id{};
  Round round = 0;
  View view = 0;
  FallbackHeight height = 0;
  ReplicaId chain_owner = 0;  ///< the j in B̄_{h,j}
  crypto::PartialSig share;   ///< {id, r, v, h, j}_i
};

struct FbQcMsg {
  Certificate fqc;
  crypto::Signature sig{};  ///< 2-chain variant counts distinct signers of these
};

struct CoinShareMsg {
  View view = 0;
  crypto::PartialSig share;
};

struct CoinQcMsg {
  CoinQC qc;
  /// Certificate relay (DESIGN.md §13): the sender's highest f-QC of the
  /// elected leader's chain, piggybacked so stragglers exit the fallback
  /// holding the same endorsed lock without a separate f-QC round-trip.
  /// Empty on the flags-off wire (and always optional — receivers verify
  /// it like any other delivered certificate).
  std::optional<Certificate> leader_best;
};

/// DiemBFT-style block retrieval: certificates can reference blocks a
/// replica never received (e.g. qc_high adopted from a timeout message);
/// the replica fetches them from whoever showed it the certificate. The
/// block bodies are self-authenticating via their ids. Requests are
/// range-based — "this block plus up to `ancestors` of its ancestors" —
/// so a replica recovering from a crash backfills a long chain in a few
/// round trips instead of one block per round trip.
struct BlockRequestMsg {
  BlockId block_id{};
  std::uint32_t ancestors = 0;  ///< additionally ship up to this many parents
};

struct BlockResponseMsg {
  /// The requested block first, then ancestors (newest to oldest).
  std::vector<Block> blocks;
};

/// Upper bound on blocks per response (and on `ancestors` honored).
inline constexpr std::uint32_t kMaxBlocksPerResponse = 128;

using Message =
    std::variant<ProposalMsg, VoteMsg, DiemTimeoutMsg, DiemTcMsg, FbTimeoutMsg, FbProposalMsg,
                 FbVoteMsg, FbQcMsg, CoinShareMsg, CoinQcMsg, BlockRequestMsg,
                 BlockResponseMsg>;

MsgType message_type(const Message& msg);

/// Serialize as is, signature field included.
Bytes encode_message(const Message& msg);

/// Serialize once and sign in place: writes tag and body, signs exactly
/// those bytes as `signer` (⟨m⟩_i-authenticated types only), stores the
/// signature in `msg.sig` and appends it. The result equals
/// encode_message(msg) afterwards. Types without an outer signature are
/// just encoded.
Bytes encode_signed(const crypto::CryptoSystem& crypto, ReplicaId signer, Message& msg);

/// Parse; nullopt on malformed input (malformed wire data must never
/// crash a replica), including any carried block that fails
/// Block::id_consistent.
std::optional<Message> decode_message(BytesView data);

/// True iff every block `msg` carries is id-consistent — exactly the
/// block check decode_message applies. Lets a sender that seeds a decode
/// cache with its own decoded form hold it to the same rule.
bool blocks_id_consistent(const Message& msg);

/// Envelope verification against the exact wire bytes `msg` was decoded
/// from (or encode_signed returned). The codec is canonical (fixed-width
/// fields, decode_message rejects trailing garbage) and signed types
/// append the 32-byte signature after the body, so for any payload with
/// decode_message(payload) == msg the signing bytes are simply
/// payload[0 .. size-32] — no re-encode, no allocation. Types without an
/// outer signature always verify.
bool verify_message_signature_wire(const crypto::CryptoSystem& crypto, ReplicaId sender,
                                   const Message& msg, BytesView payload);

}  // namespace repro::smr
