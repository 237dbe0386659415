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
  kBatch = 13,          // pipelining: out-of-band batch announcement
  kBatchPull = 14,      // pipelining: fetch a missing batch by id
  kBatchPush = 15,      // pipelining: the requested batch bytes
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

/// Out-of-band batch dissemination (DESIGN.md §12). All three carry raw
/// batch bytes or a content address and need no signature: the receiver
/// hashes the data itself, so the sender cannot lie about what id the
/// bytes resolve to, and a pull is answered only with self-verifying
/// bytes. BatchMsg is the optimistic pre-broadcast by the upcoming
/// leader; BatchPull/BatchPush recover a miss so liveness never depends
/// on the optimistic path.
struct BatchMsg {
  Bytes data;  ///< sealed batch bytes; id = Batch::compute_id(data)
};

struct BatchPullMsg {
  BatchId batch_id{};
};

struct BatchPushMsg {
  Bytes data;  ///< the requested batch; receiver re-derives the id
};

using Message =
    std::variant<ProposalMsg, VoteMsg, DiemTimeoutMsg, DiemTcMsg, FbTimeoutMsg, FbProposalMsg,
                 FbVoteMsg, FbQcMsg, CoinShareMsg, CoinQcMsg, BlockRequestMsg, BlockResponseMsg,
                 BatchMsg, BatchPullMsg, BatchPushMsg>;

MsgType message_type(const Message& msg);

/// Exact wire size of `encode_message(msg)` — every field is fixed-width
/// or length-prefixed, so the size is computable without serializing.
/// `encode_message` pre-reserves exactly this many bytes; exposed so tests
/// can pin the two against each other.
std::size_t encoded_size(const Message& msg);

/// Serialize (without touching any signature field — sign first).
Bytes encode_message(const Message& msg);

/// Parse; nullopt on malformed input (malformed wire data must never
/// crash a replica), including any carried block that fails
/// Block::id_consistent.
std::optional<Message> decode_message(BytesView data);

/// True iff every block `msg` carries is id-consistent — exactly the
/// block check decode_message applies. Lets a sender that seeds a decode
/// cache with its own decoded form hold it to the same rule.
bool blocks_id_consistent(const Message& msg);

/// Sign / verify the ⟨m⟩_i-authenticated messages in place. For message
/// types without an outer signature these are no-ops returning true.
void sign_message(const crypto::CryptoSystem& crypto, ReplicaId signer, Message& msg);
bool verify_message_signature(const crypto::CryptoSystem& crypto, ReplicaId sender,
                              const Message& msg);

/// Envelope verification against the exact wire bytes `msg` was decoded
/// from. The codec is canonical (fixed-width fields, decode_message
/// rejects trailing garbage) and signed types append the 32-byte
/// signature after the body, so for any payload with
/// decode_message(payload) == msg the signing bytes are simply
/// payload[0 .. size-32] — no re-encode, no allocation. Equivalent to
/// verify_message_signature(crypto, sender, msg) under that precondition;
/// callers holding only the decoded form keep using the re-encoding one.
bool verify_message_signature_wire(const crypto::CryptoSystem& crypto, ReplicaId sender,
                                   const Message& msg, BytesView payload);

}  // namespace repro::smr
