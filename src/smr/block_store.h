// In-memory block store: the DAG of blocks and the certificates known for
// them. Purely a data structure — all protocol validity rules live in the
// replica implementations.
//
// The live tables are bounded to the views that can still matter
// (DESIGN.md §19): once the replica's newest committed block sits in view
// v, prune(v) drops every block and certificate of a lower view that is
// not on the committed chain. Such a block can never be voted on or
// committed — commits are final and chain views never decrease — so the
// store keeps nothing of it. What the structural-lemma checker needs
// instead goes to a CertAudit, one per simulated system, when the store
// is given one: each certificate it records and the payload-free header
// of each certified block it drops.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "smr/block.h"
#include "smr/certificates.h"

namespace repro::smr {

struct BlockIdHash {
  std::size_t operator()(const BlockId& id) const {
    return static_cast<std::size_t>(crypto::digest_prefix_u64(id));
  }
};

/// A block without its payload: identity, parent certificate and
/// position. What a pruned certified block leaves in the audit.
struct BlockHeader {
  BlockId id{};
  Certificate parent;
  Round round = 0;
  View view = 0;
  FallbackHeight height = 0;
  ReplicaId proposer = 0;

  static BlockHeader of(const Block& b) {
    return {b.id, b.parent, b.round, b.view, b.height, b.proposer};
  }
  bool is_genesis() const { return id == genesis_id(); }
};

/// The structural-lemma checker's record of one simulated system
/// (DESIGN.md §19.3), shared by every replica's store. It holds each
/// certificate any store recorded once, with the set of replicas that
/// recorded it, and each retired certified block's header once. Every
/// replica records the same facts, so one copy per system replaces n
/// private logs. Append-only; TCP nodes keep none.
class CertAudit {
 public:
  /// An audit for replicas 0..n-1.
  explicit CertAudit(std::uint32_t n) : words_((n + 63) / 64) {}

  /// Replica `by` recorded `cert`. Certificates that agree on every field
  /// but the signature are one entry, as the checker counts them.
  void record(ReplicaId by, const Certificate& cert);
  /// A store dropped this certified block. The id binds every field, so
  /// whoever retires it, the header is the same.
  void retire(const BlockHeader& header) { headers_.try_emplace(header.id, header); }

  /// Distinct certificates, in the order they were first recorded.
  std::size_t size() const { return certs_.size(); }
  const Certificate& certificate(std::size_t i) const { return certs_[i]; }
  bool recorded_by(std::size_t i, ReplicaId r) const {
    return (recorders_[i * words_ + r / 64] >> (r % 64)) & 1u;
  }

  /// The retired header of `id`, or null.
  const BlockHeader* header(const BlockId& id) const {
    auto it = headers_.find(id);
    return it == headers_.end() ? nullptr : &it->second;
  }
  std::size_t header_count() const { return headers_.size(); }

 private:
  /// The checker's identity of a certificate: every field but the
  /// signature. The block id alone spreads them well.
  struct FactsHash {
    std::size_t operator()(const Certificate& c) const { return BlockIdHash{}(c.block_id); }
  };
  struct SameFacts {
    bool operator()(const Certificate& a, const Certificate& b) const {
      return a.kind == b.kind && a.block_id == b.block_id && a.round == b.round &&
             a.view == b.view && a.height == b.height && a.proposer == b.proposer;
    }
  };

  std::size_t words_;
  std::vector<Certificate> certs_;
  std::unordered_map<Certificate, std::size_t, FactsHash, SameFacts> index_;
  /// words_ bits per entry of certs_: bit r is set once replica r
  /// recorded it.
  std::vector<std::uint64_t> recorders_;
  std::unordered_map<BlockId, BlockHeader, BlockIdHash> headers_;
};

class BlockStore {
 public:
  /// A store that reports to `audit` (not owned; may be null) as replica
  /// `recorder`. Without an audit it keeps live state only.
  explicit BlockStore(CertAudit* audit = nullptr, ReplicaId recorder = 0);

  /// Result of insert: the stored block under that id (the new one, or
  /// the one already there), and whether this call stored it. Tests as
  /// `inserted`.
  struct Inserted {
    const Block* block;
    bool inserted;
    explicit operator bool() const { return inserted; }
  };

  /// Insert a block (must be id-consistent; caller validates). A block of
  /// a view below floor() is accepted (catch-up may need it) and goes at
  /// the next prune unless it is committed by then.
  Inserted insert(Block block);

  bool contains(const BlockId& id) const { return blocks_.count(id) != 0; }
  /// The stored block, or null. Pointers stay valid until the next
  /// prune().
  const Block* get(const BlockId& id) const;

  /// Record a certificate. Keeps the first certificate seen per block;
  /// a block can hold both a plain cert and later an endorsed one — they
  /// are identical wire objects, so one is enough. Refuses a certificate
  /// of a view below floor(): it certifies a committed block or one that
  /// conflicts with the committed chain, so it can commit nothing new.
  /// Returns true if this is the first certificate for the block; only
  /// then is it reported to the audit.
  bool add_certificate(const Certificate& cert);

  const Certificate* certificate_for(const BlockId& id) const;
  bool is_certified(const BlockId& id) const { return certs_.count(id) != 0; }

  /// The f-QCs of `view` this store recorded, in arrival order (a coin
  /// install rescans exactly these). Empty below floor().
  const std::vector<Certificate>& fallback_certificates(View view) const;

  /// Drop every block and certificate of a view below `floor` whose id
  /// `committed` does not claim; genesis always stays. Each dropped block
  /// that holds a certificate leaves its header in the audit. The cost
  /// is proportional to what the dropped views held. No-op unless
  /// `floor` is above floor(). Returns the number of blocks dropped.
  std::size_t prune(View floor, const std::function<bool(const BlockId&)>& committed);

  /// Views below this hold only committed blocks and genesis.
  View floor() const { return floor_; }

  /// Leave the header of every live certified block in the audit, as a
  /// prune would: this store is about to be discarded with its replica
  /// (a crash), so the checker can no longer find those blocks here.
  void retire_all();

  /// Walk parent links from `id` toward genesis, newest first. Stops at
  /// the first missing block (the walk then ends with that missing id in
  /// `missing`).
  struct ChainWalk {
    std::vector<const Block*> blocks;    ///< newest -> oldest, all present
    std::optional<BlockId> missing;      ///< set if an ancestor body is absent
  };
  ChainWalk walk_ancestors(const BlockId& id) const;

  /// Live entries: stored blocks (committed ones and genesis included)
  /// and per-block certificates.
  std::size_t block_count() const { return blocks_.size(); }
  std::size_t certificate_count() const { return certs_.size(); }

 private:
  /// What one view holds: every id given a block or a certificate entry
  /// of that view (listed twice if its certificate came before its
  /// block), and the view's f-QCs.
  struct ViewEntries {
    std::vector<BlockId> ids;
    std::vector<Certificate> fqcs;
  };

  CertAudit* audit_;
  ReplicaId recorder_;
  std::unordered_map<BlockId, Block, BlockIdHash> blocks_;
  std::unordered_map<BlockId, Certificate, BlockIdHash> certs_;
  /// Views at or above floor_, plus any lower view a late block was
  /// inserted into since the last prune.
  std::map<View, ViewEntries> views_;
  View floor_ = 0;
};

}  // namespace repro::smr
