// In-memory block store: the DAG of blocks and the certificates known for
// them. Purely a data structure — all protocol validity rules live in the
// replica implementations.
//
// The live tables are bounded to the views that can still matter
// (DESIGN.md §19): once the replica's newest committed block sits in view
// v, prune(v) drops every block and certificate of a lower view that is
// not on the committed chain. Such a block can never be voted on or
// committed — commits are final and chain views never decrease — so only
// an audit record stays behind: the append-only certificate log and one
// payload-free header per retired certified block, which is what the
// structural-lemma checker reads.
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
/// position. What a pruned certified block leaves in the audit log.
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

class BlockStore {
 public:
  BlockStore();

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

  /// Mutable access for local bookkeeping on a stored block (attaching
  /// resolved_payload to a batch-reference block). Wire fields and the id
  /// must not change — they are the map key's preimage.
  Block* get_mutable(const BlockId& id) {
    auto it = blocks_.find(id);
    return it == blocks_.end() ? nullptr : &it->second;
  }

  /// Record a certificate. Keeps the first certificate seen per block;
  /// a block can hold both a plain cert and later an endorsed one — they
  /// are identical wire objects, so one is enough. Refuses a certificate
  /// of a view below floor(): it certifies a committed block or one that
  /// conflicts with the committed chain, so it can commit nothing new.
  /// Returns true if this is the first certificate for the block.
  bool add_certificate(const Certificate& cert);

  const Certificate* certificate_for(const BlockId& id) const;
  bool is_certified(const BlockId& id) const { return certs_.count(id) != 0; }

  /// All certificates ever recorded, in insertion order. Append-only:
  /// prune() leaves it whole (it is the checker's audit log).
  const std::vector<Certificate>& certificates() const { return cert_log_; }

  /// Positions in certificates() of the f-QCs of `view`, in insertion
  /// order (a coin install rescans exactly these). Empty below floor().
  const std::vector<std::size_t>& fallback_certificates(View view) const;

  /// Drop every block and certificate of a view below `floor` whose id
  /// `committed` does not claim; genesis always stays. Each dropped block
  /// that holds a certificate leaves its header in retired(). The cost
  /// is proportional to what the dropped views held. No-op unless
  /// `floor` is above floor(). Returns the number of blocks dropped.
  std::size_t prune(View floor, const std::function<bool(const BlockId&)>& committed);

  /// Views below this hold only committed blocks and genesis.
  View floor() const { return floor_; }

  /// Headers of the certified blocks prune() dropped, in drop order.
  const std::vector<BlockHeader>& retired() const { return retired_; }

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
  /// block), and the positions of the view's f-QCs in cert_log_.
  struct ViewEntries {
    std::vector<BlockId> ids;
    std::vector<std::size_t> fqcs;
  };

  std::unordered_map<BlockId, Block, BlockIdHash> blocks_;
  std::unordered_map<BlockId, Certificate, BlockIdHash> certs_;
  std::vector<Certificate> cert_log_;
  /// Views at or above floor_, plus any lower view a late block was
  /// inserted into since the last prune.
  std::map<View, ViewEntries> views_;
  View floor_ = 0;
  std::vector<BlockHeader> retired_;
};

}  // namespace repro::smr
