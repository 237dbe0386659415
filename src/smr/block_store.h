// In-memory block store: the DAG of blocks and the certificates known for
// them. Purely a data structure — all protocol validity rules live in the
// replica implementations.
#pragma once

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

  /// Insert a block (must be id-consistent; caller validates).
  Inserted insert(Block block);

  bool contains(const BlockId& id) const { return blocks_.count(id) != 0; }
  const Block* get(const BlockId& id) const;

  /// Mutable access for local bookkeeping on a stored block (attaching
  /// resolved_payload to a batch-reference block). Wire fields and the id
  /// must not change — they are the map key's preimage.
  Block* get_mutable(const BlockId& id) {
    auto it = blocks_.find(id);
    return it == blocks_.end() ? nullptr : &it->second;
  }

  /// Record a certificate. Keeps the first certificate seen per
  /// (block, kind); a block can hold both a plain cert and later an
  /// endorsed one — they are identical wire objects, so one is enough.
  /// Returns true if this is the first certificate for the block.
  bool add_certificate(const Certificate& cert);

  const Certificate* certificate_for(const BlockId& id) const;
  bool is_certified(const BlockId& id) const { return certs_.count(id) != 0; }

  /// All certificates seen, in insertion order.
  const std::vector<Certificate>& certificates() const { return cert_log_; }

  /// Positions in certificates() of the f-QCs of `view`, in insertion
  /// order (a coin install rescans exactly these).
  const std::vector<std::size_t>& fallback_certificates(View view) const;

  /// Walk parent links from `id` toward genesis, newest first. Stops at
  /// the first missing block (the walk then ends with that missing id in
  /// `missing`).
  struct ChainWalk {
    std::vector<const Block*> blocks;    ///< newest -> oldest, all present
    std::optional<BlockId> missing;      ///< set if an ancestor body is absent
  };
  ChainWalk walk_ancestors(const BlockId& id) const;

  std::size_t block_count() const { return blocks_.size(); }

 private:
  std::unordered_map<BlockId, Block, BlockIdHash> blocks_;
  std::unordered_map<BlockId, Certificate, BlockIdHash> certs_;
  std::vector<Certificate> cert_log_;
  std::map<View, std::vector<std::size_t>> fqcs_by_view_;
};

}  // namespace repro::smr
