// The committed log — the SMR output.
//
// Safety (paper Thm 6) is a statement about these logs: honest replicas'
// committed sequences must be prefix-consistent. The harness's safety
// checker compares Ledger contents across replicas after every run.
#pragma once

#include <functional>
#include <unordered_set>
#include <vector>

#include "smr/block_store.h"

namespace repro::smr {

/// One committed block with bookkeeping for the metrics pipeline.
struct CommitRecord {
  BlockId id{};
  Round round = 0;
  View view = 0;
  FallbackHeight height = 0;  ///< 0 = regular block, >0 = fallback block
  std::size_t payload_bytes = 0;
  SimTime commit_time = 0;
};

class Ledger {
 public:
  /// Invoked for every newly committed block, oldest first (applications
  /// execute transactions here — see examples/kv_store).
  using CommitCallback = std::function<void(const Block&, SimTime)>;

  void set_commit_callback(CommitCallback cb) { on_commit_ = std::move(cb); }
  const CommitCallback& commit_callback() const { return on_commit_; }

  /// Commit `tip` and all its not-yet-committed ancestors. Requires the
  /// full ancestor chain down to the previous commit to be in `store`
  /// (the caller fetches missing blocks first). Returns the number of
  /// newly committed blocks; 0 if tip is already committed.
  std::size_t commit_chain(const Block& tip, const BlockStore& store, SimTime now);

  /// Whether committing `tip` is currently possible (no missing ancestor
  /// bodies). Outputs the first missing ancestor id if not.
  bool can_commit(const Block& tip, const BlockStore& store,
                  std::optional<BlockId>* missing) const;

  bool is_committed(const BlockId& id) const { return committed_set_.count(id) != 0; }
  const std::vector<CommitRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

 private:
  std::vector<CommitRecord> records_;
  std::unordered_set<BlockId, BlockIdHash> committed_set_;
  CommitCallback on_commit_;
};

}  // namespace repro::smr
