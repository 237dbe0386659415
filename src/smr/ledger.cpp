#include "smr/ledger.h"

#include <algorithm>

#include "common/assert.h"

namespace repro::smr {

bool Ledger::can_commit(const Block& tip, const BlockStore& store,
                        std::optional<BlockId>* missing) const {
  if (is_committed(tip.id)) return true;
  BlockId cur = tip.parent.block_id;
  while (true) {
    if (committed_set_.count(cur) != 0) return true;
    const Block* b = store.get(cur);
    if (b == nullptr) {
      if (missing != nullptr) *missing = cur;
      return false;
    }
    if (b->is_genesis()) return true;
    cur = b->parent.block_id;
  }
}

std::size_t Ledger::commit_chain(const Block& tip, const BlockStore& store, SimTime now) {
  if (is_committed(tip.id)) return 0;

  // Collect the uncommitted suffix, newest first.
  std::vector<const Block*> chain;
  const Block* cur = &tip;
  while (cur != nullptr && !cur->is_genesis() && committed_set_.count(cur->id) == 0) {
    chain.push_back(cur);
    cur = store.get(cur->parent.block_id);
  }
  REPRO_ASSERT_MSG(cur != nullptr, "commit_chain called with missing ancestors");

  // Apply oldest first.
  std::reverse(chain.begin(), chain.end());
  for (const Block* b : chain) {
    committed_set_.insert(b->id);
    records_.push_back(CommitRecord{b->id, b->round, b->view, b->height, b->txns().size(), now});
    if (on_commit_) on_commit_(*b, now);
  }
  return chain.size();
}

}  // namespace repro::smr
