#include "smr/block_store.h"

#include "common/assert.h"

namespace repro::smr {

void CertAudit::record(ReplicaId by, const Certificate& cert) {
  const auto [it, fresh] = index_.try_emplace(cert, certs_.size());
  if (fresh) {
    certs_.push_back(cert);
    recorders_.resize(recorders_.size() + words_, 0);
  }
  recorders_[it->second * words_ + by / 64] |= std::uint64_t{1} << (by % 64);
}

BlockStore::BlockStore(CertAudit* audit, ReplicaId recorder)
    : audit_(audit), recorder_(recorder) {
  // Genesis is always present and certified by fiat. It is listed in no
  // view, so no prune can reach it, and the audit never needs it.
  blocks_.emplace(genesis_id(), Block::genesis());
  const Certificate g = genesis_certificate();
  certs_.emplace(g.block_id, g);
}

BlockStore::Inserted BlockStore::insert(Block block) {
  // Free for blocks from Block::make / Block::decode (their id memo).
  REPRO_ASSERT_MSG(block.id_consistent(), "inserting id-inconsistent block");
  const BlockId id = block.id;
  const View view = block.view;
  const auto [it, inserted] = blocks_.try_emplace(id, std::move(block));
  if (inserted) views_[view].ids.push_back(id);
  return {&it->second, inserted};
}

const Block* BlockStore::get(const BlockId& id) const {
  auto it = blocks_.find(id);
  return it == blocks_.end() ? nullptr : &it->second;
}

bool BlockStore::add_certificate(const Certificate& cert) {
  if (cert.view < floor_) return false;
  if (!certs_.try_emplace(cert.block_id, cert).second) return false;
  ViewEntries& entries = views_[cert.view];
  // A stored block is listed already (by insert).
  if (blocks_.count(cert.block_id) == 0) entries.ids.push_back(cert.block_id);
  if (cert.kind == CertKind::kFallback) entries.fqcs.push_back(cert);
  if (audit_ != nullptr) audit_->record(recorder_, cert);
  return true;
}

const std::vector<Certificate>& BlockStore::fallback_certificates(View view) const {
  static const std::vector<Certificate> kNone;
  auto it = views_.find(view);
  return it == views_.end() ? kNone : it->second.fqcs;
}

std::size_t BlockStore::prune(View floor,
                              const std::function<bool(const BlockId&)>& committed) {
  if (floor <= floor_) return 0;
  floor_ = floor;
  std::size_t dropped = 0;
  const auto end = views_.lower_bound(floor);
  for (auto view = views_.begin(); view != end; ++view) {
    for (const BlockId& id : view->second.ids) {
      const auto block = blocks_.find(id);
      const auto cert = certs_.find(id);
      // Gone already: listed a second time (certified, then stored).
      if (block == blocks_.end() && cert == certs_.end()) continue;
      if (committed(id)) continue;
      if (block != blocks_.end()) {
        if (cert != certs_.end() && audit_ != nullptr) {
          audit_->retire(BlockHeader::of(block->second));
        }
        blocks_.erase(block);
        ++dropped;
      }
      if (cert != certs_.end()) certs_.erase(cert);
    }
  }
  views_.erase(views_.begin(), end);
  return dropped;
}

void BlockStore::retire_all() {
  if (audit_ == nullptr) return;
  for (const auto& [id, block] : blocks_) {
    if (!block.is_genesis() && certs_.count(id) != 0) audit_->retire(BlockHeader::of(block));
  }
}

const Certificate* BlockStore::certificate_for(const BlockId& id) const {
  auto it = certs_.find(id);
  return it == certs_.end() ? nullptr : &it->second;
}

BlockStore::ChainWalk BlockStore::walk_ancestors(const BlockId& id) const {
  ChainWalk walk;
  BlockId cur = id;
  for (;;) {
    const Block* b = get(cur);
    if (b == nullptr) {
      walk.missing = cur;
      return walk;
    }
    walk.blocks.push_back(b);
    if (b->is_genesis()) return walk;
    cur = b->parent.block_id;
  }
}

}  // namespace repro::smr
