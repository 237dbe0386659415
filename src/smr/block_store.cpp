#include "smr/block_store.h"

#include "common/assert.h"

namespace repro::smr {

BlockStore::BlockStore() {
  // Genesis is always present and certified by fiat.
  blocks_.emplace(genesis_id(), Block::genesis());
  const Certificate g = genesis_certificate();
  certs_.emplace(g.block_id, g);
  cert_log_.push_back(g);
}

BlockStore::Inserted BlockStore::insert(Block block) {
  // Free for blocks from Block::make / Block::decode (their id memo).
  REPRO_ASSERT_MSG(block.id_consistent(), "inserting id-inconsistent block");
  const BlockId id = block.id;
  const auto [it, inserted] = blocks_.try_emplace(id, std::move(block));
  return {&it->second, inserted};
}

const Block* BlockStore::get(const BlockId& id) const {
  auto it = blocks_.find(id);
  return it == blocks_.end() ? nullptr : &it->second;
}

bool BlockStore::add_certificate(const Certificate& cert) {
  if (!certs_.try_emplace(cert.block_id, cert).second) return false;
  if (cert.kind == CertKind::kFallback) fqcs_by_view_[cert.view].push_back(cert_log_.size());
  cert_log_.push_back(cert);
  return true;
}

const std::vector<std::size_t>& BlockStore::fallback_certificates(View view) const {
  static const std::vector<std::size_t> kNone;
  auto it = fqcs_by_view_.find(view);
  return it == fqcs_by_view_.end() ? kNone : it->second;
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
