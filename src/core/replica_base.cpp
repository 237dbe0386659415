#include "core/replica_base.h"

#include <algorithm>

#include "common/log.h"
#include "obs/span.h"

namespace repro::core {

ReplicaBase::ReplicaBase(const ReplicaContext& ctx)
    : store_(ctx.audit, ctx.id),
      sim_(ctx.sim),
      net_(ctx.net),
      crypto_(ctx.crypto),
      params_(ctx.crypto->params),
      id_(ctx.id),
      cfg_(ctx.config),
      rng_(ctx.seed),
      mempool_(ctx.id, ctx.config.batch_bytes, Rng(ctx.seed ^ 0x6d656d706f6f6cull)),
      on_block_born_(ctx.on_block_born),
      payload_source_(ctx.payload_source),
      trace_(ctx.trace),
      on_commit_(ctx.on_commit),
      fallback_duration_hist_(ctx.fallback_duration_hist),
      wal_(ctx.wal),
      dcache_(ctx.decode_cache ? ctx.decode_cache : std::make_shared<smr::DecodeCache>()) {
  REPRO_ASSERT(sim_ != nullptr && net_ != nullptr && crypto_ != nullptr);
  qc_high_ = smr::genesis_certificate();
}

void ReplicaBase::persist_vote_state() {
  if (wal_ == nullptr) return;
  Encoder enc;
  enc.u64(r_vote_);
  enc.u64(rank_lock_.view);
  enc.bool_(rank_lock_.endorsed);
  enc.u64(rank_lock_.round);
  enc.u64(v_cur_);
  qc_high_.encode(enc);
  enc.u32(static_cast<std::uint32_t>(coins_.size()));
  for (const auto& [view, coin] : coins_) coin.qc.encode(enc);
  encode_extra_state(enc);
  wal_->append(enc.result());
}

bool ReplicaBase::recover_from_wal() {
  if (wal_ == nullptr) return false;
  const auto records = wal_->replay();
  if (records.empty()) return false;
  // Snapshots are complete, so only the newest matters.
  Decoder dec(records.back());
  auto r_vote = dec.u64();
  auto lock_view = dec.u64();
  auto lock_endorsed = dec.bool_();
  auto lock_round = dec.u64();
  auto v_cur = dec.u64();
  auto qc_high = smr::Certificate::decode(dec);
  auto coin_count = dec.u32();
  if (!r_vote || !lock_view || !lock_endorsed || !lock_round || !v_cur || !qc_high ||
      !coin_count) {
    LOG_ERROR("replica %u: corrupted WAL snapshot; starting fresh", id_);
    return false;
  }
  std::map<View, InstalledCoin> coins;
  for (std::uint32_t i = 0; i < *coin_count; ++i) {
    auto coin = smr::CoinQC::decode(dec);
    if (!coin) return false;
    coins.emplace(coin->view, InstalledCoin{*coin, coin->leader(*crypto_)});
  }
  r_vote_ = *r_vote;
  rank_lock_ = smr::Rank{*lock_view, *lock_endorsed, *lock_round};
  v_cur_ = *v_cur;
  qc_high_ = *qc_high;
  coins_ = std::move(coins);
  // The chain itself is not logged: r_cur re-derives from qc_high and the
  // block bodies return through the block-retrieval path as peers talk to
  // us. Conservative: never behind round 1.
  r_cur_ = std::max<Round>(1, qc_high_.round + 1);
  if (!restore_extra_state(dec)) {
    LOG_ERROR("replica %u: corrupted WAL extra state; keeping base state", id_);
  }
  recovered_ = true;
  return true;
}

void ReplicaBase::on_message(ReplicaId from, const Bytes& payload) {
  if (halted_ || cfg_.fault.crashed()) return;
  // Decode-once: the one shared buffer of a multicast (every simulated
  // recipient, a TCP self-delivery) was seeded by its sender at encode
  // time, so a single probe by address returns the decoded form and
  // whether `from` is the signer that seeded it. Any other buffer — a
  // point-to-point send, delivered exactly once — is decoded and verified
  // directly.
  auto hit = dcache_->decode_buffer(payload, from);
  if (!hit) {
    on_message_uncached(from, payload);
    return;
  }
  ++stats_.decode_hits;
  // The seeder signed exactly these bytes. The same buffer delivered
  // under any other sender pays (and, for a signed type, fails) the full
  // check against the wire bytes in hand.
  if (!hit->sender_verified &&
      !smr::verify_message_signature_wire(*crypto_, from, hit->msg, payload)) {
    LOG_WARN("replica %u: bad signature on message from %u", id_, from);
    return;
  }
  deliver(from, std::move(hit->msg));
}

void ReplicaBase::on_message_uncached(ReplicaId from, const Bytes& payload) {
  if (halted_ || cfg_.fault.crashed()) return;
  auto msg = smr::decode_message(payload);
  ++stats_.decode_misses;  // a real parse ran, same as a cache miss
  if (!msg) {
    LOG_WARN("replica %u: dropping malformed message from %u", id_, from);
    return;
  }
  if (!smr::verify_message_signature_wire(*crypto_, from, *msg, payload)) {
    LOG_WARN("replica %u: bad signature on message from %u", id_, from);
    return;
  }
  deliver(from, std::move(*msg));
}

void ReplicaBase::deliver(ReplicaId from, smr::Message&& msg) {
  // Block retrieval is protocol-independent; handle it here.
  if (auto* req = std::get_if<smr::BlockRequestMsg>(&msg)) {
    const smr::Block* b = store_.get(req->block_id);
    if (b == nullptr) return;
    smr::BlockResponseMsg resp;
    resp.blocks.push_back(*b);
    const std::uint32_t extra = std::min(req->ancestors, smr::kMaxBlocksPerResponse - 1);
    const smr::Block* cur = b;
    for (std::uint32_t i = 0; i < extra && !cur->is_genesis(); ++i) {
      cur = store_.get(cur->parent.block_id);
      if (cur == nullptr) break;
      resp.blocks.push_back(*cur);
    }
    send(from, std::move(resp));
    return;
  }
  if (auto* resp = std::get_if<smr::BlockResponseMsg>(&msg)) {
    if (resp->blocks.size() > smr::kMaxBlocksPerResponse) return;
    // Oldest first, so deferred work retries at most once per block.
    for (auto it = resp->blocks.rbegin(); it != resp->blocks.rend(); ++it) {
      // TEST-ONLY planted bug (ProtocolConfig::unsafe_trust_catchup_blocks):
      // record the embedded parent certificate without verifying it.
      if (cfg_.unsafe_trust_catchup_blocks) note_certificate(it->parent, from);
      store_block(std::move(*it), from);
    }
    return;
  }

  handle_message(from, std::move(msg));
}

SharedBytes ReplicaBase::encode_signed(smr::Message& msg) {
  return make_shared_bytes(smr::encode_signed(*crypto_, id_, msg));
}

void ReplicaBase::seed_decode_cache(smr::Message&& msg, const SharedBytes& payload) {
  // The sender already holds the decoded form: seed the cache so every
  // delivery of this buffer, the loopback one included, skips the
  // re-parse. Recording ourselves as the signer is sound — we produced
  // the signature over exactly these bytes. The seed must equal what
  // decoding the bytes would give, so it passes the decoder's block-id
  // check too: a faulty sender's inconsistent block is left for every
  // recipient's own decode to reject.
  if (!smr::blocks_id_consistent(msg)) {
    ++stats_.cache_seeds_refused;
    return;
  }
  dcache_->insert(payload, std::move(msg), id_);
}

void ReplicaBase::send(ReplicaId to, smr::Message msg) {
  // One recipient, one delivery: nothing to seed (see on_message).
  net_->send(id_, to, encode_signed(msg));
}

std::uint64_t ReplicaBase::multicast(smr::Message msg) {
  ++stats_.multicast_encodes;
  SharedBytes payload = encode_signed(msg);
  seed_decode_cache(std::move(msg), payload);
  const std::uint64_t wire_key =
      trace_ && trace_->enabled() ? obs::span_key_of(*payload) : 0;
  net_->multicast(id_, std::move(payload));
  return wire_key;
}

bool ReplicaBase::is_endorsed(const smr::Certificate& cert) const {
  if (cert.kind != smr::CertKind::kFallback) return false;
  auto it = coins_.find(cert.view);
  if (it == coins_.end()) return false;
  return it->second.leader == cert.proposer;
}

bool ReplicaBase::counts_for_commit(const smr::Certificate& cert) const {
  if (cert.kind == smr::CertKind::kQuorum) return true;
  if (cert.kind == smr::CertKind::kFallback) return is_endorsed(cert);
  return false;
}

bool ReplicaBase::install_coin(const smr::CoinQC& coin) {
  if (coins_.count(coin.view) != 0) return false;
  coins_.emplace(coin.view, InstalledCoin{coin, coin.leader(*crypto_)});
  // Endorsements of recorded f-QCs of this view may have flipped on:
  // rescan them for commit (the Exit Fallback "check for commit"): the
  // ones recorded before this install, in the order they arrived.
  // A copy: a commit found here may prune the view's entry.
  const std::vector<smr::Certificate> fqcs = store_.fallback_certificates(coin.view);
  for (const smr::Certificate& cert : fqcs) try_commit_from(cert, cert.proposer);
  return true;
}

const smr::CoinQC* ReplicaBase::coin_for(View view) const {
  auto it = coins_.find(view);
  return it == coins_.end() ? nullptr : &it->second.qc;
}

void ReplicaBase::note_certificate(const smr::Certificate& cert, ReplicaId hint) {
  // Scan once per certificate: a copy of one already recorded finds
  // nothing the first scan missed. Every way that scan could have
  // stopped short is re-run elsewhere when its cause clears: an
  // unendorsed f-QC link by install_coin's rescan of the view's f-QCs, a
  // missing body by retry_deferred when it arrives (ensure_block already
  // deduplicates the fetch, so a repeat would not even re-send it). A
  // refused below-floor certificate needs no scan at all (see
  // try_commit_from).
  if (store_.add_certificate(cert)) try_commit_from(cert, hint);
}

void ReplicaBase::update_qc_high(const smr::Certificate& qc) {
  if (rank_of(qc) > rank_of(qc_high_)) qc_high_ = qc;
}

void ReplicaBase::lock_parent_rank(const smr::Certificate& qc, ReplicaId hint) {
  const smr::Block* b = store_.get(qc.block_id);
  if (b == nullptr && qc.view < store_.floor()) {
    // The body was pruned or never seen, and it is dead either way: do
    // not fetch it. Lock on the certificate's own rank, which bounds its
    // parent's from above. A lock stricter than the rule's is always
    // safe, and a lock below the committed tip's view never refuses a
    // proposal that extends the committed chain, so it costs no
    // liveness either.
    lock_direct_rank(qc);
    return;
  }
  if (b == nullptr) {
    waiting_lock_[qc.block_id].push_back(qc);
    ensure_block(qc.block_id, hint);
    return;
  }
  rank_lock_ = smr::max(rank_lock_, rank_of(b->parent));
}

void ReplicaBase::lock_direct_rank(const smr::Certificate& qc) {
  rank_lock_ = smr::max(rank_lock_, rank_of(qc));
}

bool ReplicaBase::ensure_block(const smr::BlockId& id, ReplicaId hint) {
  if (store_.contains(id)) return true;
  if (outstanding_fetches_.insert(id).second) {
    ++stats_.blocks_fetched;
    // Ask for an ancestor range: when we are missing one block we are
    // often missing a suffix of the chain (catch-up after a crash or
    // partition), and batched backfill must outpace chain growth — 16
    // blocks per round trip is ~30x the steady-state commit rate while
    // keeping responses small when only one block was actually missing.
    send(hint == id_ ? leader_of(r_cur_) : hint, smr::BlockRequestMsg{id, 16});
  }
  return false;
}

void ReplicaBase::store_block(smr::Block block, ReplicaId from) {
  // Every block reaching here was decoded (Block::decode checked its id)
  // or built locally; BlockStore::insert asserts consistency regardless.
  const smr::BlockId id = block.id;
  if (!store_.insert(std::move(block))) return;
  outstanding_fetches_.erase(id);
  retry_deferred(id, from);
}

void ReplicaBase::maybe_forge_ghost_chain(const smr::Block& real) {
  if (!cfg_.fault.forges_ghost_chain() || halted_ || real.is_fallback()) return;
  const Round r = real.round;
  if (r < 3 || r <= last_ghost_round_) return;
  // Anchor the fabricated chain on the *genuine* round-(r-3) certificate
  // so every edge has consecutive rounds and the victims' commit scan
  // walks seamlessly from the ghost blocks back into the real chain
  // (a non-consecutive edge would leave a non-monotonic ledger). The
  // attacker followed the protocol until now, so the two real ancestors
  // are normally in its store; skip this round if either is missing.
  const smr::Block* p1 = store_.get(real.parent.block_id);  // round r-1
  if (p1 == nullptr) return;
  const smr::Block* p2 = store_.get(p1->parent.block_id);  // round r-2
  if (p2 == nullptr) return;
  const smr::Certificate anchor = p2->parent;  // real cert for round r-3
  last_ghost_round_ = r;
  // The tip's payload is round-stamped, so each round's fabricated chain
  // is distinct.
  Encoder stamp;
  stamp.u64(r);
  stamp.u64(id_);

  // Three id-consistent blocks whose embedded parent certificates carry
  // garbage threshold signatures. The catch-up path only stores blocks:
  // it never records their parents' certificates (unless
  // unsafe_trust_catchup_blocks), and only a signed proposal from the
  // round's leader ever reaches a vote rule.
  smr::Block b0 = smr::Block::make(anchor, r - 2, real.view, 0, leader_of(r - 2),
                                   Bytes{0xde, 0xad});
  const smr::Certificate q0{smr::CertKind::kQuorum, b0.id,     b0.round,
                            b0.view,                b0.height, b0.proposer,
                            crypto::ThresholdSig{0xbadc0debadc0deull}};
  smr::Block b1 = smr::Block::make(q0, r - 1, real.view, 0, leader_of(r - 1), Bytes{0xbe, 0xef});
  const smr::Certificate q1{smr::CertKind::kQuorum, b1.id,     b1.round,
                            b1.view,                b1.height, b1.proposer,
                            crypto::ThresholdSig{0xbadc0debadc0deull}};
  smr::Block ghost =
      smr::Block::make(q1, r, real.view, 0, leader_of(r), std::move(stamp).result());
  smr::BlockResponseMsg resp;  // receivers store rbegin-first: push tip first
  resp.blocks.push_back(std::move(ghost));
  resp.blocks.push_back(std::move(b1));
  resp.blocks.push_back(std::move(b0));
  multicast(std::move(resp));
}

void ReplicaBase::defer_commit(const smr::BlockId& missing, const smr::Certificate& cert) {
  auto& waiting = waiting_commit_[missing];
  // During catch-up many certificates stall on the same missing ancestor;
  // queueing duplicates makes every retry quadratic.
  for (const auto& c : waiting) {
    if (c.block_id == cert.block_id) return;
  }
  waiting.push_back(cert);
}

void ReplicaBase::retry_deferred(const smr::BlockId& id, ReplicaId from) {
  if (auto it = waiting_lock_.find(id); it != waiting_lock_.end()) {
    auto certs = std::move(it->second);
    waiting_lock_.erase(it);
    for (const auto& c : certs) lock_parent_rank(c, from);
  }
  if (auto it = waiting_commit_.find(id); it != waiting_commit_.end()) {
    auto certs = std::move(it->second);
    waiting_commit_.erase(it);
    for (const auto& c : certs) try_commit_from(c, from);
  }
}

void ReplicaBase::try_commit_from(const smr::Certificate& cert, ReplicaId hint) {
  // The commit rule (paper Fig 2 / Fig 4): commit_len() adjacent blocks,
  // each certified (regular QC) or endorsed (f-QC), with consecutive
  // round numbers and the same view number; commit the oldest and its
  // ancestors. `cert` certifies the newest block of the candidate chain.
  // Below the floor the chain's blocks are committed already or conflict
  // with the committed chain (chain views never decrease), so there is
  // nothing to commit and nothing worth fetching.
  if (cert.view < store_.floor()) return;
  if (!counts_for_commit(cert)) return;

  const std::uint32_t len = commit_len();
  smr::Certificate cur = cert;
  const smr::Block* oldest = nullptr;
  for (std::uint32_t k = 0; k + 1 < len; ++k) {
    const smr::Block* b = store_.get(cur.block_id);
    if (b == nullptr) {
      defer_commit(cur.block_id, cert);
      ensure_block(cur.block_id, hint);
      return;
    }
    const smr::Certificate& parent = b->parent;
    if (!counts_for_commit(parent)) return;
    if (parent.view != cert.view) return;        // same view number
    if (parent.round + 1 != cur.round) return;   // consecutive rounds
    cur = parent;
    oldest = nullptr;  // resolved below once the loop settles on `cur`
  }
  oldest = store_.get(cur.block_id);
  if (oldest == nullptr) {
    defer_commit(cur.block_id, cert);
    ensure_block(cur.block_id, hint);
    return;
  }
  if (ledger_.is_committed(oldest->id)) return;

  std::optional<smr::BlockId> missing;
  if (!ledger_.can_commit(*oldest, store_, &missing)) {
    defer_commit(*missing, cert);
    ensure_block(*missing, hint);
    return;
  }

  const std::size_t before = ledger_.size();
  const std::size_t n = ledger_.commit_chain(*oldest, store_, sim_->now());
  if (n > 0) {
    LOG_DEBUG("replica %u: committed %zu block(s), tip round %llu view %llu", id_, n,
              static_cast<unsigned long long>(oldest->round),
              static_cast<unsigned long long>(oldest->view));
    for (std::size_t i = before; i < ledger_.size(); ++i) {
      const smr::CommitRecord& rec = ledger_.records()[i];
      const std::uint64_t key = crypto::digest_prefix_u64(rec.id);
      record(obs::EventKind::kBlockCommitted, rec.view, rec.round, rec.height, key, key);
      if (on_commit_) on_commit_(rec);
    }
    // Commits are final: once the committed tip moves into a higher view,
    // nothing uncommitted of a lower view can be voted on or committed.
    store_.prune(ledger_.records().back().view,
                 [this](const smr::BlockId& id) { return ledger_.is_committed(id); });
  }
}

}  // namespace repro::core
