#include "core/fallback.h"

#include "common/log.h"

namespace repro::core {

FallbackReplica::FallbackReplica(const ReplicaContext& ctx, FallbackParams fb)
    : ReplicaBase(ctx), fb_(fb) {
  REPRO_ASSERT(fb_.chain_len == 2 || fb_.chain_len == 3);
  r_vote_bar_.assign(params().n, 0);
  h_vote_bar_.assign(params().n, 0);
  recover_from_wal();  // restores vote state if a WAL with history is attached
}

void FallbackReplica::start() {
  if (fault().crashed()) return;
  if (fault().spams_timeouts()) spam_timeouts();
  if (fb_.always_fallback) {
    // ACE/VABA-style baseline: no synchronous path at all — every view is
    // a fallback, entered directly without timeouts. A recovered replica
    // that already entered the current view's fallback must not re-enter
    // (it could double-propose f-blocks); it waits for the view's coin.
    if (!fallback_entered_view_ || *fallback_entered_view_ < v_cur_) {
      enter_fallback(v_cur_, std::nullopt);
    }
    return;
  }
  arm_timer();
  maybe_propose_steady();
}

void FallbackReplica::on_fault_changed(const FaultSpec& old) {
  if (halted()) return;
  // Edge transitions with pending machinery: a newly spamming replica
  // starts its flood loop (the loop self-terminates when the fault
  // clears), and an un-crashed replica resumes participation — its round
  // timer was never armed (or its firing was swallowed by the crashed()
  // guard), so without a re-arm it would stay silent forever.
  if (!old.spams_timeouts() && fault().spams_timeouts()) spam_timeouts();
  if (old.crashed() && !fault().crashed()) {
    if (fb_.always_fallback) {
      if (!fallback_entered_view_ || *fallback_entered_view_ < v_cur_) {
        enter_fallback(v_cur_, std::nullopt);
      }
    } else if (!fallback_mode_) {
      arm_timer();
      maybe_propose_steady();
    }
  }
}

void FallbackReplica::encode_extra_state(Encoder& enc) const {
  enc.u64(last_proposed_round_);
  enc.bool_(fallback_entered_view_.has_value());
  enc.u64(fallback_entered_view_.value_or(0));
  enc.bool_(sent_coin_share_view_.has_value());
  enc.u64(sent_coin_share_view_.value_or(0));
  enc.u32(static_cast<std::uint32_t>(r_vote_bar_.size()));
  for (std::size_t j = 0; j < r_vote_bar_.size(); ++j) {
    enc.u64(r_vote_bar_[j]);
    enc.u32(h_vote_bar_[j]);
  }
}

bool FallbackReplica::restore_extra_state(Decoder& dec) {
  auto last_proposed = dec.u64();
  auto has_entered = dec.bool_();
  auto entered = dec.u64();
  auto has_coin_share = dec.bool_();
  auto coin_share = dec.u64();
  auto count = dec.u32();
  if (!last_proposed || !has_entered || !entered || !has_coin_share || !coin_share ||
      !count || *count != params().n) {
    return false;
  }
  std::vector<Round> r_bar(*count);
  std::vector<FallbackHeight> h_bar(*count);
  for (std::uint32_t j = 0; j < *count; ++j) {
    auto r = dec.u64();
    auto h = dec.u32();
    if (!r || !h) return false;
    r_bar[j] = *r;
    h_bar[j] = *h;
  }
  last_proposed_round_ = *last_proposed;
  if (*has_entered) fallback_entered_view_ = *entered;
  if (*has_coin_share) sent_coin_share_view_ = *coin_share;
  r_vote_bar_ = std::move(r_bar);
  h_vote_bar_ = std::move(h_bar);
  return true;
}

void FallbackReplica::handle_message(ReplicaId from, smr::Message&& msg) {
  if (auto* p = std::get_if<smr::ProposalMsg>(&msg)) {
    if (!fb_.always_fallback) handle_proposal(from, std::move(*p));
  } else if (auto* v = std::get_if<smr::VoteMsg>(&msg)) {
    if (!fb_.always_fallback) handle_vote(from, *v);
  } else if (auto* t = std::get_if<smr::FbTimeoutMsg>(&msg)) {
    if (!fb_.always_fallback) handle_fb_timeout(from, *t);
  } else if (auto* fp = std::get_if<smr::FbProposalMsg>(&msg)) {
    handle_fb_proposal(from, std::move(*fp));
  } else if (auto* fv = std::get_if<smr::FbVoteMsg>(&msg)) {
    handle_fb_vote(from, *fv);
  } else if (auto* fq = std::get_if<smr::FbQcMsg>(&msg)) {
    handle_fb_qc(from, *fq);
  } else if (auto* cs = std::get_if<smr::CoinShareMsg>(&msg)) {
    handle_coin_share(from, *cs);
  } else if (auto* cq = std::get_if<smr::CoinQcMsg>(&msg)) {
    if (!verify(cq->qc)) {
      blame_cert(from);  // forged coin-QC
      return;
    }
    // Certificate relay (DESIGN.md §13): the sender may piggyback its best
    // f-QC of the just-elected leader. Recording it *before* Exit Fallback
    // lets a straggler lock the same endorsed chain the sender locked
    // (without it, replicas that never saw a leader certificate exit with
    // a stale lock and propose dead-end chains next view). No adoption
    // hook runs here — the certificate is the exit lock, not a chain to
    // extend.
    if (cq->leader_best) {
      const smr::Certificate& best = *cq->leader_best;
      if (best.kind == smr::CertKind::kFallback && best.view == cq->qc.view &&
          verify(best)) {
        frontier_.observe(best);  // ignored unless it is the current view
        note_certificate(best, from);
      } else {
        blame_cert(from);  // malformed or forged piggyback
      }
    }
    process_coin(cq->qc);
  }
  // DiemBFT pacemaker messages (kDiemTimeout / kDiemTc) are not part of
  // this protocol and are ignored.
}

// ---------------------------------------------------------------------------
// Steady state
// ---------------------------------------------------------------------------

void FallbackReplica::lock_full(const smr::Certificate& cert, ReplicaId hint) {
  // Only regular QCs and *endorsed* f-QCs are "handled as a QC in any
  // steps of the protocol such as Lock, Commit, Advance Round" (§3).
  if (!counts_for_commit(cert)) return;
  // Lock state updates run before Advance Round: entering a new round can
  // make us propose, and the proposal must extend the updated qc_high.
  if (fb_.chain_len == 3) {
    lock_parent_rank(cert, hint);  // 2-chain lock (Fig 2)
  } else {
    lock_direct_rank(cert);  // 1-chain lock (Fig 4)
  }
  update_qc_high(cert);
  advance_round_from(cert);
  note_certificate(cert, hint);  // Commit scan
}

void FallbackReplica::advance_round_from(const smr::Certificate& cert) {
  const Round target = cert.round + 1;
  if (target <= r_cur_) return;
  r_cur_ = target;
  timed_out_cur_round_ = false;
  consecutive_timeouts_ = 0;  // a QC means progress
  votes_.erase_before({round_window_floor(), 0, smr::BlockId{}});
  if (!fb_.always_fallback) arm_timer();
  maybe_propose_steady();
}

void FallbackReplica::maybe_propose_steady() {
  if (fb_.always_fallback || fallback_mode_) return;
  if (leader_of(r_cur_) != id()) return;
  if (last_proposed_round_ >= r_cur_) return;
  if (fault().mute()) return;
  // Fig 2 vote rule demands r == qc.r + 1, so only propose when our
  // qc_high is exactly one round behind.
  if (qc_high().round + 1 != r_cur_) return;
  last_proposed_round_ = r_cur_;
  persist_vote_state();  // durable before the proposal leaves

  if (fault().equivocates()) {
    smr::Block a = smr::Block::make(qc_high(), r_cur_, v_cur_, 0, id(), next_payload());
    smr::Block b = smr::Block::make(qc_high(), r_cur_, v_cur_, 0, id(), next_payload());
    store_block(a, id());
    note_block_born(a.id);
    note_block_born(b.id);
    for (ReplicaId to = 0; to < params().n; ++to) {
      smr::ProposalMsg msg;
      msg.block = (to % 2 == 0) ? a : b;
      msg.coins = evidence_for(qc_high());
      send(to, std::move(msg));
    }
    ++stats_.proposals_sent;
    record(obs::EventKind::kProposalSent, v_cur_, r_cur_, 0, 0, crypto::digest_prefix_u64(a.id));
    return;
  }

  smr::Block block =
      smr::Block::make(qc_high(), r_cur_, v_cur_, /*height=*/0, id(), next_payload());
  store_block(block, id());
  note_block_born(block.id);
  smr::ProposalMsg msg;
  msg.block = std::move(block);
  msg.coins = evidence_for(qc_high());
  ++stats_.proposals_sent;
  const std::uint64_t key = crypto::digest_prefix_u64(msg.block.id);
  const std::uint64_t wire_key = multicast(std::move(msg));
  record(obs::EventKind::kProposalSent, v_cur_, r_cur_, 0, wire_key, key);
}

void FallbackReplica::spam_timeouts() {
  // The loop dies when the fault is cleared or flipped mid-run
  // (set_fault); on_fault_changed restarts it on a fresh spam edge.
  if (halted() || !fault().spams_timeouts()) return;
  smr::FbTimeoutMsg msg;
  msg.view = v_cur_;
  msg.view_share = maybe_corrupt(
      crypto_sys().quorum_sigs.sign_share(id(), smr::ftc_signing_message(v_cur_)));
  msg.qc_high = qc_high();
  msg.coins = evidence_for(qc_high());
  multicast(std::move(msg));
  sim().schedule_after(config().base_timeout_us / 2, [this] { spam_timeouts(); });
}

void FallbackReplica::handle_proposal(ReplicaId from, smr::ProposalMsg&& msg) {
  smr::Block& block = msg.block;
  if (block.height != 0) return;
  if (block.proposer != from || leader_of(block.round) != from) return;
  if (!verify(block.parent)) return;
  install_attached_coins(from, msg.coins);

  const smr::Certificate parent = block.parent;
  const Round r = block.round;
  const View v = block.view;
  maybe_forge_ghost_chain(block);  // kGhostChain only; no-op when honest
  const smr::BlockId block_id = block.id;
  store_block(std::move(block), from);
  record(obs::EventKind::kProposalReceived, v, r, 0, from, crypto::digest_prefix_u64(block_id));

  lock_full(parent, from);

  // Looked up after the lock step: a commit it ran may have pruned the
  // block (one of a view below the new committed tip).
  if (const smr::Block* stored = store().get(block_id)) try_vote_steady(*stored);
}

void FallbackReplica::try_vote_steady(const smr::Block& block) {
  // Fig 2 vote rule: not in fallback, r == r_cur, v == v_cur, r > r_vote,
  // qc.rank >= rank_lock, and r == qc.r + 1 (plus: we have not timed out
  // in this round).
  const Round r = block.round;
  const View v = block.view;
  if (block.height != 0) return;
  if (fallback_mode_ || timed_out_cur_round_) return;
  if (r != r_cur_ || v != v_cur_ || r <= r_vote_) return;
  if (rank_of(block.parent) < rank_lock()) return;
  if (r != block.parent.round + 1) return;
  if (!externally_valid(block.txns())) return;
  if (fault().withholds_votes()) return;

  r_vote_ = r;
  persist_vote_state();  // durable before the vote leaves
  ++stats_.votes_sent;
  record(obs::EventKind::kVoteSent, v, r, 0, 0, crypto::digest_prefix_u64(block.id));
  smr::VoteMsg vote;
  vote.block_id = block.id;
  vote.round = r;
  vote.view = v;
  vote.share = maybe_corrupt(crypto_sys().quorum_sigs.sign_share(
      id(), smr::cert_signing_message(smr::CertKind::kQuorum, block.id, r, v, 0, 0)));
  send(leader_of(r + 1), std::move(vote));
}

void FallbackReplica::handle_vote(ReplicaId from, const smr::VoteMsg& msg) {
  if (beyond_round_window(msg.round)) return;
  const auto key = std::make_tuple(msg.round, msg.view, msg.block_id);
  auto sig = add_share(votes_, key, from, msg.share, crypto_sys().quorum_sigs, [&] {
    return smr::cert_signing_message(smr::CertKind::kQuorum, msg.block_id, msg.round,
                                     msg.view, 0, 0);
  });
  if (!sig) return;
  smr::Certificate qc;
  qc.kind = smr::CertKind::kQuorum;
  qc.block_id = msg.block_id;
  qc.round = msg.round;
  qc.view = msg.view;
  qc.sig = *sig;
  record(obs::EventKind::kQcFormed, msg.view, msg.round, 0, 0,
         crypto::digest_prefix_u64(msg.block_id));
  lock_full(qc, from);
}

void FallbackReplica::arm_timer() {
  if (timer_ != sim::kInvalidEvent) sim().cancel(timer_);
  const std::uint64_t factor =
      std::min<std::uint64_t>(1 + consecutive_timeouts_, kMaxTimeoutFactor);
  const Round round = r_cur_;
  timer_ = sim().schedule_after(config().base_timeout_us * factor,
                                [this, round] { on_timer_fired(round); });
}

void FallbackReplica::on_timer_fired(Round round) {
  if (halted() || fault().crashed() || round != r_cur_ || fallback_mode_) return;
  timer_ = sim::kInvalidEvent;
  // Fig 2 Timer and Timeout: set fallback-mode and multicast
  // <{v_cur}_i, qc_high>_i.
  fallback_mode_ = true;
  timed_out_cur_round_ = true;
  ++consecutive_timeouts_;
  ++stats_.timeouts_sent;
  smr::FbTimeoutMsg msg;
  msg.view = v_cur_;
  msg.view_share = maybe_corrupt(
      crypto_sys().quorum_sigs.sign_share(id(), smr::ftc_signing_message(v_cur_)));
  msg.qc_high = qc_high();
  msg.coins = evidence_for(qc_high());
  multicast(std::move(msg));
}

// ---------------------------------------------------------------------------
// Fallback
// ---------------------------------------------------------------------------

void FallbackReplica::handle_fb_timeout(ReplicaId from, const smr::FbTimeoutMsg& msg) {
  // Attached coins and qc_high stand on their own verification, so process
  // them before the share (whose validity the accumulator establishes
  // lazily — an invalid share must not suppress the catch-up either way).
  install_attached_coins(from, msg.coins);
  // "Upon receiving a valid timeout message, execute Lock" (on qc_high).
  if (verify(msg.qc_high)) lock_full(msg.qc_high, from);

  // Stale views cannot help anymore; far-future ones are pool-stuffing.
  if (msg.view < v_cur_ || msg.view > v_cur_ + kViewHorizon) return;
  if (any_ftc_formed_ && msg.view <= highest_ftc_formed_) return;
  auto sig = add_share(view_timeout_shares_, msg.view, from, msg.view_share,
                       crypto_sys().quorum_sigs,
                       [&] { return smr::ftc_signing_message(msg.view); });
  if (!sig) return;
  const smr::FallbackTC ftc{msg.view, *sig};
  record(obs::EventKind::kFtcFormed, msg.view, 0);
  highest_ftc_formed_ = msg.view;
  any_ftc_formed_ = true;
  handle_ftc(ftc);
}

bool FallbackReplica::ftc_enters(View view) const {
  // Enter Fallback: f-TC of view >= v_cur, unless we already entered a
  // fallback at that view or higher.
  if (view < v_cur_) return false;
  return !(fallback_entered_view_ && *fallback_entered_view_ >= view);
}

void FallbackReplica::handle_ftc(const smr::FallbackTC& ftc) {
  if (ftc_enters(ftc.view)) enter_fallback(ftc.view, ftc);
}

void FallbackReplica::enter_fallback(View view, const std::optional<smr::FallbackTC>& ftc) {
  fallback_mode_ = true;
  v_cur_ = view;
  fallback_entered_view_ = view;
  entered_ftc_ = ftc;
  fallback_entered_at_ = sim().now();
  ++stats_.fallbacks_entered;
  record(obs::EventKind::kViewEntered, view, r_cur_);
  record(obs::EventKind::kFallbackEntered, view, r_cur_, 0,
        ftc ? obs::kFallbackReasonFtc : obs::kFallbackReasonAlways);
  if (timer_ != sim::kInvalidEvent) {
    sim().cancel(timer_);
    timer_ = sim::kInvalidEvent;
  }

  // Reset per-view voting state: r̄_vote[j] = h̄_vote[j] = 0 for all j.
  r_vote_bar_.assign(params().n, 0);
  h_vote_bar_.assign(params().n, 0);
  frontier_.reset(view);
  view_timeout_shares_.erase_before(view);
  coin_shares_.erase_before(view);
  fb_votes_.clear();  // then holds only own_fblock_'s <= chain_len targets
  own_fblock_.clear();
  own_height_ = 0;
  top_fqc_proposers_.clear();
  top_fqc_signers_.clear();
  sent_top_fqc_ = false;
  persist_vote_state();  // durable before the height-1 f-block leaves

  // Multicast tc̄ together with our height-1 f-block
  // B̄ = [id, qc_high, qc_high.r + 1, v_cur, txn, 1, i].
  propose_fblock(1, qc_high(), ftc);

  if (fault().forges_fbqc()) forge_fbqc_attack(view);
}

void FallbackReplica::forge_fbqc_attack(View view) {
  // Byzantine adoption attack: advertise certificates that were never
  // formed. Two vectors, both of which honest replicas must reject and
  // blame (stats_.bad_certs_rejected / cert_blame):
  //  * forged top-height f-QCs — a *different* fake to each half of the
  //    network (equivocation) — aimed at the leader-election counting;
  //  * an f-block extending a forged height-1 f-QC, aimed at the adoption
  //    rule (mid-height certificates only travel as proposal parents).
  // The signatures are garbage: the threshold scheme makes forging a real
  // one infeasible, so verification is the entire defense.
  auto forge = [&](FallbackHeight height, std::uint32_t salt) {
    smr::Certificate fake;
    fake.kind = smr::CertKind::kFallback;
    Encoder enc;
    enc.u64(view);
    enc.u32(height);
    enc.u32(salt);
    enc.u32(id());
    fake.block_id = crypto::sha256_tagged("repro/forged-fqc", enc.result());
    fake.round = qc_high().round + height;
    fake.view = view;
    fake.height = height;
    fake.proposer = id();
    fake.sig.value = 0xBAD5EEDull + salt;
    return fake;
  };
  for (ReplicaId to = 0; to < params().n; ++to) {
    send(to, smr::FbQcMsg{forge(fb_.chain_len, to % 2), {}});
  }
  smr::Certificate parent = forge(1, 2);
  smr::FbProposalMsg msg;
  msg.block = smr::Block::make(parent, parent.round + 1, view, 2, id(), next_payload());
  multicast(std::move(msg));
}

void FallbackReplica::propose_fblock(FallbackHeight height, const smr::Certificate& parent,
                                     const std::optional<smr::FallbackTC>& ftc) {
  if (fault().crashed()) return;
  own_height_ = height;

  if (fault().equivocates()) {
    // Equivocating f-chain: conflicting f-blocks at the same height to
    // different halves. The per-proposer r̄_vote/h̄_vote voting rules stop
    // more than one from certifying per (view, round).
    smr::Block a =
        smr::Block::make(parent, parent.round + 1, v_cur_, height, id(), next_payload());
    smr::Block b =
        smr::Block::make(parent, parent.round + 1, v_cur_, height, id(), next_payload());
    own_fblock_[height] = a.id;
    store_block(a, id());
    note_block_born(a.id);
    note_block_born(b.id);
    for (ReplicaId to = 0; to < params().n; ++to) {
      smr::FbProposalMsg msg;
      msg.block = (to % 2 == 0) ? a : b;
      msg.ftc = ftc;
      msg.coins = evidence_for(parent);
      send(to, std::move(msg));
    }
    ++stats_.proposals_sent;
    record(obs::EventKind::kProposalSent, v_cur_, parent.round + 1, height, 0,
           crypto::digest_prefix_u64(a.id));
    return;
  }

  smr::Block block = smr::Block::make(parent, parent.round + 1, v_cur_, height, id(),
                                      next_payload());
  own_fblock_[height] = block.id;
  store_block(block, id());
  note_block_born(block.id);
  smr::FbProposalMsg msg;
  msg.block = std::move(block);
  // kTamperFBlocks: the wire block no longer matches its id.
  if (fault().tampers_fblocks()) {
    Bytes tampered = *msg.block.payload;
    tampered.push_back(0xee);
    msg.block.payload = make_shared_bytes(std::move(tampered));
  }
  msg.ftc = ftc;
  msg.coins = evidence_for(parent);
  ++stats_.proposals_sent;
  const std::uint64_t key = crypto::digest_prefix_u64(msg.block.id);
  const std::uint64_t wire_key = multicast(std::move(msg));
  record(obs::EventKind::kProposalSent, v_cur_, parent.round + 1, height, wire_key, key);
}

void FallbackReplica::handle_fb_proposal(ReplicaId from, smr::FbProposalMsg&& msg) {
  smr::Block& block = msg.block;
  if (block.height < 1 || block.height > fb_.chain_len) return;
  if (block.proposer != from) return;
  if (!verify(block.parent)) {
    blame_cert(from);  // f-block built on a forged certificate
    return;
  }
  install_attached_coins(from, msg.coins);

  // An attached valid f-TC can pull us into the fallback (Enter Fallback
  // triggers on receiving an f-TC from any message). It is checked at most
  // once, only where it matters, and not at all when it is the f-TC we
  // entered this view's fallback on; a forgery of that view carries a
  // different signature and is still checked, rejected and blamed.
  std::optional<bool> ftc_valid;
  auto ftc_verified = [&] {
    if (!ftc_valid) {
      ftc_valid = entered_ftc_ == msg.ftc || verify(*msg.ftc);
      if (!*ftc_valid) blame_cert(from);
    }
    return *ftc_valid;
  };
  if (msg.ftc && ftc_enters(msg.ftc->view) && ftc_verified()) handle_ftc(*msg.ftc);

  const smr::Certificate parent = block.parent;
  const FallbackHeight h = block.height;
  const Round r = block.round;
  const View v = block.view;
  const ReplicaId j = from;
  const smr::BlockId block_id = block.id;
  store_block(std::move(block), from);
  record(obs::EventKind::kProposalReceived, v, r, h, from, crypto::digest_prefix_u64(block_id));

  // Regular-QC parents feed Lock; f-QC parents are recorded (and drive
  // adoption). Endorsed f-QC parents also feed Lock via lock_full.
  if (parent.kind == smr::CertKind::kFallback) {
    note_fallback_qc(parent, from);
  }
  lock_full(parent, from);

  // ---- Fallback Vote (Fig 2) ----
  if (!fallback_mode_ || v != v_cur_) return;
  if (h <= h_vote_bar_[j]) return;
  if (h == 1) {
    // Height 1: needs the f-TC of the current view and a parent QC with
    // qc.rank >= rank_lock, r == qc.r + 1. (The always-fallback baseline
    // has no timeouts, hence no f-TC to check.)
    const bool ftc_ok =
        fb_.always_fallback || (msg.ftc && msg.ftc->view == v_cur_ && ftc_verified());
    if (!ftc_ok) return;
    if (parent.kind == smr::CertKind::kFallback && !is_endorsed(parent)) return;
    if (rank_of(parent) < rank_lock()) return;
    if (r != parent.round + 1) return;
  } else {
    // Height 2..chain_len: parent must be the f-QC one height below, same
    // view, consecutive round, and fresh for this proposer.
    if (parent.kind != smr::CertKind::kFallback) return;
    if (parent.view != v_cur_) return;
    if (r != parent.round + 1) return;
    if (r <= r_vote_bar_[j]) return;
    if (h != parent.height + 1) return;
  }

  // Certificate relay (DESIGN.md §13): if we already hold the completed
  // f-QC for *this very block* (it arrived first as the parent of the
  // next proposal, or in an FbQcMsg — common under asynchrony), our vote
  // share is redundant: 2f+1 other shares already combined into the
  // certificate we hold. Skip the unicast; do NOT advance the vote bars,
  // so this stays a pure send-suppression. The condition is keyed on the
  // exact block id — never on (owner, round) or (owner, height), which
  // are not comparable across the re-proposed chain of a restarted owner.
  if (smr::relay_active(params().n)) {
    const smr::Certificate* have = store().certificate_for(block_id);
    if (have != nullptr && have->kind == smr::CertKind::kFallback && have->height == h) {
      ++stats_.fb_votes_thinned;
      return;
    }
  }

  // Looked up after the lock step: a commit it ran may have pruned it.
  const smr::Block* stored = store().get(block_id);
  if (stored == nullptr || !externally_valid(*stored->payload)) return;
  if (fault().withholds_votes()) return;
  r_vote_bar_[j] = r;
  h_vote_bar_[j] = h;
  persist_vote_state();  // durable before the fallback vote leaves
  ++stats_.votes_sent;
  record(obs::EventKind::kVoteSent, v, r, h, 0, crypto::digest_prefix_u64(block_id));
  smr::FbVoteMsg vote;
  vote.block_id = block_id;
  vote.round = r;
  vote.view = v;
  vote.height = h;
  vote.chain_owner = j;
  vote.share = maybe_corrupt(crypto_sys().quorum_sigs.sign_share(
      id(), smr::cert_signing_message(smr::CertKind::kFallback, block_id, r, v, h, j)));
  send(j, std::move(vote));
}

void FallbackReplica::handle_fb_vote(ReplicaId from, const smr::FbVoteMsg& msg) {
  if (msg.chain_owner != id() || msg.view != v_cur_) return;
  auto it = own_fblock_.find(msg.height);
  if (it == own_fblock_.end() || it->second != msg.block_id) return;
  // The fb_votes_ pool is keyed by (block, height) but the signing message
  // also covers round and view; pin them against our stored f-block so a
  // vote with mismatched fields (whose share signs a different message)
  // can never seed or pollute the accumulator for this block.
  const smr::Block* own = store().get(msg.block_id);
  if (own == nullptr || own->round != msg.round || own->view != msg.view ||
      own->height != msg.height) {
    return;
  }

  const auto key = std::make_tuple(msg.block_id, msg.height);
  auto sig = add_share(fb_votes_, key, from, msg.share, crypto_sys().quorum_sigs, [&] {
    return smr::cert_signing_message(smr::CertKind::kFallback, msg.block_id, msg.round,
                                     msg.view, msg.height, id());
  });
  if (!sig) return;
  smr::Certificate fqc;
  fqc.kind = smr::CertKind::kFallback;
  fqc.block_id = msg.block_id;
  fqc.round = msg.round;
  fqc.view = msg.view;
  fqc.height = msg.height;
  fqc.proposer = id();
  fqc.sig = *sig;
  record(obs::EventKind::kFBlockCertified, msg.view, msg.round, msg.height, 0,
         crypto::digest_prefix_u64(msg.block_id));
  note_fallback_qc(fqc, id());

  // ---- Fallback Propose (Fig 2) ----
  if (!fallback_mode_) return;
  if (fqc.height == fb_.chain_len) {
    if (!sent_top_fqc_) {
      sent_top_fqc_ = true;
      multicast(smr::FbQcMsg{fqc, {}});
    }
  } else if (own_height_ == fqc.height) {
    propose_fblock(fqc.height + 1, fqc, std::nullopt);
  }
}

void FallbackReplica::note_fallback_qc(const smr::Certificate& fqc, ReplicaId hint) {
  if (fqc.view != v_cur_) {
    note_certificate(fqc, hint);  // still feed the commit scan
    return;
  }
  note_certificate(fqc, hint);
  frontier_.observe(fqc);

  if (!fallback_mode_) return;

  // §3 optimization / Fig 4: extend the first certified f-block we see at
  // each height instead of waiting for our own chain. The always-fallback
  // baseline applies the rule *strictly* — adopt only a chain certified
  // at a higher position than our own (the §3 wording). Adopting at an
  // equal position forks our chain onto a foreign proposer mid-chain, and
  // such mixed-proposer chains can never satisfy the endorsed 3-chain
  // commit rule; at scale that starves decisions entirely (DESIGN.md §13).
  const bool behind =
      fb_.always_fallback ? own_height_ < fqc.height : own_height_ <= fqc.height;
  if (fb_.adoption_enabled() && fqc.height < fb_.chain_len && behind) {
    record(obs::EventKind::kChainAdopted, fqc.view, fqc.round, fqc.height, fqc.proposer);
    propose_fblock(fqc.height + 1, fqc, std::nullopt);
  }
  // Fig 4 Fallback Propose: re-sign and multicast the first completed
  // top-height f-QC we see (distinct-signer election counting).
  if (fb_.adoption_enabled() && fqc.height == fb_.chain_len && !sent_top_fqc_) {
    sent_top_fqc_ = true;
    multicast(smr::FbQcMsg{fqc, {}});
  }
}

void FallbackReplica::handle_fb_qc(ReplicaId from, const smr::FbQcMsg& msg) {
  const smr::Certificate& fqc = msg.fqc;
  if (fqc.kind != smr::CertKind::kFallback || fqc.height != fb_.chain_len) {
    blame_cert(from);  // honest replicas only multicast well-formed top f-QCs
    return;
  }
  if (!verify(fqc)) {
    blame_cert(from);  // forged certificate — the adoption attack vector
    return;
  }
  if (fqc.view != v_cur_) return;
  note_fallback_qc(fqc, from);

  // Leader Election counting: base 3-chain protocol counts distinct
  // completed chains (proposers); adoption/2-chain modes count distinct
  // signers of the multicast f-QCs (Fig 4: "signed by distinct replicas").
  if (fb_.adoption_enabled()) {
    top_fqc_signers_.insert(from);
  } else {
    top_fqc_proposers_.insert(fqc.proposer);
  }
  maybe_trigger_election();
}

void FallbackReplica::maybe_trigger_election() {
  if (!fallback_mode_) return;
  if (sent_coin_share_view_ && *sent_coin_share_view_ >= v_cur_) return;
  const std::size_t count =
      fb_.adoption_enabled() ? top_fqc_signers_.size() : top_fqc_proposers_.size();
  if (count < params().quorum()) return;
  // Certificate relay (DESIGN.md §13): once the coin-QC itself has been
  // observed, our share can no longer contribute to assembling it — the
  // aggregate certificate supersedes the share traffic.
  if (smr::relay_active(params().n) && coin_for(v_cur_) != nullptr) {
    ++stats_.coin_shares_suppressed;
    sent_coin_share_view_ = v_cur_;
    return;
  }
  sent_coin_share_view_ = v_cur_;
  smr::CoinShareMsg msg;
  msg.view = v_cur_;
  msg.share = maybe_corrupt(crypto_sys().coin.coin_share(id(), v_cur_));
  multicast(std::move(msg));
}

void FallbackReplica::handle_coin_share(ReplicaId from, const smr::CoinShareMsg& msg) {
  if (msg.view < v_cur_) return;
  // Honest replicas only share the coin of a view whose fallback they are
  // in, so anything far ahead of us is Byzantine pool-stuffing.
  if (msg.view > v_cur_ + kViewHorizon) return;
  auto sig = add_share(coin_shares_, msg.view, from, msg.share, crypto_sys().coin.scheme(),
                       [&] { return crypto::CommonCoin::coin_message(msg.view); });
  if (!sig) return;
  const smr::CoinQC coin{msg.view, *sig};
  record(obs::EventKind::kCoinQcFormed, msg.view, 0);
  process_coin(coin);
}

void FallbackReplica::process_coin(const smr::CoinQC& coin) {
  const bool fresh = install_coin(coin);
  if (fresh) {
    // Exit Fallback: forward the coin-QC. Only the view's designated
    // relayers (all n at n <= 8) multicast it — shares were multicast, so
    // every honest replica assembles the coin-QC itself; the relay only
    // shaves latency for stragglers, and f+1 designated relayers always
    // include an honest one (DESIGN.md §13).
    if (smr::is_coin_relayer(id(), coin.view, params().n, params().f)) {
      smr::CoinQcMsg relay{coin, std::nullopt};
      if (smr::relay_active(params().n) && frontier_.view() == coin.view) {
        // Piggyback the elected leader's best f-QC so a straggler exits
        // with the same endorsed lock without waiting for the f-QC to
        // arrive separately.
        const ReplicaId leader = coin.leader(crypto_sys());
        if (const smr::Certificate* best = frontier_.best_of(leader)) {
          relay.leader_best = *best;
        }
      }
      multicast(std::move(relay));
    } else {
      ++stats_.coin_relays_suppressed;
    }
  }
  if (coin.view < v_cur_) return;

  // ---- Exit Fallback (Fig 2) ----
  const ReplicaId leader = coin.leader(crypto_sys());
  record(obs::EventKind::kLeaderElected, coin.view, 0, 0, leader);
  const bool was_in_this_fallback =
      fallback_mode_ && fallback_entered_view_ && *fallback_entered_view_ == coin.view;
  if (was_in_this_fallback) {
    // r_vote <- r̄_vote[L] (a plain assignment: it may *lower* r_vote,
    // which is safe because vote deduplication is per view, and necessary
    // for liveness when the elected chain is rooted below our last vote).
    r_vote_ = r_vote_bar_[leader];
    ++stats_.fallbacks_exited;
    const SimTime duration = sim().now() - fallback_entered_at_;
    stats_.fallback_time_total_us += duration;
    if (fallback_duration_hist() != nullptr) {
      fallback_duration_hist()->observe(duration);
    }
    record(obs::EventKind::kFallbackExited, coin.view, 0, 0, leader);
  }
  fallback_mode_ = false;
  v_cur_ = coin.view + 1;
  view_timeout_shares_.erase_before(v_cur_);
  coin_shares_.erase_before(v_cur_);
  timed_out_cur_round_ = false;
  consecutive_timeouts_ = 0;
  record(obs::EventKind::kViewEntered, v_cur_, r_cur_);
  persist_vote_state();  // view change + adopted r_vote become durable

  // Execute Lock on the highest (now endorsed) f-QC of the elected leader
  // that we recorded during the fallback.
  if (was_in_this_fallback) {
    const smr::Certificate* best = frontier_.best_of(leader);
    if (best != nullptr) lock_full(*best, leader);
  }

  LOG_DEBUG("replica %u: exited fallback of view %llu, leader %u, new view %llu", id(),
            static_cast<unsigned long long>(coin.view), leader,
            static_cast<unsigned long long>(v_cur_));

  if (fb_.always_fallback) {
    enter_fallback(v_cur_, std::nullopt);
    return;
  }
  // Restart the round timer so a dead steady state (e.g. the elected
  // leader was Byzantine and produced no endorsed chain) times out into
  // the next fallback instead of deadlocking. The brief announcement
  // leaves this implicit; without it no timer would be armed when the
  // exit does not advance the round.
  arm_timer();
  maybe_propose_steady();
}

std::vector<smr::CoinQC> FallbackReplica::evidence_for(const smr::Certificate& cert) const {
  std::vector<smr::CoinQC> coins;
  if (cert.kind == smr::CertKind::kFallback) {
    if (const smr::CoinQC* c = coin_for(cert.view); c != nullptr) coins.push_back(*c);
  }
  return coins;
}

void FallbackReplica::install_attached_coins(ReplicaId from,
                                             const std::vector<smr::CoinQC>& coins) {
  for (const auto& c : coins) {
    // The coin we already hold: installing it again would do nothing (its
    // view is below v_cur). A forgery of that view differs in signature.
    const smr::CoinQC* have = coin_for(c.view);
    if (have != nullptr && *have == c) continue;
    if (verify(c)) {
      process_coin(c);
    } else {
      blame_cert(from);  // forged coin-QC attached as evidence
    }
  }
}

}  // namespace repro::core
