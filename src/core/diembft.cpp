#include "core/diembft.h"

#include "common/log.h"

namespace repro::core {

void DiemBftReplica::start() {
  if (fault().crashed()) return;
  recover_from_wal();
  // Initial state per Fig 1: r_vote = 0, rank_lock = (0,0), r_cur = 1,
  // qc_high = genesis QC; enter round 1.
  arm_timer();
  maybe_propose();
  if (fault().spams_timeouts()) spam_timeouts();
}

void DiemBftReplica::spam_timeouts() {
  // The loop dies when the fault is cleared or flipped mid-run
  // (set_fault); on_fault_changed restarts it on a fresh spam edge.
  if (halted() || !fault().spams_timeouts()) return;
  smr::DiemTimeoutMsg msg;
  msg.round = r_cur_;
  msg.round_share = maybe_corrupt(
      crypto_sys().quorum_sigs.sign_share(id(), smr::tc_signing_message(r_cur_)));
  msg.qc_high = qc_high();
  multicast(std::move(msg));
  sim().schedule_after(config().base_timeout_us / 2, [this] { spam_timeouts(); });
}

void DiemBftReplica::handle_message(ReplicaId from, smr::Message&& msg) {
  if (auto* p = std::get_if<smr::ProposalMsg>(&msg)) {
    handle_proposal(from, std::move(*p));
  } else if (auto* v = std::get_if<smr::VoteMsg>(&msg)) {
    handle_vote(from, *v);
  } else if (auto* t = std::get_if<smr::DiemTimeoutMsg>(&msg)) {
    handle_timeout(from, *t);
  } else if (auto* tc = std::get_if<smr::DiemTcMsg>(&msg)) {
    if (verify(tc->tc)) handle_tc(tc->tc);
  }
  // Fallback-protocol message types are ignored by the baseline.
}

void DiemBftReplica::lock_step(const smr::Certificate& qc, ReplicaId hint) {
  // 2-chain lock on the parent's rank; qc_high <- max. These run before
  // Advance Round: entering a new round can make us propose, and the
  // proposal must extend the *updated* qc_high.
  lock_parent_rank(qc, hint);
  update_qc_high(qc);
  // Advance Round: a round-(r-1) QC lets us enter round r.
  advance_to(qc.round + 1, std::nullopt);
  // Commit (3-chain) scan.
  note_certificate(qc, hint);
}

void DiemBftReplica::advance_to(Round round, const std::optional<smr::TimeoutCert>& tc) {
  if (round <= r_cur_) return;
  r_cur_ = round;
  timed_out_cur_round_ = false;
  entry_tc_ = tc;
  votes_.erase_before({round_window_floor(), smr::BlockId{}});
  timeout_shares_.erase_before(round_window_floor());
  if (tc) {
    // "Upon entering round r, the replica sends the round-(r-1) tc to L_r."
    send(leader_of(round), smr::DiemTcMsg{*tc});
  } else {
    consecutive_timeouts_ = 0;  // progress via QC
  }
  arm_timer();
  maybe_propose();
}

void DiemBftReplica::maybe_propose() {
  if (leader_of(r_cur_) != id()) return;
  if (last_proposed_round_ >= r_cur_) return;
  if (fault().mute()) return;
  last_proposed_round_ = r_cur_;
  persist_vote_state();  // durable before the proposal leaves

  if (fault().equivocates()) {
    // Conflicting blocks for the same round, sent to disjoint halves.
    smr::Block a = smr::Block::make(qc_high(), r_cur_, 0, 0, id(), next_payload(qc_high()));
    smr::Block b = smr::Block::make(qc_high(), r_cur_, 0, 0, id(), next_payload(qc_high()));
    store_block(a, id());
    note_block_born(a.id);
    note_block_born(b.id);
    for (ReplicaId to = 0; to < params().n; ++to) {
      smr::ProposalMsg msg;
      msg.block = (to % 2 == 0) ? a : b;
      msg.tc = entry_tc_;
      send(to, std::move(msg));
    }
    ++stats_.proposals_sent;
    record(obs::EventKind::kProposalSent, 0, r_cur_, 0, 0, crypto::digest_prefix_u64(a.id));
    return;
  }

  smr::Block block = smr::Block::make(qc_high(), r_cur_, /*view=*/0, /*height=*/0, id(),
                                      next_payload(qc_high()));
  store_block(block, id());
  note_block_born(block.id);
  smr::ProposalMsg msg;
  msg.block = std::move(block);
  msg.tc = entry_tc_;
  ++stats_.proposals_sent;
  const std::uint64_t key = crypto::digest_prefix_u64(msg.block.id);
  const std::uint64_t wire_key = multicast(std::move(msg));
  record(obs::EventKind::kProposalSent, 0, r_cur_, 0, wire_key, key);
}

void DiemBftReplica::arm_timer() {
  if (timer_ != sim::kInvalidEvent) sim().cancel(timer_);
  const std::uint64_t factor =
      std::min<std::uint64_t>(1 + consecutive_timeouts_, kMaxTimeoutFactor);
  const Round round = r_cur_;
  timer_ = sim().schedule_after(config().base_timeout_us * factor,
                                [this, round] { on_timer_fired(round); });
}

void DiemBftReplica::on_timer_fired(Round round) {
  // Dead instance, (dynamically) crashed replica, or stale timer.
  if (halted() || fault().crashed() || round != r_cur_) return;
  timer_ = sim::kInvalidEvent;
  // "Upon the timer T_r expires, the replica stops voting for round r and
  // multicasts a timeout message <{r}_i, qc_high>_i."
  timed_out_cur_round_ = true;
  ++consecutive_timeouts_;
  ++stats_.timeouts_sent;
  smr::DiemTimeoutMsg msg;
  msg.round = r_cur_;
  msg.round_share = maybe_corrupt(
      crypto_sys().quorum_sigs.sign_share(id(), smr::tc_signing_message(r_cur_)));
  msg.qc_high = qc_high();
  multicast(std::move(msg));
}

void DiemBftReplica::handle_proposal(ReplicaId from, smr::ProposalMsg&& msg) {
  smr::Block& block = msg.block;
  // Validity: well-formed regular block from the designated leader.
  // (Block::decode already bound the id to the fields.)
  if (block.height != 0 || block.view != 0) return;
  if (block.proposer != from || leader_of(block.round) != from) return;
  if (!verify(block.parent)) return;
  if (msg.tc && verify(*msg.tc)) handle_tc(*msg.tc);

  const smr::Certificate parent = block.parent;
  const Round r = block.round;
  maybe_forge_ghost_chain(block);  // kGhostChain only; no-op when honest
  const smr::BlockId block_id = block.id;
  store_block(std::move(block), from);
  record(obs::EventKind::kProposalReceived, 0, r, 0, from, crypto::digest_prefix_u64(block_id));

  // "Upon receiving the first valid proposal from L_r, execute Lock."
  lock_step(parent, from);

  // Looked up after the lock step, as in Figure 2 (a commit may prune;
  // with every DiemBFT block in view 0, none ever does).
  if (const smr::Block* stored = store().get(block_id)) try_vote(*stored);
}

void DiemBftReplica::try_vote(const smr::Block& block) {
  // Vote rule: r == r_cur, v == v_cur, r > r_vote, qc.rank >= rank_lock
  // (and we have not timed out this round).
  const Round r = block.round;
  if (block.height != 0 || block.view != 0) return;
  if (r != r_cur_ || r <= r_vote_ || timed_out_cur_round_) return;
  if (block.parent.rank(false) < rank_lock()) return;
  if (!externally_valid(block.txns())) return;
  if (fault().withholds_votes()) return;

  r_vote_ = r;
  persist_vote_state();  // durable before the vote leaves
  ++stats_.votes_sent;
  record(obs::EventKind::kVoteSent, 0, r, 0, 0, crypto::digest_prefix_u64(block.id));
  smr::VoteMsg vote;
  vote.block_id = block.id;
  vote.round = r;
  vote.view = 0;
  vote.share = maybe_corrupt(crypto_sys().quorum_sigs.sign_share(
      id(), smr::cert_signing_message(smr::CertKind::kQuorum, block.id, r, 0, 0, 0)));
  send(leader_of(r + 1), std::move(vote));
}

void DiemBftReplica::handle_vote(ReplicaId from, const smr::VoteMsg& msg) {
  if (msg.view != 0 || beyond_round_window(msg.round)) return;
  const auto key = std::make_tuple(msg.round, msg.block_id);
  auto sig = add_share(votes_, key, from, msg.share, crypto_sys().quorum_sigs, [&] {
    return smr::cert_signing_message(smr::CertKind::kQuorum, msg.block_id, msg.round, 0, 0, 0);
  });
  if (!sig) return;

  smr::Certificate qc;
  qc.kind = smr::CertKind::kQuorum;
  qc.block_id = msg.block_id;
  qc.round = msg.round;
  qc.sig = *sig;
  record(obs::EventKind::kQcFormed, 0, msg.round, 0, 0, crypto::digest_prefix_u64(msg.block_id));
  lock_step(qc, from);
}

void DiemBftReplica::handle_timeout(ReplicaId from, const smr::DiemTimeoutMsg& msg) {
  // Catch up on the attached qc_high first (kind-check is free and skips
  // the hash/verify work for non-QC certificates entirely); the QC stands
  // on its own verification regardless of the share's validity.
  if (msg.qc_high.kind == smr::CertKind::kQuorum && verify(msg.qc_high)) {
    lock_step(msg.qc_high, from);
  }

  if (msg.round <= highest_tc_formed_ || beyond_round_window(msg.round)) return;
  auto sig = add_share(timeout_shares_, msg.round, from, msg.round_share,
                       crypto_sys().quorum_sigs,
                       [&] { return smr::tc_signing_message(msg.round); });
  if (!sig) return;
  const smr::TimeoutCert tc{msg.round, *sig};
  record(obs::EventKind::kTcFormed, 0, msg.round);
  highest_tc_formed_ = msg.round;
  handle_tc(tc);
}

void DiemBftReplica::handle_tc(const smr::TimeoutCert& tc) {
  advance_to(tc.round + 1, tc);
}

}  // namespace repro::core
