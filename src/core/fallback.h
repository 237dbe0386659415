// DiemBFT with the Asynchronous Fallback view-change (paper Figure 2) —
// the paper's primary contribution — plus its two published variants:
//
//  * chain_len == 3 (default): the base protocol — 2-chain lock, 3-chain
//    commit, fallback-chains of three f-blocks.
//  * chain_len == 2: the Figure-4 variant — 1-chain lock, 2-chain commit,
//    fallback-chains of two f-blocks with mandatory chain adoption and
//    distinct-signer leader-election counting.
//  * adoption: the §3 "Optimization in Practice" — replicas extend the
//    first certified f-block they see at each height instead of waiting
//    for their own, so the fallback runs at the speed of the fastest
//    replica (always on for chain_len == 2, per Figure 4).
//  * always_fallback: strips the synchronous path entirely and runs the
//    fallback machinery view after view — an ACE/VABA-style asynchronous
//    SMR baseline paying O(n^2) per decision always (Table 1's "async
//    SMR" row). It adopts strictly: only chains certified at a higher
//    position than its own (DESIGN.md §13).
#pragma once

#include <optional>
#include <set>
#include <tuple>

#include "core/replica_base.h"
#include "smr/fallback_frontier.h"

namespace repro::core {

struct FallbackParams {
  std::uint32_t chain_len = 3;   ///< 3 (Figure 2) or 2 (Figure 4)
  bool adoption = false;         ///< §3 optimization (implied by chain_len == 2)
  bool always_fallback = false;  ///< ACE/VABA-style baseline mode

  /// Chain adoption is forced for the 2-chain variant (Figure 4 specifies
  /// it) and for the always-fallback baseline: without the timeout
  /// exchange that synchronizes qc_high before a fallback, proposers can
  /// start from stale QCs and fewer than 2f+1 *own* chains complete —
  /// adoption (and its distinct-signer election counting) makes one live
  /// chain suffice, which is also how VABA-family protocols behave.
  bool adoption_enabled() const { return adoption || chain_len == 2 || always_fallback; }

  bool operator==(const FallbackParams&) const = default;
};

class FallbackReplica final : public ReplicaBase {
 public:
  /// F-timeout and coin shares for views beyond v_cur + this horizon are
  /// dropped: honest replicas never run that far ahead, and accepting
  /// them would let a Byzantine replica grow the view-keyed pools without
  /// bound (each view change erases only the views below v_cur).
  static constexpr View kViewHorizon = 8;

  FallbackReplica(const ReplicaContext& ctx, FallbackParams fb);

  void start() override;
  bool in_fallback() const override { return fallback_mode_; }

  const FallbackParams& fallback_params() const { return fb_; }

  /// This view's certified-chain bookkeeping (tests / introspection).
  const smr::FallbackFrontier& frontier() const { return frontier_; }

  /// F-blocks of ours that are collecting votes (tests / introspection).
  std::size_t fb_vote_targets() const { return fb_votes_.size(); }

  /// Quorum-assembly footprint: the four share pools, the per-view
  /// frontier and the Lagrange memo (the repro_share_pool_bytes gauge).
  std::size_t share_pool_bytes() const override {
    return view_timeout_shares_.approx_bytes() + fb_votes_.approx_bytes() +
           coin_shares_.approx_bytes() + votes_.approx_bytes() + frontier_.approx_bytes() +
           lagrange_bytes();
  }

 protected:
  std::uint32_t commit_len() const override { return fb_.chain_len; }
  void handle_message(ReplicaId from, smr::Message&& msg) override;
  void on_fault_changed(const FaultSpec& old) override;
  void encode_extra_state(Encoder& enc) const override;
  bool restore_extra_state(Decoder& dec) override;

 private:
  // ---- steady state ----------------------------------------------------
  void maybe_propose_steady();
  void handle_proposal(ReplicaId from, smr::ProposalMsg&& msg);
  /// The Fig 2 vote rule on the block of a verified proposal.
  void try_vote_steady(const smr::Block& block);
  void handle_vote(ReplicaId from, const smr::VoteMsg& msg);

  /// Full Lock step (Fig 1 Lock with Fig 2's Advance Round): applies only
  /// to certificates that "count" (regular QCs / endorsed f-QCs).
  void lock_full(const smr::Certificate& cert, ReplicaId hint);

  /// Fig 2 Advance Round: r_cur <- max(r_cur, qc.r + 1).
  void advance_round_from(const smr::Certificate& cert);

  void arm_timer();
  void on_timer_fired(Round round);
  void spam_timeouts();

  // ---- fallback --------------------------------------------------------
  void handle_fb_timeout(ReplicaId from, const smr::FbTimeoutMsg& msg);
  /// Whether an f-TC of `view` would enter a fallback now.
  bool ftc_enters(View view) const;
  void handle_ftc(const smr::FallbackTC& ftc);
  void enter_fallback(View view, const std::optional<smr::FallbackTC>& ftc);
  void handle_fb_proposal(ReplicaId from, smr::FbProposalMsg&& msg);
  void handle_fb_vote(ReplicaId from, const smr::FbVoteMsg& msg);
  void handle_fb_qc(ReplicaId from, const smr::FbQcMsg& msg);
  void handle_coin_share(ReplicaId from, const smr::CoinShareMsg& msg);

  /// Install + (if view >= v_cur) run Exit Fallback; multicasts the
  /// coin-QC on first sight. All coin-QC paths funnel here.
  void process_coin(const smr::CoinQC& coin);

  /// Record an f-QC of the current view (commit scan, per-proposer best,
  /// adoption hook, top-height bookkeeping).
  void note_fallback_qc(const smr::Certificate& fqc, ReplicaId hint);

  /// Multicast our own f-block at `height` extending `parent`.
  void propose_fblock(FallbackHeight height, const smr::Certificate& parent,
                      const std::optional<smr::FallbackTC>& ftc);

  /// kForgeFbQc behaviour: advertise forged/equivocating f-QCs on every
  /// fallback entry (the Byzantine adoption attack).
  void forge_fbqc_attack(View view);

  void maybe_trigger_election();

  /// Coin-QCs needed as endorsement evidence for `cert`, to attach.
  std::vector<smr::CoinQC> evidence_for(const smr::Certificate& cert) const;

  /// Verify and process coin-QCs attached to a message from `from`,
  /// skipping the ones already installed and blaming forgeries.
  void install_attached_coins(ReplicaId from, const std::vector<smr::CoinQC>& coins);

  // ---- parameters & state ----------------------------------------------
  FallbackParams fb_;

  bool fallback_mode_ = false;
  std::optional<View> fallback_entered_view_;  ///< highest view we entered
  SimTime fallback_entered_at_ = 0;

  sim::EventId timer_ = sim::kInvalidEvent;
  bool timed_out_cur_round_ = false;
  std::uint32_t consecutive_timeouts_ = 0;
  Round last_proposed_round_ = 0;

  // Per-entered-view fallback state (reset in enter_fallback).
  std::vector<Round> r_vote_bar_;           ///< r̄_vote[j]
  std::vector<FallbackHeight> h_vote_bar_;  ///< h̄_vote[j]
  /// Certified-chain bookkeeping: per-owner best f-QC (Exit-Fallback lock,
  /// adoption, certificate relay) and the view's certified frontier.
  smr::FallbackFrontier frontier_;
  std::map<FallbackHeight, smr::BlockId> own_fblock_;  ///< our chain, by height
  FallbackHeight own_height_ = 0;  ///< highest height we have proposed
  std::set<ReplicaId> top_fqc_proposers_;  ///< 3-chain election counting
  std::set<ReplicaId> top_fqc_signers_;    ///< adoption/2-chain election counting
  bool sent_top_fqc_ = false;              ///< re-sign guard (adoption modes)

  std::optional<View> sent_coin_share_view_;
  std::optional<smr::FallbackTC> entered_ftc_;  ///< f-TC of the entered view

  // Share accumulators (combine-then-verify; see smr/share_accumulator.h).
  // Pool keys — together with the handler guards — pin every field of the
  // signing message, so one accumulator never mixes shares of different
  // messages (fb_votes_ checks the stored block's round/view/height).
  // Each pool lives as long as its targets can still help (DESIGN.md §21):
  // the view pools to the next view change, fb_votes_ to the next
  // fallback entry, votes_ to kRoundWindow rounds behind r_cur.
  smr::SharePool<View> view_timeout_shares_;
  smr::SharePool<std::tuple<smr::BlockId, FallbackHeight>> fb_votes_;
  smr::SharePool<View> coin_shares_;
  smr::SharePool<std::tuple<Round, View, smr::BlockId>> votes_;  ///< steady-state votes
  View highest_ftc_formed_ = 0;
  bool any_ftc_formed_ = false;
};

}  // namespace repro::core
