// DiemBFT baseline (paper Figure 1): chained HotStuff steady state with
// the quadratic round-synchronizing Pacemaker.
//
// Linear cost per decision under synchrony with honest leaders; quadratic
// timeout cost per round otherwise; **no liveness under asynchrony** —
// rounds churn forever without commits (the paper's motivating weakness,
// demonstrated by bench_table1 and bench_liveness_timeline).
#pragma once

#include <optional>
#include <tuple>

#include "core/replica_base.h"

namespace repro::core {

class DiemBftReplica final : public ReplicaBase {
 public:
  explicit DiemBftReplica(const ReplicaContext& ctx) : ReplicaBase(ctx) {}

  void start() override;
  bool in_fallback() const override { return false; }

  /// Quorum-assembly footprint (the repro_share_pool_bytes gauge).
  std::size_t share_pool_bytes() const override {
    return votes_.approx_bytes() + timeout_shares_.approx_bytes() + lagrange_bytes();
  }

 protected:
  std::uint32_t commit_len() const override { return 3; }
  void handle_message(ReplicaId from, smr::Message&& msg) override;

  void on_fault_changed(const FaultSpec& old) override {
    if (halted()) return;
    // Spam edge: start the flood loop (it self-terminates on clear).
    // Un-crash edge: the round timer was never armed (or swallowed by the
    // crashed() guard), so re-arm and resume proposing.
    if (!old.spams_timeouts() && fault().spams_timeouts()) spam_timeouts();
    if (old.crashed() && !fault().crashed()) {
      arm_timer();
      maybe_propose();
    }
  }

  void encode_extra_state(Encoder& enc) const override { enc.u64(last_proposed_round_); }
  bool restore_extra_state(Decoder& dec) override {
    auto last = dec.u64();
    if (!last) return false;
    last_proposed_round_ = *last;
    return true;
  }

 private:
  /// Fig 1 Lock: Advance Round, 2-chain lock, qc_high update, Commit.
  void lock_step(const smr::Certificate& qc, ReplicaId hint);

  /// Fig 1 Advance Round via a round-(r-1) QC or TC.
  void advance_to(Round round, const std::optional<smr::TimeoutCert>& tc);

  void maybe_propose();
  void arm_timer();
  void on_timer_fired(Round round);
  void spam_timeouts();

  void handle_proposal(ReplicaId from, smr::ProposalMsg&& msg);
  /// The vote rule on the block of a verified proposal.
  void try_vote(const smr::Block& block);
  void handle_vote(ReplicaId from, const smr::VoteMsg& msg);
  void handle_timeout(ReplicaId from, const smr::DiemTimeoutMsg& msg);
  void handle_tc(const smr::TimeoutCert& tc);

  sim::EventId timer_ = sim::kInvalidEvent;
  bool timed_out_cur_round_ = false;
  std::uint32_t consecutive_timeouts_ = 0;
  Round last_proposed_round_ = 0;
  /// TC that justified entering the current round (attached to our
  /// proposal so lagging replicas can advance).
  std::optional<smr::TimeoutCert> entry_tc_;

  // Share accumulators (combine-then-verify; see smr/share_accumulator.h).
  // Pool keys cover every field of the signing message, so one accumulator
  // never mixes shares of different messages; they lead with the round,
  // which kRoundWindow bounds on both sides (DESIGN.md §21).
  smr::SharePool<std::tuple<Round, smr::BlockId>> votes_;  ///< collected as L_{r+1}
  smr::SharePool<Round> timeout_shares_;
  Round highest_tc_formed_ = 0;  ///< don't re-form TCs for old rounds
};

}  // namespace repro::core
