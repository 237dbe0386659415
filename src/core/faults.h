// Byzantine fault injection.
//
// The paper's adversary corrupts up to f replicas arbitrarily. We model
// the classic concrete behaviours used to stress BFT implementations.
// (Signature forgery is outside the modeled threat surface — see
// DESIGN.md §2 — so faults are behavioural, not cryptographic.)
#pragma once

#include <cstdint>

namespace repro::core {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  /// Dead from the start: never sends, never reacts.
  kCrash,
  /// Participates (votes, timeouts) but never proposes anything — the
  /// "bad leader" whose rounds always time out.
  kMuteLeader,
  /// Proposes conflicting blocks for the same round to different halves
  /// of the network (safety attack).
  kEquivocate,
  /// Never votes (steady state or fallback), slowing quorum formation.
  kWithholdVotes,
  /// Multicasts timeout messages continuously regardless of progress.
  kTimeoutSpam,
  /// Proposes transaction batches that fail the external validity
  /// predicate. (Convention used by the fault injector: batches are
  /// prefixed with 0xFF; install a validator that rejects that prefix.)
  kInvalidTxns,
  /// Participates normally but corrupts every threshold-signature share
  /// it sends (votes, timeout shares, f-votes, coin shares). Stresses the
  /// optimistic combine-then-verify path: honest accumulators must detect
  /// the bad shares via the failed combined check, evict them, and still
  /// assemble certificates from the honest 2f+1.
  kBadShares,
  /// Participates normally but every threshold share it sends claims
  /// another replica's signer id (with a garbage value). Stresses the
  /// signer/sender binding at share admission: without it the forged
  /// shares would occupy honest signers' accumulator slots and get the
  /// honest ids banned, wedging quorums forever.
  kImpersonateShares,
  /// Advertises forged fallback-QCs for adoption: on every fallback entry
  /// it multicasts FbQcMsg certificates for fabricated f-blocks — two
  /// *different* fakes to the two halves of the network (equivocation) —
  /// with garbage threshold signatures. Stresses the adoption rule's
  /// verification gate: honest replicas must reject (verification fails),
  /// blame the sender, and never adopt or count the fake toward election.
  kForgeFbQc,
  /// On every steady-state proposal it receives, multicasts a fabricated
  /// ancestor chain through the catch-up channel (BlockResponseMsg):
  /// id-consistent blocks whose embedded parent certificates carry
  /// garbage threshold signatures. Stresses the catch-up path: a block
  /// stored that way must never earn a vote, and its unverified parent
  /// certificate must never be recorded, or honest replicas would hold a
  /// forged QC next to the real one of the same round.
  kGhostChain,
  /// Multicasts each of its f-blocks with the payload mutated after
  /// Block::make, so the id no longer binds the fields (the genuine block
  /// is never sent). Stresses the decode-boundary id check: honest
  /// replicas must reject the frame when they decode it, and the sender
  /// must not seed a shared decode cache with its unchecked decoded form.
  kTamperFBlocks,
};

struct FaultSpec {
  FaultKind kind = FaultKind::kNone;

  bool crashed() const { return kind == FaultKind::kCrash; }
  bool mute() const { return kind == FaultKind::kMuteLeader || crashed(); }
  bool equivocates() const { return kind == FaultKind::kEquivocate; }
  bool withholds_votes() const { return kind == FaultKind::kWithholdVotes; }
  bool spams_timeouts() const { return kind == FaultKind::kTimeoutSpam; }
  bool proposes_invalid_txns() const { return kind == FaultKind::kInvalidTxns; }
  bool sends_bad_shares() const { return kind == FaultKind::kBadShares; }
  bool impersonates_shares() const { return kind == FaultKind::kImpersonateShares; }
  bool forges_fbqc() const { return kind == FaultKind::kForgeFbQc; }
  bool forges_ghost_chain() const { return kind == FaultKind::kGhostChain; }
  bool tampers_fblocks() const { return kind == FaultKind::kTamperFBlocks; }
};

}  // namespace repro::core
