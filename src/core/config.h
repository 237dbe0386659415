// Protocol configuration and the leader schedule.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.h"
#include "common/types.h"
#include "core/faults.h"

namespace repro::core {

/// External validity predicate (paper §2, validated BFT SMR / Cachin et
/// al.): applied to a block's transaction batch before the replica votes
/// for it, so "any committed transactions [are] externally valid".
using ExternalValidator = std::function<bool(BytesView payload)>;

struct ProtocolConfig {
  /// Fault injected into this replica (kNone for honest replicas).
  FaultSpec fault;

  /// Optional external-validity predicate. Unset = every batch is valid.
  ExternalValidator external_validator;

  /// Base round timer T_r in simulated microseconds. Grows linearly with
  /// consecutive timeouts, up to ReplicaBase::kMaxTimeoutFactor (so under
  /// partial synchrony it eventually exceeds the post-GST Δ).
  SimTime base_timeout_us = 400'000;

  /// Transaction batch bytes per block (0 = empty blocks; complexity
  /// benches use 0 so counted bytes are pure protocol overhead).
  std::size_t batch_bytes = 0;

  /// Paper §3.1 "Rules for Leader Rotation": the same leader serves this
  /// many consecutive rounds (4 in the paper — long enough to build a
  /// 3-chain and hand over).
  std::uint32_t leader_rotation = 4;

  /// Optimistic quorum assembly (combine-then-verify): buffer incoming
  /// threshold-signature shares unverified and check one combined
  /// signature per certificate, falling back to per-share verification
  /// only when that check fails. Off = eager per-share verification on
  /// arrival (kept for differential testing; both modes produce
  /// byte-identical ledgers — see docs/PROTOCOL.md §9).
  bool lazy_share_verify = true;

  /// TEST-ONLY planted bug: trust the parent certificates embedded in
  /// blocks that arrive through the catch-up channel (BlockResponseMsg)
  /// and record them unverified, as if they had been checked. With a
  /// kGhostChain adversary the victims record forged QCs next to the
  /// real QC of the same (view, round), which Lemma 1 forbids. Exists so
  /// the chaos fuzzer's planted-bug test can prove it detects and shrinks
  /// a real safety violation. Never enable outside that test.
  bool unsafe_trust_catchup_blocks = false;
};

/// The predefined leader sequence L_1, L_2, ... (rounds are 1-based).
inline ReplicaId round_leader(Round round, std::uint32_t n, std::uint32_t rotation) {
  return static_cast<ReplicaId>(((round - 1) / rotation) % n);
}

}  // namespace repro::core
