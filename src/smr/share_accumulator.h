// Optimistic quorum assembly: combine-then-verify share accumulators.
//
// The fallback path is deliberately message-quadratic (paper Thm 9), so
// per-share threshold crypto dominates the hot path: naively every incoming
// vote/timeout/coin share pays a fresh SHA-256 message_point plus a field
// check, and every certificate pays a ~t² Lagrange interpolation. The
// accumulator turns that around, the way Jolteon/Ditto-style implementations
// assemble quorums:
//
//   - the signing message's field point is hashed ONCE per target and
//     memoized (2f+1 shares on the same message hash the identical point);
//   - shares are buffered unverified (duplicate signers rejected) until the
//     threshold t is reached;
//   - at threshold, ONE Lagrange combine (coefficients served from a
//     per-replica signer-set memo, batch-inverted on miss) plus ONE verify
//     of the candidate ThresholdSig replaces t per-share verifications;
//   - only if that single check fails does the per-share fallback run: it
//     verifies the buffered shares individually, evicts + bans the invalid
//     ones (charging a per-signer blame counter), and retries with the
//     remaining + later-arriving shares.
//
// Safety: a certificate is handed out only after the combined signature
// passes `verify` (or after every contributing share was individually
// verified), so an invalid share can only make the single combined check
// fail — no unverified certificate ever forms. Liveness: invalid shares are
// evicted and their signers banned per-target, so the t-th valid share to
// arrive always completes the certificate, exactly as in eager mode.
// Honest-path cost per certificate: O(1) verifications instead of O(n).
//
// ADMISSION PRECONDITION: callers must only feed shares whose claimed
// signer equals the envelope-authenticated sender of the carrying message
// (ReplicaBase::add_share enforces this at the single choke point). The
// duplicate-signer and ban-on-invalid rules key on share.signer; without
// the binding, a Byzantine sender could stuff garbage shares under honest
// ids, bouncing the genuine shares as duplicates and getting the honest
// signers banned — the quorum would then never form.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "crypto/shamir.h"
#include "crypto/threshold.h"

namespace repro::smr {

/// Counters shared by all accumulators of one replica (surfaced through
/// ReplicaStats and the bench tables).
struct ShareStats {
  std::uint64_t shares_verified = 0;     ///< per-share verify_share calls paid
  std::uint64_t shares_deferred = 0;     ///< shares buffered without verification
  std::uint64_t combines_optimistic = 0; ///< certificates formed by combine-then-verify
  std::uint64_t combine_fallbacks = 0;   ///< combined check failed -> per-share pass
  std::uint64_t bad_shares_rejected = 0; ///< invalid shares evicted/rejected
  std::uint64_t targets_refused = 0;     ///< new targets a full SharePool turned away
  /// Per-signer count of rejected shares (blame for flood diagnosis).
  std::vector<std::uint64_t> blame;

  void blame_signer(ReplicaId signer) {
    if (blame.size() <= signer) blame.resize(signer + 1, 0);
    ++blame[signer];
  }
};

/// Everything an accumulator needs from its owning replica, passed per call
/// so accumulators stay cheap to store by the thousand.
struct ShareEnv {
  const crypto::ThresholdScheme* scheme = nullptr;
  crypto::LagrangeCache* lagrange = nullptr;
  ShareStats* stats = nullptr;
  bool lazy = true;  ///< false = eager per-share verification (differential mode)
};

/// Collects shares for ONE signing message and assembles the threshold
/// signature at quorum. The signing message itself is not retained — only
/// its memoized field point, which is all verification needs.
class ShareAccumulator {
 public:
  ShareAccumulator(const crypto::ThresholdScheme& scheme, BytesView signing_message);

  /// Feed one share. Returns the combined signature exactly once: on the
  /// add that completes a (verified) quorum. Duplicate signers, banned
  /// signers, out-of-range signers, and post-completion adds return
  /// nullopt, as does any add that leaves the accumulator below threshold.
  std::optional<crypto::ThresholdSig> add(const ShareEnv& env, const crypto::PartialSig& share);

  /// Distinct signers currently buffered (excludes evicted shares).
  std::size_t count() const { return slots_.size(); }
  /// True once the combined signature has been handed out.
  bool done() const { return done_; }

  /// Approximate heap footprint (the repro_share_pool_bytes audit). The
  /// per-node constants cover the red-black-tree bookkeeping of the slot
  /// map / ban set; exactness doesn't matter, scaling with n does: one
  /// accumulator buffers up to n slots, so at n=300 a single in-flight
  /// quorum costs ~21 KiB and SharePool::kMaxTargets bounds the total.
  std::size_t approx_bytes() const {
    return sizeof(ShareAccumulator) + slots_.size() * (sizeof(ReplicaId) + sizeof(Slot) + 48) +
           banned_.size() * (sizeof(ReplicaId) + 40);
  }

 private:
  std::optional<crypto::ThresholdSig> try_assemble(const ShareEnv& env);

  crypto::Fp point_;  ///< memoized message_point of the signing message
  bool done_ = false;

  struct Slot {
    std::uint64_t value = 0;
    bool verified = false;
  };
  std::map<ReplicaId, Slot> slots_;  // signer -> share, id-ordered
  std::set<ReplicaId> banned_;       // signers whose share for this target was invalid
};

/// Keyed map of accumulators, one per quorum target. The signing
/// message is built lazily (first share for a key) by `make_msg`, so
/// callers must key pools by every field that feeds the signing message.
///
/// Lifetime (DESIGN.md §21): keys lead with their round or view, and the
/// owner calls erase_before at the protocol event that makes the older
/// targets dead; admission windows in the handlers keep keys from growing
/// upward. kMaxTargets is the flood backstop beyond both: a full pool
/// refuses a new target and never evicts one it already holds.
template <typename Key>
class SharePool {
 public:
  /// Only targets sprayed by a Byzantine replica can fill a pool this far.
  static constexpr std::size_t kMaxTargets = 512;

  /// Feed one share for `key`. See ShareAccumulator::add for semantics.
  template <typename MakeMsg>
  std::optional<crypto::ThresholdSig> add(const ShareEnv& env, const Key& key,
                                          const crypto::PartialSig& share, MakeMsg&& make_msg) {
    auto it = pool_.find(key);
    if (it == pool_.end()) {
      if (pool_.size() >= kMaxTargets) {
        ++env.stats->targets_refused;
        return std::nullopt;
      }
      it = pool_.emplace(key, ShareAccumulator(*env.scheme, make_msg())).first;
    }
    return it->second.add(env, share);
  }

  std::size_t count(const Key& key) const {
    auto it = pool_.find(key);
    return it == pool_.end() ? 0 : it->second.count();
  }

  /// True if a certificate was already assembled for `key`.
  bool formed(const Key& key) const {
    auto it = pool_.find(key);
    return it != pool_.end() && it->second.done();
  }

  void clear() { pool_.clear(); }

  /// Drop every target ordered below `floor`; costs the number removed.
  void erase_before(const Key& floor) { pool_.erase(pool_.begin(), pool_.lower_bound(floor)); }

  std::size_t size() const { return pool_.size(); }

  /// Approximate heap footprint across all accumulators (the
  /// repro_share_pool_bytes gauge). Walks the pool — metrics snapshots
  /// are off the hot path.
  std::size_t approx_bytes() const {
    std::size_t total = 0;
    for (const auto& [key, acc] : pool_) total += sizeof(Key) + 48 + acc.approx_bytes();
    return total;
  }

 private:
  std::map<Key, ShareAccumulator> pool_;
};

}  // namespace repro::smr
