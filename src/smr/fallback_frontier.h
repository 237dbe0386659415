// Per-view fallback chain bookkeeping: the certified frontier.
//
// One fallback view runs up to n parallel f-block chains (one per chain
// owner). The scale-out optimizations of DESIGN.md §13 need two views of
// that race, collected here behind one interface:
//
//  * per-owner: the highest completed f-QC of each owner's chain, used by
//    the Exit-Fallback lock (f-QCs of the elected leader) and by the
//    certificate-relay piggyback (the coin-QC carries the elected
//    leader's best f-QC so stragglers exit holding the same lock);
//  * global: the frontier — the highest certified f-block position any
//    chain has reached this view, which is what adoption extends.
//
// Only *verified* certificates may be observed; callers run the full
// threshold check first (a forged certificate must never move the
// frontier — see the Byzantine-adoption tests).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/types.h"
#include "smr/certificates.h"

namespace repro::smr {

class FallbackFrontier {
 public:
  /// Start tracking `view`; drops all state of the previous view.
  void reset(View view) {
    view_ = view;
    by_owner_.clear();
    height_ = 0;
    round_ = 0;
    certs_seen_ = 0;
  }

  /// Record a verified f-QC. Returns true if it raised its owner's best
  /// position (it was news). Certificates of other views or kinds are
  /// ignored — the caller does not need to pre-filter.
  bool observe(const Certificate& fqc) {
    if (fqc.kind != CertKind::kFallback || fqc.view != view_) return false;
    ++certs_seen_;
    if (fqc.height > height_ || (fqc.height == height_ && fqc.round > round_)) {
      height_ = fqc.height;
      round_ = fqc.round;
    }
    auto it = by_owner_.find(fqc.proposer);
    if (it != by_owner_.end() && it->second.round >= fqc.round) return false;
    by_owner_.insert_or_assign(fqc.proposer, fqc);
    return true;
  }

  View view() const { return view_; }

  /// Highest certified f-block height observed this view (0 = none yet).
  FallbackHeight height() const { return height_; }

  /// Round of the frontier certificate (0 = none yet).
  Round round() const { return round_; }

  /// Verified f-QCs observed this view (duplicates included).
  std::uint64_t certs_seen() const { return certs_seen_; }

  /// `owner`'s highest completed f-QC this view, nullptr if none.
  const Certificate* best_of(ReplicaId owner) const {
    auto it = by_owner_.find(owner);
    return it == by_owner_.end() ? nullptr : &it->second;
  }

  /// Approximate heap footprint, for the repro_share_pool_bytes audit.
  std::size_t approx_bytes() const {
    return by_owner_.size() * (sizeof(ReplicaId) + sizeof(Certificate) + 48);
  }

 private:
  View view_ = 0;
  FallbackHeight height_ = 0;
  Round round_ = 0;
  std::uint64_t certs_seen_ = 0;
  std::map<ReplicaId, Certificate> by_owner_;
};

/// Floor on the designated coin-QC relayer count. A straggler's exit
/// latency is the minimum over the relayed copies' delays, so very small
/// relayer sets visibly widen the exit spread at small n — exactly where
/// the relay savings are negligible (the suppression saves (n - relayers)
/// · n messages per view, ~2/3 of the coin-QC traffic at n >= 100 but
/// nothing worth having at n <= 8). At or below the floor every replica
/// relays.
inline constexpr std::uint32_t kMinCoinRelayers = 8;

/// Designated coin-QC relayers for `view`: the max(f+1, kMinCoinRelayers)
/// replicas {(view + k) mod n : k = 0..count-1}. Rotating with the view
/// spreads the relay load; f+1 designated relayers always include at
/// least one honest replica, and the relay is only a latency aid anyway —
/// coin shares are multicast, so every honest replica eventually
/// assembles the coin-QC itself even if every relayed copy is withheld.
inline bool is_coin_relayer(ReplicaId id, View view, std::uint32_t n, std::uint32_t f) {
  const std::uint32_t count = std::max(f + 1, std::min(n, kMinCoinRelayers));
  const std::uint32_t start = static_cast<std::uint32_t>(view % n);
  const std::uint32_t offset = (id + n - start) % n;
  return offset < count;
}

/// Whether the certificate-relay suppressions engage at committee size
/// `n`. Below the relayer floor every mechanism is inert — the relayer
/// set is all of n already, and the vote / coin-share suppressions would
/// save O(n) messages per view while perturbing the delivery schedule of
/// exactly the configurations where one message can decide whether a
/// crash-recovery trajectory converges. Above the floor the savings are
/// O(n^2) per view and the suppressions carry the scale-out win
/// (DESIGN.md §13). At n <= kMinCoinRelayers the protocol therefore sends
/// exactly what relay-everywhere, vote-always would.
inline bool relay_active(std::uint32_t n) { return n > kMinCoinRelayers; }

}  // namespace repro::smr
