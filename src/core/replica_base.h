// Shared machinery for all protocol variants: block store and ledger,
// endorsement-aware ranking, Lock-step helpers, the commit-rule scanner
// (parameterized by commit chain length), block retrieval, and message
// signing/dispatch. Protocol-specific logic lives in the subclasses.
#pragma once

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/replica.h"
#include "smr/block_store.h"
#include "smr/ledger.h"
#include "smr/mempool.h"
#include "smr/messages.h"
#include "smr/share_accumulator.h"

namespace repro::core {

class ReplicaBase : public IReplica {
 public:
  /// Cap on the round timer's growth factor: a replica waits
  /// base_timeout_us x min(1 + consecutive timeouts, this).
  static constexpr std::uint32_t kMaxTimeoutFactor = 8;
  /// Round window of the round-keyed share pools: shares for rounds more
  /// than this far ahead of r_cur are dropped, and each round advance
  /// erases the targets this far behind it (DESIGN.md §21).
  static constexpr Round kRoundWindow = 64;
  explicit ReplicaBase(const ReplicaContext& ctx);

  // IReplica ----------------------------------------------------------
  void on_message(ReplicaId from, const Bytes& payload) final;
  void on_message_uncached(ReplicaId from, const Bytes& payload) final;
  /// A halted instance is a crashed one: the harness may replace it, so
  /// its live certified blocks go to the audit, where the checker still
  /// finds them.
  void halt() final {
    halted_ = true;
    store_.retire_all();
  }
  ReplicaId id() const final { return id_; }
  const smr::Ledger& ledger() const final { return ledger_; }
  smr::Ledger& ledger() final { return ledger_; }
  Round current_round() const final { return r_cur_; }
  View current_view() const final { return v_cur_; }
  const ReplicaStats& stats() const final { return stats_; }
  void set_fault(const FaultSpec& fault) final {
    const FaultSpec old = cfg_.fault;
    cfg_.fault = fault;
    on_fault_changed(old);
  }

  // Extra introspection used by tests / harness.
  const smr::BlockStore& store() const { return store_; }
  const smr::Certificate& qc_high() const { return qc_high_; }
  /// The block the proposal now being built extends (set by next_payload
  /// before it calls the payload source; DESIGN.md §20.4).
  const smr::BlockId& payload_parent() const { return payload_parent_; }
  smr::Rank rank_lock() const { return rank_lock_; }
  Round r_vote() const { return r_vote_; }
  /// A learned coin-QC and the leader it elects. The leader is derived
  /// once, on install: is_endorsed asks for it on every commit-rule step.
  struct InstalledCoin {
    smr::CoinQC qc;
    ReplicaId leader = 0;
  };
  /// Coin-QCs this replica has learned (view -> coin).
  const std::map<View, InstalledCoin>& coins() const { return coins_; }
  /// Whether construction restored a WAL snapshot.
  bool recovered() const { return recovered_; }
  bool halted() const { return halted_; }
  /// The decode-once cache this replica delivers through (harness-shared
  /// in simulations, private otherwise).
  const smr::DecodeCache& decode_cache() const { return *dcache_; }

  /// Per-sender blame counters for relayed certificates that failed
  /// verification (forged f-QC / coin-QC advertisements) — public so
  /// tests and operators can attribute the flood to the misbehaving
  /// replica. Indexed by sender id; may be shorter than n.
  const std::vector<std::uint64_t>& cert_blame() const { return cert_blame_; }

  /// Footprint of the Lagrange-coefficient memo (lazy, LRU-bounded).
  /// Protocol subclasses fold this into share_pool_bytes() so the gauge
  /// covers all quorum-assembly state (DESIGN.md §13.4).
  std::size_t lagrange_bytes() const { return lagrange_.approx_bytes(); }

 protected:
  /// Commit-rule chain length: 3 for the paper's base protocols, 2 for
  /// the Figure-4 variant.
  virtual std::uint32_t commit_len() const = 0;

  /// Dispatch a decoded, signature-verified message.
  virtual void handle_message(ReplicaId from, smr::Message&& msg) = 0;

  /// Hook invoked after set_fault replaced the FaultSpec (`old` is the
  /// previous one). Runs on the replica's own state only; subclasses
  /// handle edge transitions (kick the timeout-spam loop, re-arm the
  /// round timer after an un-crash). Default: nothing.
  virtual void on_fault_changed(const FaultSpec& old) { (void)old; }

  // Messaging ----------------------------------------------------------
  // Serialize exactly once into a refcounted buffer, signing those very
  // bytes, and hand the buffer to the network. A multicast sender also
  // seeds the decode cache with that buffer and its decoded form, so its
  // own loopback delivery — and, with the harness-shared cache, every
  // simulated recipient — skips the redundant parse. A point-to-point
  // buffer is delivered once, so it is never seeded.
  // multicast returns the transport key of the wire bytes (obs::span_key_of)
  // while recording, else 0: kProposalSent carries it to bridge the block
  // key to the send_flush / socket_read events of the same frame.
  void send(ReplicaId to, smr::Message msg);
  std::uint64_t multicast(smr::Message msg);

  // Certificate verification ---------------------------------------------
  // The full threshold check, on every copy: in this scheme it is one
  // SHA-256 of a short signing message and one field multiply, so no
  // lookup keyed on those bytes could be cheaper (docs/PROTOCOL.md §7).
  bool verify(const smr::Certificate& cert) const {
    return smr::verify_certificate(*crypto_, cert);
  }
  bool verify(const smr::TimeoutCert& tc) const { return smr::verify_tc(*crypto_, tc); }
  bool verify(const smr::FallbackTC& ftc) const { return smr::verify_ftc(*crypto_, ftc); }
  bool verify(const smr::CoinQC& qc) const { return smr::verify_coin_qc(*crypto_, qc); }

  // Optimistic quorum assembly ------------------------------------------
  // Feed one share into a SharePool under this replica's share
  // environment (scheme, Lagrange-coefficient memo, counters, lazy/eager
  // mode) and sync the counters into stats(). Returns the combined
  // signature exactly once, on the add that completes the quorum.
  //
  // `from` is the envelope-authenticated sender of the message carrying
  // the share. Shares are first-person (every protocol sends only shares
  // it signed itself; certificates, not shares, are what gets relayed),
  // so a share claiming a different signer is a forgery attempt and is
  // dropped before it reaches the pool: admitting it would let a
  // Byzantine sender occupy honest signers' slots — their genuine shares
  // would then bounce as duplicates, and the accumulator's ban-on-invalid
  // eviction would ban the *honest* ids per target, wedging the quorum
  // forever (a liveness break). With the binding enforced, bans are
  // always attributable to the authenticated misbehaving replica.
  template <typename Key, typename MakeMsg>
  std::optional<crypto::ThresholdSig> add_share(smr::SharePool<Key>& pool, const Key& key,
                                                ReplicaId from, const crypto::PartialSig& share,
                                                const crypto::ThresholdScheme& scheme,
                                                MakeMsg&& make_msg) {
    std::optional<crypto::ThresholdSig> sig;
    if (share.signer == from) {
      const smr::ShareEnv env{&scheme, &lagrange_, &share_stats_, cfg_.lazy_share_verify};
      sig = pool.add(env, key, share, std::forward<MakeMsg>(make_msg));
    } else {
      ++share_stats_.bad_shares_rejected;
      share_stats_.blame_signer(from);
    }
    stats_.shares_verified = share_stats_.shares_verified;
    stats_.shares_deferred = share_stats_.shares_deferred;
    stats_.combines_optimistic = share_stats_.combines_optimistic;
    stats_.combine_fallbacks = share_stats_.combine_fallbacks;
    stats_.bad_shares_rejected = share_stats_.bad_shares_rejected;
    stats_.share_targets_refused = share_stats_.targets_refused;
    return sig;
  }

  /// Per-signer blame counters for rejected shares (flood diagnosis).
  const std::vector<std::uint64_t>& share_blame() const { return share_stats_.blame; }

  /// Charge `from` for a relayed certificate that failed verify
  /// (forged f-QC / coin-QC advertisement). Senders are envelope-
  /// authenticated, so the blame is attributable.
  void blame_cert(ReplicaId from) {
    if (cert_blame_.size() <= from) cert_blame_.resize(from + 1, 0);
    ++cert_blame_[from];
    ++stats_.bad_certs_rejected;
  }

  /// Fault injection for kBadShares: corrupt every share this replica
  /// emits (flip the low bit of the field value — always invalid, since
  /// the correct value is unique). kImpersonateShares additionally claims
  /// the next replica's signer id on the garbage share, attacking the
  /// signer/sender binding that add_share enforces.
  crypto::PartialSig maybe_corrupt(crypto::PartialSig share) const {
    if (cfg_.fault.sends_bad_shares()) share.value ^= 1;
    if (cfg_.fault.impersonates_shares()) {
      share.signer = (share.signer + 1) % params_.n;
      share.value ^= 1;
    }
    return share;
  }

  // Ranking / endorsement ----------------------------------------------
  /// An f-QC is endorsed iff we know a coin-QC of its view electing its
  /// proposer (paper §3 "Endorsed Fallback-QC").
  bool is_endorsed(const smr::Certificate& cert) const;
  smr::Rank rank_of(const smr::Certificate& cert) const {
    return cert.rank(is_endorsed(cert));
  }
  /// A certificate "counts" for the commit rule: a regular QC or an
  /// endorsed f-QC.
  bool counts_for_commit(const smr::Certificate& cert) const;

  /// Install a coin-QC (must be pre-verified). Re-scans certificates of
  /// that view for newly committable chains. Returns true if new.
  bool install_coin(const smr::CoinQC& coin);
  const smr::CoinQC* coin_for(View view) const;

  // Certificates / commit ------------------------------------------------
  /// Record a certificate (pre-verified) and run the commit scanner from
  /// it. `hint` is who showed it to us (fetch target for missing bodies).
  void note_certificate(const smr::Certificate& cert, ReplicaId hint);

  /// qc_high <- max(qc_high, qc) by endorsement-aware rank.
  void update_qc_high(const smr::Certificate& qc);

  /// 2-chain lock rule (Figures 1/2): rank_lock <- max(rank_lock,
  /// parent(qc).rank). Needs the certified block's body; defers and
  /// fetches if missing.
  void lock_parent_rank(const smr::Certificate& qc, ReplicaId hint);

  /// 1-chain lock rule (Figure 4): rank_lock <- max(rank_lock, qc.rank).
  void lock_direct_rank(const smr::Certificate& qc);

  // Blocks ---------------------------------------------------------------
  /// True if the body is present; otherwise requests it from `hint` and
  /// returns false.
  bool ensure_block(const smr::BlockId& id, ReplicaId hint);

  /// Stores an id-consistent block and triggers deferred work. That work
  /// can commit, and a commit prunes the store: look the block up again
  /// (store().get) rather than holding a pointer across this call.
  void store_block(smr::Block block, ReplicaId from);

  // Environment ----------------------------------------------------------
  sim::IExecutor& sim() { return *sim_; }
  net::INetwork& net() { return *net_; }
  const crypto::CryptoSystem& crypto_sys() const { return *crypto_; }
  const QuorumParams& params() const { return params_; }
  const ProtocolConfig& config() const { return cfg_; }
  Rng& rng() { return rng_; }

  ReplicaId leader_of(Round round) const {
    return round_leader(round, params_.n, cfg_.leader_rotation);
  }

  const FaultSpec& fault() const { return cfg_.fault; }

  /// Report block creation to the harness (latency measurements).
  void note_block_born(const smr::BlockId& id) {
    if (on_block_born_) on_block_born_(id, sim_->now());
  }

  // Observability ---------------------------------------------------------
  /// Record an event at the current executor time; `key` is the block id
  /// prefix of block milestones. Free (one branch) when no ring
  /// is installed.
  void record(obs::EventKind kind, View view, Round round, std::uint64_t height = 0,
              std::uint64_t aux = 0, std::uint64_t key = 0) {
    if (trace_ && trace_->enabled()) {
      trace_->push({kind, id_, obs::kNoPeer, sim_->now(), 0, view, round, height, aux, key});
    }
  }

  /// Fallback-duration histogram installed by the harness (may be null).
  obs::Histogram* fallback_duration_hist() { return fallback_duration_hist_; }

  /// Transaction batch for the next proposed block, which extends
  /// `parent`: the application's payload source if one is installed, else
  /// the synthetic mempool. The source reads the parent through
  /// payload_parent(). The kInvalidTxns fault corrupts the batch (0xFF
  /// prefix) so external validity rejections can be exercised.
  Bytes next_payload(const smr::Certificate& parent) {
    payload_parent_ = parent.block_id;
    Bytes batch = payload_source_ ? payload_source_() : mempool_.next_batch();
    if (cfg_.fault.proposes_invalid_txns()) {
      batch.insert(batch.begin(), 0xFF);
    }
    return batch;
  }

  /// Paper §2 external validity: "adding validity checks on the
  /// transactions before the replicas proposing or voting".
  bool externally_valid(BytesView payload) const {
    return !cfg_.external_validator || cfg_.external_validator(payload);
  }

  /// kGhostChain behaviour: on each authenticated steady-state proposal
  /// for round r, multicast a fabricated three-block ancestor chain for r
  /// through the catch-up channel (BlockResponseMsg), its embedded parent
  /// certificates forged. Harmless while catch-up only stores blocks; a
  /// safety attack when unsafe_trust_catchup_blocks records those
  /// certificates. Called by the protocols' handle_proposal (no-op unless
  /// the fault is active).
  void maybe_forge_ghost_chain(const smr::Block& real);

  // Durability ------------------------------------------------------------
  /// Append a full vote-state snapshot to the WAL (no-op without one).
  /// Called by the protocol immediately *before* any message that the
  /// state change guards (votes, proposals) goes out.
  void persist_vote_state();

  /// Protocol-specific state appended to / restored from each snapshot.
  virtual void encode_extra_state(Encoder& enc) const { (void)enc; }
  virtual bool restore_extra_state(Decoder& dec) { (void)dec; return true; }

  /// Restore the last snapshot, if any. Subclass constructors call this
  /// (after their own members exist, so the virtual restore dispatches).
  /// Returns true if a snapshot was restored.
  bool recover_from_wal();

  /// kRoundWindow's two edges: rounds past the upper one are dropped on
  /// arrival, targets below the lower one are erased on each advance.
  bool beyond_round_window(Round r) const { return r > r_cur_ + kRoundWindow; }
  Round round_window_floor() const { return r_cur_ > kRoundWindow ? r_cur_ - kRoundWindow : 0; }

  // Mutable protocol state shared by all variants -------------------------
  Round r_vote_ = 0;                ///< highest voted round
  smr::Rank rank_lock_{};           ///< highest locked rank
  Round r_cur_ = 1;                 ///< current round
  View v_cur_ = 0;                  ///< current view
  smr::Certificate qc_high_;        ///< highest known QC (genesis initially)
  smr::BlockStore store_;
  smr::Ledger ledger_;
  ReplicaStats stats_;

 private:
  /// Post-decode delivery tail shared by every receive path: centralized
  /// block retrieval, then the protocol's handle_message.
  void deliver(ReplicaId from, smr::Message&& msg);
  void try_commit_from(const smr::Certificate& cert, ReplicaId hint);
  void defer_commit(const smr::BlockId& missing, const smr::Certificate& cert);
  void retry_deferred(const smr::BlockId& id, ReplicaId from);

  sim::IExecutor* sim_;
  net::INetwork* net_;
  std::shared_ptr<const crypto::CryptoSystem> crypto_;
  QuorumParams params_;
  ReplicaId id_;
  ProtocolConfig cfg_;
  Rng rng_;
  smr::Mempool mempool_;
  std::function<void(const smr::BlockId&, SimTime)> on_block_born_;
  std::function<Bytes()> payload_source_;
  smr::BlockId payload_parent_{};
  std::shared_ptr<obs::TraceRing> trace_;
  std::function<void(const smr::CommitRecord&)> on_commit_;
  obs::Histogram* fallback_duration_hist_ = nullptr;
  storage::Wal* wal_ = nullptr;
  bool recovered_ = false;
  bool halted_ = false;
  std::shared_ptr<smr::DecodeCache> dcache_;
  crypto::LagrangeCache lagrange_;
  smr::ShareStats share_stats_;
  /// Per-sender counts of relayed certificates that failed verification.
  std::vector<std::uint64_t> cert_blame_;

  /// Encode once and sign those bytes (smr::encode_signed); shared by
  /// send/multicast.
  SharedBytes encode_signed(smr::Message& msg);
  /// Multicast only: memoize the decoded form under the `payload` buffer,
  /// so its deliveries skip the parse.
  void seed_decode_cache(smr::Message&& msg, const SharedBytes& payload);

  /// kGhostChain: one forged chain per round.
  Round last_ghost_round_ = 0;

  std::map<View, InstalledCoin> coins_;
  std::unordered_set<smr::BlockId, smr::BlockIdHash> outstanding_fetches_;
  /// Certificates whose commit scan stalled on a missing block body.
  std::unordered_map<smr::BlockId, std::vector<smr::Certificate>, smr::BlockIdHash>
      waiting_commit_;
  /// Certificates whose parent-rank lock stalled on a missing body.
  std::unordered_map<smr::BlockId, std::vector<smr::Certificate>, smr::BlockIdHash>
      waiting_lock_;
};

}  // namespace repro::core
