// The replica interface every protocol variant implements, plus the
// environment handed to replicas at construction.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/config.h"
#include "crypto/dealer.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "smr/block_store.h"
#include "smr/decode_cache.h"
#include "smr/ledger.h"
#include "storage/wal.h"

namespace repro::core {

/// Everything a replica needs from its environment. The crypto system is
/// the trusted dealer's output, shared read-only.
struct ReplicaContext {
  sim::IExecutor* sim = nullptr;
  net::INetwork* net = nullptr;
  std::shared_ptr<const crypto::CryptoSystem> crypto;
  ReplicaId id = 0;
  ProtocolConfig config;
  std::uint64_t seed = 0;  ///< per-replica RNG stream seed

  /// Optional harness hook: invoked when this replica creates a block
  /// (latency experiments measure commit_time - birth_time).
  std::function<void(const smr::BlockId&, SimTime)> on_block_born;

  /// Optional application hook: supplies the transaction batch for each
  /// block this replica proposes (e.g. the replicated KV store example).
  /// Defaults to the synthetic mempool when unset.
  std::function<Bytes()> payload_source;

  /// Optional write-ahead log. When set, the replica makes its vote state
  /// durable before every vote/proposal and recovers it at construction,
  /// so a crash + restart can never make it equivocate. Not owned.
  storage::Wal* wal = nullptr;

  /// Decode-once delivery cache. The harness shares one instance across
  /// all replicas of a simulation (they receive the same broadcast bytes,
  /// so one decode serves n deliveries); when unset the replica builds a
  /// private cache of DecodeCache::kDefaultCapacity entries.
  std::shared_ptr<smr::DecodeCache> decode_cache;

  /// Optional certificate audit for the structural-lemma checker. The
  /// harness shares one across all replicas of a simulation (DESIGN.md
  /// §19.3); when unset, as on TCP nodes, the block store keeps live
  /// state only. Not owned.
  smr::CertAudit* audit = nullptr;

  /// Optional event sink (obs/trace.h). When set, the replica records its
  /// protocol milestones (proposals, votes, certificates, fallback
  /// transitions, commits) into this ring; when unset recording is free.
  std::shared_ptr<obs::TraceRing> trace;

  /// Optional harness hook: invoked once per record this replica commits
  /// (after the ledger append). Distinct from Ledger::set_commit_callback,
  /// which applications (kv_store, bftnode) already own.
  std::function<void(const smr::CommitRecord&)> on_commit;

  /// Optional latency histogram: completed fallback durations
  /// (enter -> coin exit) in microseconds land here. Not owned.
  obs::Histogram* fallback_duration_hist = nullptr;
};

/// Observable per-replica protocol counters (for experiments and tests).
///
/// Every field is a relaxed-atomic obs::Counter so the same storage can
/// be read live by the metrics registry / admin endpoint while the
/// protocol increments it; the struct remains the single source of truth
/// (register_replica_stats attaches pointers, it does not copy).
struct ReplicaStats {
  obs::Counter proposals_sent;
  obs::Counter votes_sent;
  obs::Counter timeouts_sent;
  obs::Counter fallbacks_entered;
  obs::Counter fallbacks_exited;
  obs::Counter blocks_fetched;
  /// Total simulated time spent inside fallbacks (enter -> exit), summed
  /// over completed fallbacks. Mean duration = total / fallbacks_exited.
  obs::Counter fallback_time_total_us;
  /// Decode-once delivery cache, counted per delivery at this replica: a
  /// hit reused an already-decoded message (no parse), a miss ran a full
  /// decode_message. With the harness-shared cache, one multicast costs
  /// one miss across all n replicas (the sender's encode pre-populates).
  obs::Counter decode_hits;
  obs::Counter decode_misses;
  /// Serializations performed by this replica's multicast() calls. The
  /// zero-copy data path encodes exactly once per multicast, so summed
  /// over replicas this equals NetStats::multicasts (the benches print
  /// the ratio as serializations/multicast = 1).
  obs::Counter multicast_encodes;
  /// Outgoing messages left out of the decode cache because a block they
  /// carry fails its id check (only a faulty sender builds one).
  obs::Counter cache_seeds_refused;
  /// Share accumulators (optimistic quorum assembly): per-share
  /// verify_share calls actually paid, shares buffered without immediate
  /// verification, certificates formed by a single combine-then-verify,
  /// combined checks that failed into the per-share fallback pass, and
  /// invalid shares evicted/rejected. In eager mode (lazy_share_verify
  /// off) shares_verified counts every accepted-or-rejected share and the
  /// optimistic/fallback counters stay 0.
  obs::Counter shares_verified;
  obs::Counter shares_deferred;
  obs::Counter combines_optimistic;
  obs::Counter combine_fallbacks;
  obs::Counter bad_shares_rejected;
  /// New quorum targets refused by a full share pool
  /// (smr::SharePool::kMaxTargets). Only a Byzantine flood of distinct
  /// targets gets there; honest runs read 0.
  obs::Counter share_targets_refused;
  /// Pipelined proposal path (DESIGN.md §12): batches this replica sealed
  /// as (upcoming) leader, optimistic pre-broadcasts sent, pulls issued
  /// for missing batches, pulls that exhausted their retry budget, and
  /// reference resolutions that hit / missed the local BatchStore.
  obs::Counter batches_sealed;
  obs::Counter batches_announced;
  obs::Counter batches_pulled;
  obs::Counter batch_pull_timeouts;
  obs::Counter batch_ref_hits;
  obs::Counter batch_ref_misses;
  /// Pull responses suppressed by the per-(peer, batch) cooldown — a
  /// nonzero count under honest load means peers are re-pulling faster
  /// than ReplicaBase::kBatchPullTimeoutUs, i.e. the cooldown is too short.
  obs::Counter batch_pushes_suppressed;
  /// Scale-out fallback optimizations (DESIGN.md §13): fallback votes
  /// suppressed because the chain already held a completed f-QC at that
  /// position; coin-QC re-multicasts skipped by non-designated relayers
  /// (both only where smr::relay_active(n)); and certificates whose
  /// threshold signature failed verification — rejected, with per-sender
  /// blame recorded (the Byzantine-adoption defense).
  obs::Counter fb_votes_thinned;
  obs::Counter coin_relays_suppressed;
  /// Coin shares not sent because the assembled coin-QC was already
  /// observed when our election triggered — the aggregate certificate
  /// supersedes the share (only where smr::relay_active(n)).
  obs::Counter coin_shares_suppressed;
  obs::Counter bad_certs_rejected;
};

/// Walk every ReplicaStats counter with its stable metric name. Single
/// enumeration point: registration, exports and tests all use this, so a
/// new field added here is automatically a registered metric.
template <typename Fn>
void for_each_counter(const ReplicaStats& s, Fn&& fn) {
  fn("repro_proposals_sent_total", &s.proposals_sent);
  fn("repro_votes_sent_total", &s.votes_sent);
  fn("repro_timeouts_sent_total", &s.timeouts_sent);
  fn("repro_fallbacks_entered_total", &s.fallbacks_entered);
  fn("repro_fallbacks_exited_total", &s.fallbacks_exited);
  fn("repro_blocks_fetched_total", &s.blocks_fetched);
  fn("repro_fallback_time_us_total", &s.fallback_time_total_us);
  fn("repro_decode_hits_total", &s.decode_hits);
  fn("repro_decode_misses_total", &s.decode_misses);
  fn("repro_multicast_encodes_total", &s.multicast_encodes);
  fn("repro_cache_seeds_refused_total", &s.cache_seeds_refused);
  fn("repro_shares_verified_total", &s.shares_verified);
  fn("repro_shares_deferred_total", &s.shares_deferred);
  fn("repro_combines_optimistic_total", &s.combines_optimistic);
  fn("repro_combine_fallbacks_total", &s.combine_fallbacks);
  fn("repro_bad_shares_rejected_total", &s.bad_shares_rejected);
  fn("repro_share_targets_refused_total", &s.share_targets_refused);
  fn("repro_batches_sealed_total", &s.batches_sealed);
  fn("repro_batches_announced_total", &s.batches_announced);
  fn("repro_batches_pulled_total", &s.batches_pulled);
  fn("repro_batch_pull_timeouts_total", &s.batch_pull_timeouts);
  fn("repro_batch_ref_hits_total", &s.batch_ref_hits);
  fn("repro_batch_ref_misses_total", &s.batch_ref_misses);
  fn("repro_batch_pushes_suppressed_total", &s.batch_pushes_suppressed);
  fn("repro_fb_votes_thinned_total", &s.fb_votes_thinned);
  fn("repro_coin_relays_suppressed_total", &s.coin_relays_suppressed);
  fn("repro_coin_shares_suppressed_total", &s.coin_shares_suppressed);
  fn("repro_bad_certs_rejected_total", &s.bad_certs_rejected);
}

/// Attach every counter of `s` to `reg` under a replica="<id>" label.
/// Re-registering the same replica id (restart) replaces the attachment.
inline void register_replica_stats(obs::Registry& reg, const ReplicaStats& s,
                                   ReplicaId id) {
  const obs::Labels labels{{"replica", std::to_string(id)}};
  for_each_counter(s, [&](const char* name, const obs::Counter* c) {
    reg.attach_counter(name, labels, c);
  });
}

class IReplica {
 public:
  virtual ~IReplica() = default;

  /// Begin the protocol (enter round 1). Call after network handlers are
  /// registered for all replicas.
  virtual void start() = 0;

  /// Deliver a raw network payload (the Network calls this).
  virtual void on_message(ReplicaId from, const Bytes& payload) = 0;

  /// Deliver a payload whose decode-cache content key the caller already
  /// computed. `key` MUST equal smr::DecodeCache::key_of(payload).
  /// Default: ignore the hint. ReplicaBase keeps the default — its
  /// on_message finds a seeded multicast buffer by address, not by key.
  virtual void on_message_keyed(ReplicaId from, const Bytes& payload,
                                const crypto::Digest& key) {
    (void)key;
    on_message(from, payload);
  }

  /// Deliver a payload that can never be a decode-cache hit: TCP peer
  /// frames arrive exactly once per connection, and a point-to-point
  /// buffer is delivered once, so hashing them to probe the cache (and
  /// inserting the decoded form nobody will look up again) is pure
  /// overhead on the protocol thread. Implementations decode and verify
  /// directly. Default: fall back to the cached path.
  virtual void on_message_uncached(ReplicaId from, const Bytes& payload) {
    on_message(from, payload);
  }

  /// Permanently silence this instance (crash simulation): pending timer
  /// callbacks and deliveries become no-ops. Used by the harness before
  /// replacing an instance with a WAL-recovered one.
  virtual void halt() = 0;

  /// Mutate this replica's fault behaviour mid-run (chaos schedules).
  /// Replaces the FaultSpec the replica was constructed with; protocol
  /// implementations react to edge transitions (a newly spamming replica
  /// starts its flood loop, an un-crashed one re-arms its round timer).
  /// Default: ignore (protocols without fault machinery).
  virtual void set_fault(const FaultSpec& fault) { (void)fault; }

  virtual ReplicaId id() const = 0;
  virtual const smr::Ledger& ledger() const = 0;
  virtual smr::Ledger& ledger() = 0;

  /// Introspection for tests / metrics.
  virtual Round current_round() const = 0;
  virtual View current_view() const = 0;
  virtual bool in_fallback() const = 0;
  virtual const ReplicaStats& stats() const = 0;

  /// Approximate bytes held by this replica's threshold-share pools
  /// (quorum-assembly accumulators). Feeds the repro_share_pool_bytes
  /// gauge; protocols without share pools report 0.
  virtual std::size_t share_pool_bytes() const { return 0; }
};

}  // namespace repro::core
