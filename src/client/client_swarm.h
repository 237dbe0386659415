// Client layer: the part of BFT SMR the paper omits "for brevity".
//
// A swarm of simulated clients submits each transaction to every replica,
// retries with backoff, and confirms a transaction once f+1 distinct
// replicas acknowledge it as committed — f+1 matching answers are the
// classic BFT client rule (at least one is honest). The swarm measures
// the client-perceived metrics a deployment cares about: end-to-end
// confirm latency and goodput, including through asynchronous periods.
//
// Transport: client<->replica RPC is simulated with its own delay
// sampling and byte accounting, deliberately separate from the replica
// Network so the protocol's communication-complexity measurements (which
// the literature counts among replicas only) stay undistorted.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/codec.h"
#include "common/rng.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "harness/experiment.h"

namespace repro::client {

using TxnId = crypto::Digest;

/// A transaction's id: the tagged hash of its body. Batches carry bodies
/// only, and every reader derives the ids with this one function, so an
/// id always agrees with the bytes it names.
TxnId txn_id(BytesView body);

struct TxnIdHash {
  std::size_t operator()(const TxnId& id) const {
    return static_cast<std::size_t>(crypto::digest_prefix_u64(id));
  }
};

struct ClientConfig {
  std::uint32_t num_clients = 8;
  std::size_t txn_bytes = 64;        ///< payload per transaction
  SimTime submit_interval = 50'000;  ///< per-client think time between txns
  /// First resend to the replicas that have not acked; the wait doubles
  /// after each resend.
  SimTime retry_timeout = 2'000'000;
  std::size_t max_batch_txns = 64;   ///< txns a proposer takes per block
  SimTime rpc_min_delay = 1'000;     ///< client<->replica link delay bounds
  SimTime rpc_max_delay = 20'000;
};

struct ClientStats {
  std::uint64_t submitted = 0;
  std::uint64_t confirmed = 0;
  /// Resends; each one reaches every replica that has not acked.
  std::uint64_t retries = 0;
  /// Client-to-replica messages: one per replica a submit or retry reaches.
  std::uint64_t requests = 0;
  /// Replica-to-client acks: one per txn copy a replica commits.
  std::uint64_t acks = 0;
  std::uint64_t rpc_bytes = 0;  ///< both directions
  /// Acks whose Merkle inclusion proof failed verification (0 unless a
  /// test injects corrupted acks).
  std::uint64_t bad_proofs = 0;
  std::vector<SimTime> confirm_latencies_us;
};

/// Shared submission pools: the bridge between clients and proposers.
/// Create it first, point ExperimentConfig::payload_factory at
/// make_payload_factory(), construct the Experiment, then attach the
/// swarm.
class TxnPools {
 public:
  /// A pool holds at most this many blocks' worth of txns. A replica that
  /// never commits (crashed) would otherwise collect every submit for
  /// ever; a txn it drops is still queued at the other replicas.
  static constexpr std::size_t kCapacityBatches = 128;
  /// A pool remembers this many blocks' worth of the ids its replica
  /// retired most recently, and refuses to queue them again.
  static constexpr std::size_t kRetiredBatches = 4;

  explicit TxnPools(std::uint32_t n, std::size_t max_batch_txns)
      : queues_(n), queued_ids_(n), retired_(n), max_batch_(max_batch_txns) {}

  /// Enqueue a transaction at each target replica's pool: one RPC that
  /// reaches them all, so the body is hashed once into its txn_id. A pool
  /// skips a txn it already holds or retired recently (a retry that raced
  /// the replica's commit). A full pool drops its oldest txn first.
  void submit(const std::vector<ReplicaId>& to, BytesView body);

  /// Commit-side: drop the txns of a block `replica` committed from its own
  /// pool, so it never proposes them again, and remember them in its
  /// retired window. Other pools are untouched: each replica drops its
  /// copies when it commits the block itself.
  void retire(ReplicaId replica, const std::vector<TxnId>& ids);

  /// Txns waiting in one replica's pool, and the most a pool holds.
  std::size_t size(ReplicaId r) const { return queues_[r].size(); }
  std::size_t capacity() const { return kCapacityBatches * max_batch_; }
  /// Whether replica `r`'s pool holds the txn.
  bool holds(ReplicaId r, const TxnId& id) const { return queued_ids_[r].contains(id); }

  /// Proposer-side: the oldest max_batch queued txns that the chain the new
  /// block extends does not already carry (see set_pending_ids), as a block
  /// payload. Nothing leaves the pool: a txn stays queued until its
  /// replica commits it, so a losing chain's txns are proposed again in
  /// the next view (DESIGN.md §20.5). Encoding: u32 count, then one
  /// length-prefixed body per txn (u32 length, bytes); no ids, since each
  /// id is txn_id(body) (DESIGN.md §20).
  Bytes next_batch(ReplicaId proposer);

  /// Appends to `out` the ids of the txns in the uncommitted blocks the
  /// proposer's new block extends. Returns false if the chain is cut (a
  /// block missing from the proposer's store): the proposer then cannot
  /// know what the chain carries, and the batch is empty.
  using PendingIds = std::function<bool(ReplicaId proposer, std::vector<TxnId>& out)>;
  /// Installed by ClientSwarm; a pool without one skips nothing.
  void set_pending_ids(PendingIds pending) { pending_ids_ = std::move(pending); }

  /// Decode the txn ids inside a committed block payload, deriving each
  /// from its body. A truncated payload yields the ids of its whole bodies.
  static std::vector<TxnId> decode_txn_ids(BytesView payload);

  /// Decode the raw txn payloads of a batch (Merkle leaves).
  static std::vector<Bytes> decode_txn_payloads(BytesView payload);

 private:
  struct Pending {
    TxnId id;
    Bytes payload;
  };
  std::vector<std::deque<Pending>> queues_;
  /// The ids in each queue, for O(1) dedup; mirrors queues_ exactly.
  /// A crashed replica's queue is never drained and stays full, where
  /// scanning it would be most of the run's CPU (DESIGN.md §18.3).
  std::vector<std::unordered_set<TxnId, TxnIdHash>> queued_ids_;
  /// The last kRetiredBatches * max_batch ids a replica retired, oldest
  /// first, and the same ids as a set.
  struct Retired {
    std::deque<TxnId> order;
    std::unordered_set<TxnId, TxnIdHash> ids;
  };
  std::vector<Retired> retired_;
  std::size_t max_batch_;
  PendingIds pending_ids_;
};

class ClientSwarm {
 public:
  /// Wires the swarm: registers commit callbacks on every replica,
  /// installs the pools' pending-chain view, and schedules each client's
  /// first submission at start().
  ClientSwarm(harness::Experiment& exp, std::shared_ptr<TxnPools> pools, ClientConfig cfg,
              std::uint64_t seed);

  /// Begin submitting (call after Experiment::start()).
  void start();

  const ClientStats& stats() const { return stats_; }

  /// Transactions submitted but not yet confirmed.
  std::size_t in_flight() const { return in_flight_.size(); }

 private:
  struct InFlight {
    std::uint32_t client = 0;
    SimTime submitted_at = 0;
    Bytes payload;
    std::set<ReplicaId> acks;  ///< replicas that reported commit
  };

  /// What the replicas share about one block's batch: its txn ids (read
  /// by every proposer whose pending chain holds the block, and by every
  /// committer) and, from its first commit on, the Merkle tree over its
  /// txn payloads. Both are a pure function of the payload bytes the block
  /// id binds, so each is derived once per block.
  struct BlockBatch {
    smr::BlockId block_id;
    std::vector<TxnId> ids;
    std::optional<crypto::MerkleTree> tree;  ///< built at the first commit
    std::uint32_t commits = 0;  ///< replicas that committed the block so far
  };
  /// An entry is dropped once all n replicas have committed its block; the
  /// cap bounds the memo when some never do (crashed, lagging, abandoned
  /// branches). A block needed after its entry is gone is simply rebuilt.
  static constexpr std::size_t kBatchMemoCap = 64;
  std::deque<BlockBatch>::iterator block_batch(const smr::Block& block);
  /// TxnPools::PendingIds: walks from the proposal's parent
  /// (ReplicaBase::payload_parent) back to the first block the proposer's
  /// ledger has committed.
  bool pending_ids(ReplicaId proposer, std::vector<TxnId>& out);

  void client_tick(std::uint32_t client);
  void submit_txn(std::uint32_t client);
  /// One RPC carrying the txn's body to every replica that has not acked.
  void send(const InFlight& fl);
  /// Resend to the replicas that have not acked after `delay`, then again
  /// after twice that, until the txn confirms.
  void arm_retry(const TxnId& id, SimTime delay);
  void on_commit(ReplicaId replica, const smr::Block& block);
  /// An ack carries the batch's Merkle root and an inclusion proof; the
  /// client verifies the proof against its own copy of the transaction
  /// before counting the ack toward the f+1 quorum. `block_key` is the
  /// digest prefix of the committing block, threaded through so the
  /// confirm span joins the block's commit-lifecycle chain.
  void deliver_ack(ReplicaId replica, const TxnId& id, std::uint64_t block_key,
                   const crypto::Digest& root, const crypto::MerkleProof& proof);
  SimTime rpc_delay();

  harness::Experiment& exp_;
  std::shared_ptr<TxnPools> pools_;
  ClientConfig cfg_;
  Rng rng_;
  ClientStats stats_;
  std::unordered_map<TxnId, InFlight, TxnIdHash> in_flight_;
  std::uint64_t txn_seq_ = 0;
  /// Oldest first; at most kBatchMemoCap entries.
  std::deque<BlockBatch> batch_memo_;
};

}  // namespace repro::client
