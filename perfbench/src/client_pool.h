// Open-loop client model for the TCP workloads.
//
// Transactions arrive on a seeded Poisson schedule and every transaction
// is submitted to every replica: each replica has its own lane of the
// pool. A proposer's payload_source hook takes every transaction in its
// lane whose due time has passed, skipping transactions that are already
// confirmed or that this replica has already committed. Each replica's
// on_commit hook reports the transactions it committed; a transaction is
// confirmed once f+1 replicas have committed it, and its latency runs from
// its due time. A transaction a replica drained but has not seen committed
// within the resubmit timeout goes back to that replica's lane with its
// original due time (blocks of fallback chains that lose the coin are
// discarded together with their payloads). Each timeout is the nominal one
// scaled by a seeded factor in [0.5, 1.5): with one fixed period, tail
// latencies pile up on its multiples and p99 jumps between them from run
// to run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/types.h"

namespace perfbench {

inline constexpr std::size_t kTxnBytes = 128;

/// The 128 bytes of transaction `id` under arrival seed `seed`: the id
/// (u64 little-endian) followed by 120 seeded pseudo-random bytes.
void make_txn(std::uint64_t seed, std::uint64_t id, std::uint8_t* out);

class ClientPool {
 public:
  struct Txn {
    std::int64_t due_us = 0;
    std::int64_t first_drain_us = -1;
    std::int64_t confirm_us = -1;
    std::uint32_t resubmits = 0;
    std::uint32_t committed_mask = 0;
  };

  ClientPool(std::uint64_t seed, double rate_per_s, std::int64_t resubmit_timeout_us,
             std::uint32_t confirm_quorum);

  /// Arrivals start at `epoch_us` and stop (no transaction is due at or
  /// after the cut-off) once stop_arrivals() is called.
  void start(std::int64_t epoch_us);
  void stop_arrivals(std::int64_t at_us);

  /// payload_source of `replica`: every due transaction of its lane plus
  /// every resubmission.
  repro::Bytes drain(std::int64_t now_us, repro::ReplicaId replica);

  /// on_commit: transactions of one committed block at `replica`.
  void on_commit(repro::ReplicaId replica, repro::BytesView txns, std::int64_t now_us);

  /// Transactions due in [from, to) that are not yet confirmed.
  std::uint64_t unconfirmed_between(std::int64_t from_us, std::int64_t to_us) const;

  /// Snapshot of every transaction generated so far (call when quiescent).
  std::vector<Txn> snapshot() const;

  // Correctness-check tallies (monotone, thread-safe reads).
  std::uint64_t bad_block_sizes() const { return bad_sizes_.load(); }
  std::uint64_t bad_txn_bytes() const { return bad_bytes_.load(); }
  std::uint64_t unknown_ids() const { return unknown_ids_.load(); }

  /// Transaction copies committed at `replica` in total, and copies whose
  /// id that replica had already committed (duplicates of resubmissions).
  std::uint64_t committed_copies(repro::ReplicaId replica) const;
  std::uint64_t duplicate_copies(repro::ReplicaId replica) const;

 private:
  void generate_until(std::int64_t now_us);  // mu_ held
  /// When a transaction `replica` drains now comes back if still pending.
  std::int64_t resubmit_deadline(std::int64_t now_us, std::uint64_t id,
                                 repro::ReplicaId replica) const;  // mu_ held

  const std::uint64_t seed_;
  const double mean_gap_us_;
  const std::int64_t resubmit_timeout_us_;
  const std::uint32_t quorum_;

  mutable std::mutex mu_;
  repro::Rng arrivals_;
  std::int64_t next_due_us_ = 0;
  std::int64_t stop_us_ = INT64_MAX;
  std::vector<Txn> txns_;                  // index = transaction id
  using Deadline = std::pair<std::int64_t, std::uint64_t>;  // (resubmit at, id)
  struct Lane {
    std::size_t next_undrained = 0;  // first id this replica never drained
    std::priority_queue<Deadline, std::vector<Deadline>, std::greater<>> in_flight;
  };
  std::vector<Lane> lanes_ = std::vector<Lane>(32);
  std::atomic<std::uint64_t> generated_{0};
  std::vector<std::uint64_t> committed_copies_ = std::vector<std::uint64_t>(32, 0);
  std::vector<std::uint64_t> duplicate_copies_ = std::vector<std::uint64_t>(32, 0);

  std::atomic<std::uint64_t> bad_sizes_{0};
  std::atomic<std::uint64_t> bad_bytes_{0};
  std::atomic<std::uint64_t> unknown_ids_{0};
};

}  // namespace perfbench
