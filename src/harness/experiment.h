// Experiment harness: builds an n-replica system over a chosen network
// model, runs it to a commit target or time horizon, and checks the
// paper's two SMR guarantees — Safety (honest ledgers prefix-consistent)
// and Liveness (honest replicas keep committing).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/protocol.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace repro::harness {

/// Network scenarios used across experiments.
enum class NetScenario {
  kSynchronous,       ///< uniform [min, Δ]
  kAsynchronous,      ///< heavy exponential delays >> timeout (stochastic)
  kPartialSynchrony,  ///< async until GST, then synchronous
  kLeaderAttack,      ///< adaptive adversary starving current leaders
};

struct ExperimentConfig {
  std::uint32_t n = 4;
  Protocol protocol = Protocol::kFallback3;
  NetScenario scenario = NetScenario::kSynchronous;
  std::uint64_t seed = 1;
  core::ProtocolConfig pcfg;

  // Network timing (microseconds).
  SimTime net_min_delay = 1'000;
  SimTime net_delta = 50'000;          ///< Δ under synchrony
  SimTime async_mean = 2'000'000;      ///< mean delay under asynchrony
  SimTime async_max = 8'000'000;       ///< delay cap (reliability)
  SimTime gst = 10'000'000;            ///< GST for partial synchrony
  SimTime attack_delay = 20'000'000;   ///< leader-attack deferral

  /// Custom delay model factory; overrides `scenario` when set.
  std::function<std::unique_ptr<net::DelayModel>()> make_delay;

  /// Faults: replica id -> fault. At most f replicas should be faulty.
  std::unordered_map<ReplicaId, core::FaultKind> faults;

  /// Optional application payload source, called as payload_factory(id)
  /// each time replica `id` proposes a block (see examples/kv_store.cpp).
  std::function<Bytes(ReplicaId)> payload_factory;

  /// Give every replica a write-ahead log (in-memory, owned by the
  /// Experiment) so restart_replica() can crash-recover it.
  bool enable_wal = false;

  /// Event ring capacity per replica (DESIGN.md §10); 0 disables
  /// recording (the replicas then skip it entirely). Rings preallocate
  /// capacity * sizeof(obs::TraceEvent) up front.
  std::size_t trace_capacity = 0;

  /// Optional harness-level commit hook, invoked after the latency
  /// histogram for every record any replica commits. The chaos fuzzer
  /// hangs its per-commit invariant check here.
  std::function<void(ReplicaId, const smr::CommitRecord&)> on_commit;
};

/// Result of the pairwise ledger prefix-consistency check.
struct SafetyReport {
  bool ok = true;
  std::string detail;  ///< first violation found, if any
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);

  /// Starts all replicas (round 1 begins).
  void start();

  /// Simulate a crash + restart of one replica: the old instance (and all
  /// its in-memory state) is destroyed and a fresh one is built, which
  /// recovers its vote state from the WAL and catches up on the chain
  /// through block retrieval. In-flight messages addressed to it are
  /// delivered to the new instance, and the old ledger's commit callback
  /// carries over to the new ledger (which starts empty, so the callback
  /// sees the blocks it commits again). Returns false — a recoverable
  /// error, not an abort — when the id is out of range or the experiment runs
  /// without a WAL (a restart would then be an amnesia crash, which the
  /// protocol's durability story does not cover; generated churn
  /// schedules skip the event instead of killing the process).
  bool restart_replica(ReplicaId id);

  /// Mutate one replica's fault behaviour mid-run. Enforces the ≤f
  /// corruption budget over the run's *history*: a replica that was ever
  /// faulty stays inside the budget forever (clearing a fault never frees
  /// a slot — a once-corrupted replica cannot be retroactively trusted),
  /// and corrupting a fresh replica is refused once f distinct replicas
  /// have been faulty. Returns false if refused (budget or bad id).
  bool set_fault(ReplicaId id, core::FaultKind kind);

  /// Schedule set_fault(id, kind) at absolute sim time `at`.
  void set_fault(ReplicaId id, core::FaultKind kind, SimTime at);

  /// Replicas that have ever been faulty (static map or dynamic
  /// set_fault). The ≤f budget and is_honest() judge against this.
  std::size_t ever_faulty_count() const;

  /// Run until every honest replica has committed >= target blocks, the
  /// virtual clock passes `max_time`, or the event queue drains. Returns
  /// true iff the commit target was reached.
  bool run_until_commits(std::size_t target, SimTime max_time);

  /// Run for a fixed duration of virtual time.
  void run_for(SimTime duration);

  // ---- metrics / checks ------------------------------------------------
  /// Minimum committed-block count across honest replicas ("decisions").
  std::size_t min_honest_commits() const;
  std::size_t max_honest_commits() const;

  SafetyReport check_safety() const;

  /// Commit latency samples (commit_time - block birth_time) observed at
  /// the given replica, in microseconds.
  std::vector<SimTime> commit_latencies(ReplicaId id) const;

  bool is_honest(ReplicaId id) const;

  // ---- observability ---------------------------------------------------
  /// The experiment's metrics registry: every ReplicaStats / NetStats
  /// counter plus the commit-latency and fallback-duration histograms,
  /// served directly from protocol storage (attach, not copy).
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }

  /// Merged global timeline of every replica's event ring, ordered by
  /// (time, replica). Empty unless cfg.trace_capacity > 0.
  std::vector<obs::TraceEvent> trace_events() const;

  /// NDJSON of the merged timeline (deterministic for identical runs).
  std::string traces_ndjson() const;

  /// Replica `id`'s event ring, or null when recording is off. Simulated
  /// clients record their confirms into the acking replica's ring.
  obs::TraceRing* trace_ring(ReplicaId id) const {
    return traces_.empty() ? nullptr : traces_[id].get();
  }

  /// Write the merged NDJSON trace / a registry metrics snapshot to a
  /// file. Returns false on I/O failure.
  bool write_traces(const std::string& path) const;
  bool write_metrics(const std::string& path) const;

  sim::Simulation& sim() { return sim_; }
  net::Network& network() { return *net_; }
  /// The system-wide certificate audit every replica's store reports to
  /// (DESIGN.md §19.3); check_invariants reads it. It outlives
  /// restart_replica.
  const smr::CertAudit& audit() const { return audit_; }
  smr::CertAudit& audit() { return audit_; }
  const crypto::CryptoSystem& crypto_sys() const { return *crypto_; }
  core::IReplica& replica(ReplicaId id) { return *replicas_[id]; }
  const core::IReplica& replica(ReplicaId id) const { return *replicas_[id]; }
  std::uint32_t n() const { return cfg_.n; }
  const ExperimentConfig& config() const { return cfg_; }

 private:
  std::unique_ptr<net::DelayModel> build_delay_model();

  ExperimentConfig cfg_;
  sim::Simulation sim_;
  std::shared_ptr<const crypto::CryptoSystem> crypto_;
  std::unique_ptr<net::Network> net_;
  std::shared_ptr<smr::DecodeCache> decode_cache_;
  smr::CertAudit audit_;
  net::AdaptiveLeaderAttackModel* attack_model_ = nullptr;  ///< owned by net_
  std::vector<std::unique_ptr<core::IReplica>> replicas_;
  std::vector<core::ReplicaContext> ctxs_;
  /// Ever-faulty markers (see ever_faulty_count); index = replica id.
  std::vector<char> ever_faulty_;
  std::vector<std::unique_ptr<storage::MemWal>> wals_;
  /// Halted pre-restart instances (kept alive for their queued timers).
  std::vector<std::unique_ptr<core::IReplica>> parked_;
  /// Block id -> creation time (filled by the replicas' birth hook).
  std::unordered_map<smr::BlockId, SimTime, smr::BlockIdHash> births_;
  obs::Registry registry_;
  /// Per-replica event rings (empty when recording is disabled).
  std::vector<std::shared_ptr<obs::TraceRing>> traces_;
  obs::Histogram* commit_latency_hist_ = nullptr;    ///< owned by registry_
  obs::Histogram* fallback_duration_hist_ = nullptr; ///< owned by registry_
};

}  // namespace repro::harness
