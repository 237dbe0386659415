// Deterministic chaos fuzzer (DESIGN.md §14): a single 64-bit seed
// expands into a timed fault schedule — mid-run corruption and clearing
// under the ≤f budget, crash/restart churn through the WAL recovery
// path, dynamic partitions, WAN-style heavy-tail latency phases and
// adaptive leader-targeting windows — executed against the simulated
// system with machine-checked invariants (Lemmas 1–3 at every commit,
// ledger prefix-consistency and the Lemma 7 win-rate accounting at the
// end). A failing schedule is shrunk ddmin-style to a minimal
// reproducer and serialized as a replayable JSON artifact whose trace
// sha256 pins the exact failing execution.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace repro::harness {

/// The one token table for core::FaultKind ("none", "crash", "mute",
/// "equiv", ...): replay artifacts, bftlab --faults and the property-sweep
/// test names all spell faults this way.
const char* fault_token(core::FaultKind k);
/// Inverse of fault_token(); false (and *out untouched) on an unknown token.
bool parse_fault_token(const std::string& s, core::FaultKind* out);

/// One timed mutation of the running system.
struct ChaosEvent {
  enum class Kind : std::uint8_t {
    kSetFault,      ///< corrupt `replica` with `fault` (≤f budget enforced)
    kClearFault,    ///< set `replica` back to FaultKind::kNone
    kRestart,       ///< crash + WAL-recover `replica`
    kPartition,     ///< split [0, cut) vs [cut, n) for `duration`
    kLeaderAttack,  ///< starve current leaders for `duration`
  };
  Kind kind = Kind::kSetFault;
  SimTime at = 0;         ///< absolute sim time, microseconds
  ReplicaId replica = 0;  ///< target (fault / restart events)
  core::FaultKind fault = core::FaultKind::kNone;
  std::uint32_t cut = 1;  ///< partition split point
  SimTime duration = 0;   ///< partition / attack window length
};

/// One network regime, active from `start` until the next phase: either
/// synchronous (delays uniform in [1ms, mean_us]) or heavy-tailed
/// (exponential with mean mean_us, capped at 4x — the adversarial
/// asynchrony that forces fallbacks).
struct NetPhase {
  SimTime start = 0;
  bool heavy = false;
  SimTime mean_us = 50'000;
};

/// A complete, self-describing run: pure function of these fields. The
/// same schedule always produces the same trace (expect_trace_sha256
/// pins it for --replay).
struct ChaosSchedule {
  std::uint32_t version = 1;
  std::uint64_t seed = 0;  ///< Experiment seed (crypto, network, replicas)
  std::uint32_t n = 4;
  Protocol protocol = Protocol::kFallback3;
  SimTime horizon_us = 60'000'000;
  std::size_t commit_target = 25;
  std::uint64_t base_timeout_us = 400'000;
  std::uint32_t batch_bytes = 0;  ///< payload bytes per block
  /// TEST-ONLY: run with the planted catch-up certificate hole open (see
  /// ProtocolConfig::unsafe_trust_catchup_blocks).
  bool plant_catchup_cert_hole = false;
  std::vector<NetPhase> phases;
  std::vector<ChaosEvent> events;
  /// Trace sha256 of the failing run this artifact reproduces; filled
  /// when a failure is serialized, verified byte-for-byte by --replay.
  std::string expect_trace_sha256;
};

/// Outcome of executing one schedule.
struct ChaosResult {
  bool ok = true;
  std::string failure;       ///< first violation detail
  std::string failure_kind;  ///< "invariant" | "safety"
  SimTime failure_time_us = 0;
  std::size_t commits = 0;  ///< min honest commit count
  bool reached_target = false;
  std::uint64_t fallbacks_entered = 0;  ///< Lemma 7 accounting
  std::uint64_t fallbacks_won = 0;
  double win_rate = 0.0;
  /// Certified blocks the end-of-run invariant check could not find in
  /// any honest store or audit log (InvariantReport).
  std::size_t certified_blocks_unchecked = 0;
  std::string trace_sha256;
  /// Flight-recorder bundle written for a failing run (empty unless the
  /// run failed and a forensics dir was given).
  std::string forensics_path;
};

struct ChaosGenOptions {
  bool plant_catchup_cert_hole = false;
  SimTime horizon_us = 60'000'000;
};

/// Expand a seed into a schedule. Same (seed, options) -> same schedule.
ChaosSchedule generate_schedule(std::uint64_t seed, const ChaosGenOptions& opt = {});

/// Execute a schedule: build the Experiment (WAL on, tracing on), apply
/// every event at its time, check invariants at every commit, then the
/// end-to-end safety report and trace analysis. Deterministic. When
/// `forensics_dir` is non-empty, commit-lifecycle spans are recorded too
/// and a failing run dumps a flight-recorder bundle (trace + span +
/// metrics snapshots) under that directory; see ChaosResult::forensics_path.
ChaosResult run_schedule(const ChaosSchedule& s, const std::string& forensics_dir = "");

// ---- replay artifacts --------------------------------------------------
std::string schedule_to_json(const ChaosSchedule& s);
std::optional<ChaosSchedule> schedule_from_json(const std::string& json);

// ---- shrinking ---------------------------------------------------------
struct ShrinkOutcome {
  ChaosSchedule schedule;  ///< minimal schedule still reproducing a failure
  ChaosResult result;      ///< that schedule's (failing) result
  std::size_t runs = 0;    ///< candidate executions spent
};

/// Minimize a failing schedule: drop events after the failure point,
/// ddmin the event list, simplify the network phases, lower n, truncate
/// the horizon. A candidate counts as reproducing if it fails at all
/// (same bug class, not necessarily the identical message). Bounded by
/// `max_runs` candidate executions.
ShrinkOutcome shrink_schedule(const ChaosSchedule& failing, const ChaosResult& failure,
                              std::size_t max_runs = 200);

// ---- the sweep ---------------------------------------------------------
struct FuzzFailure {
  std::uint64_t seed = 0;
  ChaosSchedule shrunk;  ///< expect_trace_sha256 already pinned
  ChaosResult result;
  std::size_t shrink_runs = 0;
  std::string forensics_path;  ///< bundle for the shrunk repro (may be empty)
};

struct FuzzStats {
  std::size_t runs = 0;
  std::size_t failures = 0;
  std::size_t targets_reached = 0;
  std::uint64_t fallbacks_entered = 0;
  std::uint64_t fallbacks_won = 0;
  std::size_t certified_blocks_unchecked = 0;  ///< summed over runs
  std::vector<FuzzFailure> found;
};

class ChaosFuzzer {
 public:
  struct Options {
    std::uint64_t seed0 = 1;
    std::size_t seeds = 50;
    ChaosGenOptions gen;
    bool shrink = true;
    std::size_t shrink_budget = 200;
    /// Wall-clock budget in milliseconds; 0 = unlimited. The sweep stops
    /// after the current seed once exceeded (CI time box). Note this is
    /// the one intentionally non-deterministic knob: it bounds how many
    /// seeds run, never what any individual seed does.
    std::uint64_t wall_limit_ms = 0;
    /// Non-empty: every shrunk repro is re-executed with span recording
    /// on and its flight-recorder bundle written under this directory.
    std::string forensics_dir;
  };

  explicit ChaosFuzzer(Options opt) : opt_(std::move(opt)) {}

  /// Run seeds [seed0, seed0 + seeds); shrink and record every failure.
  /// `on_progress` (optional) is called after each seed with its result.
  FuzzStats run(const std::function<void(std::uint64_t, const ChaosResult&)>& on_progress = {});

 private:
  Options opt_;
};

}  // namespace repro::harness
