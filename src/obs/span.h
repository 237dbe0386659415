// Commit-lifecycle critical paths: cross-replica causal attribution of
// where a committed block's microseconds went, read off the event stream
// (obs/trace.h, DESIGN.md §10).
//
// Protocol milestones carry the block-id prefix as their key; the
// transport milestones (send-queue flush, socket read) carry a cheap
// content key of the proposal's wire bytes, and kProposalSent bridges
// the two by carrying both. No wire-format change: both sides derive the
// key from bytes they already hold.
//
// analyze_spans() stitches the events into one critical-path chain per
// committed block: proposal sent -> flush to the *critical* voter (the
// last vote that made the QC) -> that voter's read/receive/vote
// -> QC -> commit, telescoping so the stage sum accounts for the whole
// send->commit interval even when individual milestones are missing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "obs/trace.h"

namespace repro::obs {

/// Cheap 64-bit content key correlating transport events with the
/// kProposalSent bridge: FNV-1a over the first 96 payload bytes mixed
/// with the length. Deliberately not cryptographic — it runs on the
/// inline delivery path under the <5% overhead gate, and a collision
/// merely mislabels one event.
std::uint64_t span_key_of(const std::uint8_t* data, std::size_t size);
inline std::uint64_t span_key_of(BytesView v) { return span_key_of(v.data(), v.size()); }

/// Map every event's time into the reference clock of the lowest replica
/// id present, using the kClockOffset measurements in the stream (each
/// records, at `replica`, the estimated offset of the `peer` replica's
/// clock relative to its own; the last estimate per pair wins — senders
/// only publish min-RTT-improved samples). Events from replicas with no
/// offset path to the reference are left unadjusted. Returns the number
/// of replicas adjusted.
std::size_t apply_clock_offsets(std::vector<TraceEvent>& events);

/// One committed block's critical path. Milestone timestamps are 0 when
/// the corresponding event was not captured; stages between two present
/// milestones telescope so the stage sum always spans send -> commit.
struct SpanChain {
  std::uint64_t key = 0;  ///< block-id prefix
  View view = 0;
  Round round = 0;
  std::uint64_t height = 0;  ///< 0 steady, >0 fallback
  ReplicaId proposer = 0;
  ReplicaId critical = 0;  ///< the voter whose vote completed the QC

  /// Milestones, reference-clock us: proposal sent, flush, read,
  /// received, vote, qc, commit (0 = not captured; [0] and [6] always set).
  static constexpr std::size_t kMilestones = 7;
  std::uint64_t t[kMilestones] = {};

  /// Stage durations between consecutive *present* milestones; stage i
  /// ends at milestone i+1. A stage whose start milestone is missing is
  /// folded into the next present one; negative clock skews clamp to 0.
  std::uint64_t stage_us[kMilestones - 1] = {};
  bool stage_set[kMilestones - 1] = {};

  std::uint64_t total_us = 0;  ///< t[6] - t[0]
  double coverage = 0;         ///< sum(stage_us) / total_us (1.0 when monotone)
};

/// Human-readable stage name for SpanChain::stage_us index (0..5).
const char* span_chain_stage_name(std::size_t i);

struct SpanReport {
  std::size_t events_total = 0;
  std::uint64_t dropped = 0;      ///< ring evictions summed over the input
  std::size_t commits_seen = 0;   ///< distinct committed block keys
  std::vector<SpanChain> chains;  ///< commits with a matching proposal record

  LatencyStats stage_steady[SpanChain::kMilestones - 1];
  LatencyStats stage_fallback[SpanChain::kMilestones - 1];
  LatencyStats total_steady;
  LatencyStats total_fallback;
  LatencyStats commit_to_confirm;  ///< kBlockCommitted -> first kClientConfirm per block

  double coverage_mean = 0;
  double coverage_min = 0;
  std::size_t clock_pairs = 0;  ///< (replica, peer) offset pairs applied

  std::string summary() const;  ///< per-stage p50/p99 table, steady vs fallback
};

/// Stitch an event stream (any order; clock offsets applied internally)
/// into per-commit critical-path chains. Events stamped with a wall clock
/// are placed by it: the executor clocks of separate nodes do not agree.
SpanReport analyze_spans(std::vector<TraceEvent> events);

/// Perfetto/chrome://tracing JSON: one duration event per critical-path
/// stage per commit (pid = 0, tid = the replica executing the stage) plus
/// instant events for QC formation and commit.
std::string chrome_trace_json(const SpanReport& report);

}  // namespace repro::obs
