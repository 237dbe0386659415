// The event stream: one record type, one bounded ring, one NDJSON codec,
// one time-ordering merge, and the timeline analyzer (DESIGN.md §10).
//
// Event kinds follow the protocol's observable milestones (the paper's
// Figure 2 steady-state steps and Figure 4 fallback steps): proposals,
// votes, the four certificate types (QC / TC / f-TC / coin-QC), fallback
// entry/exit, f-block certification, chain adoption, leader election and
// block commit. Block milestones carry the block-id prefix as `key`, so
// the critical-path analyzer (obs/span.h) joins them across replicas.
// Four transport and client kinds (send-queue flush, socket read, client
// confirm, clock offset) complete the commit lifecycle; they exist only
// on TCP nodes and under simulated clients.
//
// Each event carries the executor timestamp and, in real-time runs, a
// wall-clock timestamp; the wall clock, `key` and `peer` are *omitted*
// from NDJSON when unset so that two identical seeded sim runs emit
// byte-identical streams (the determinism pins in the tests).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace repro::obs {

enum class EventKind : std::uint8_t {
  kViewEntered = 0,
  kProposalSent,      ///< key = block id, aux = transport key of the wire bytes
  kProposalReceived,  ///< key = block id, aux = sender
  kVoteSent,          ///< key = block id
  kQcFormed,          ///< key = block id
  kTcFormed,
  kFtcFormed,
  kCoinQcFormed,
  kFallbackEntered,
  kFallbackExited,
  kFBlockCertified,  ///< key = block id
  kChainAdopted,
  kLeaderElected,
  kBlockCommitted,  ///< key = block id (aux holds the same prefix)
  kBatchAnnounced,  ///< out-of-band batch pre-broadcast sent (aux = bytes, key = batch id)
  kBatchResolved,   ///< a batch-reference block's payload resolved locally
  kSendFlush,       ///< key = transport key, peer = destination, aux = queue wait us
  kSocketRead,      ///< key = transport key, peer = source, aux = frame bytes
  kClientConfirm,   ///< key = committing block id, aux = client confirm latency us
  kClockOffset,     ///< peer = measured replica, aux = bit-cast int64 offset us
};
inline constexpr std::size_t kEventKindCount = 20;

/// Stable wire name for an event kind (used in NDJSON `ev` field).
const char* event_name(EventKind k);
/// Inverse of event_name(); returns false if the name is unknown.
bool event_from_name(const std::string& name, EventKind* out);

/// "No peer" marker for TraceEvent::peer.
inline constexpr ReplicaId kNoPeer = 0xFFFFFFFFu;

struct TraceEvent {
  EventKind kind = EventKind::kViewEntered;
  ReplicaId replica = 0;
  ReplicaId peer = kNoPeer;   ///< transport events: the other endpoint
  SimTime t_us = 0;           ///< simulator (or executor) virtual time
  std::uint64_t wall_us = 0;  ///< CLOCK_REALTIME us; 0 in sim runs
  View view = 0;
  Round round = 0;
  std::uint64_t height = 0;   ///< fallback chain rank; 0 for steady-state
  std::uint64_t aux = 0;      ///< kind-specific payload (reason, leader, sender, bytes)
  std::uint64_t key = 0;      ///< correlation key (block id prefix, transport key); 0 = none

  bool operator==(const TraceEvent&) const = default;
};

/// Fallback-entry reasons carried in TraceEvent::aux for kFallbackEntered.
enum : std::uint64_t {
  kFallbackReasonFtc = 1,     ///< f-TC formed after timeouts (Figure 4 trigger)
  kFallbackReasonAlways = 2,  ///< always-fallback configuration (ACE/VABA mode)
};

/// Bounded event log. The hot path appends under a mutex; sim runs are
/// single-threaded and give each replica its own ring, a TCP process
/// shares one ring between its node threads and readers snapshot via
/// events(). When full, the oldest events are overwritten and `dropped`
/// counts the loss.
class TraceRing {
 public:
  /// `capacity` of 0 disables recording entirely (every push is a no-op),
  /// letting call sites keep unconditional record calls. `wall_clock`
  /// stamps wall_us from CLOCK_REALTIME — real-time runs only.
  explicit TraceRing(std::size_t capacity, bool wall_clock = false);

  void push(TraceEvent ev);
  bool enabled() const { return capacity_ != 0; }

  /// Oldest-first copy of the retained events.
  std::vector<TraceEvent> events() const;
  std::uint64_t recorded() const;  ///< total pushes, including overwritten
  std::uint64_t dropped() const;   ///< pushes that evicted an older event

  /// Bytes reserved by the ring (capacity is preallocated up front, so
  /// this is the commitment, not the fill level). Feeds the
  /// repro_trace_ring_bytes gauge and the n=300 memory budget.
  std::size_t approx_bytes() const { return sizeof(TraceRing) + capacity_ * sizeof(TraceEvent); }

 private:
  const std::size_t capacity_;
  const bool wall_clock_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  ///< write cursor once the ring is full
  std::uint64_t recorded_ = 0;
};

/// Serialize events as NDJSON, one object per line, stable key order:
/// {"ev":...,"replica":...,"t_us":...,["wall_us":...,]"view":...,
///  "round":...,"height":...,"aux":...[,"key":...][,"peer":...]}
/// wall_us and key are omitted when 0, peer when kNoPeer, keeping sim
/// streams deterministic.
std::string to_ndjson(const std::vector<TraceEvent>& events);

/// Parse NDJSON produced by to_ndjson (tolerates unknown keys and blank
/// lines; unknown `ev` names or malformed lines are skipped and counted).
/// Ring-health meta lines ("trace_meta") are skipped silently.
std::vector<TraceEvent> parse_ndjson(const std::string& text,
                                     std::size_t* bad_lines = nullptr);

/// Ring-health side channel: admin endpoints and forensics bundles append
/// one meta line per ring so downstream analyzers can tell a complete
/// window from one the ring overwrote. Never emitted by the seeded-sim
/// artifact writers (the determinism pins hash those streams).
struct TraceMeta {
  ReplicaId replica = 0;
  std::uint64_t dropped = 0;
  std::uint64_t recorded = 0;
};

/// {"trace_meta":1,"replica":R,"dropped":D,"recorded":N}\n
std::string trace_meta_line(const TraceMeta& meta);

/// Parses a single line; returns false unless it is a meta line.
bool parse_trace_meta_line(const std::string& line, TraceMeta* out);

/// Merge per-replica event streams into one global timeline ordered by
/// (t_us, replica, arrival index) — deterministic for identical inputs.
std::vector<TraceEvent> merge_traces(
    const std::vector<std::vector<TraceEvent>>& per_replica);

struct LatencyStats {
  std::uint64_t count = 0;
  double mean_us = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
};

/// Count, mean, p50 and p99 of `samples` into `out`.
void fill_latency(LatencyStats* out, std::vector<std::uint64_t> samples);

/// What tracecat reports: commit latency split by path, and the fallback
/// win rate measured against the paper's Lemma 7 bound of 2/3.
struct TraceReport {
  std::uint64_t events_total = 0;
  std::uint64_t counts[kEventKindCount] = {};  ///< indexed by EventKind

  /// Per-commit latency: earliest kProposalSent of a block key to the
  /// first kBlockCommitted of that key on any replica.
  LatencyStats steady;    ///< height == 0 commits
  LatencyStats fallback;  ///< height > 0 commits (certified f-blocks)

  std::uint64_t fallbacks_entered = 0;  ///< distinct views with kFallbackEntered
  std::uint64_t fallbacks_won = 0;      ///< of those, views that committed an f-block
  double win_rate = 0;                  ///< fallbacks_won / fallbacks_entered
  static constexpr double kPaperBound = 2.0 / 3.0;  ///< Lemma 7

  LatencyStats fallback_duration;  ///< kFallbackEntered -> kFallbackExited per view

  std::string summary() const;  ///< human-readable multi-line report
};

/// Analyze a merged timeline (see merge_traces).
TraceReport analyze_trace(const std::vector<TraceEvent>& merged);

}  // namespace repro::obs
