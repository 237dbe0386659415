// Commit-lifecycle spans: cross-replica causal attribution of where a
// committed block's microseconds went.
//
// Every lifecycle milestone — batch announce, proposal encode, send-queue
// flush, socket read, handler dispatch, vote send, QC formation, commit,
// client confirm — is recorded as a SpanEvent keyed
// by a 64-bit correlation key (block-id prefix for protocol milestones,
// a cheap payload content hash for transport milestones, bridged by the
// kProposalEncode record which carries both). No wire-format change:
// both sides derive the key from bytes they already hold.
//
// The hot path is a lock-free multi-writer ring of seqlock-style slots
// (all-atomic words, relaxed stores; TSan-clean). Capacity 0 disables
// everything — call sites keep unconditional span() calls, and spans-off
// seeded sim runs stay byte-identical to the seed traces (the span stream
// is fully separate from the TraceRing NDJSON the determinism pins hash).
//
// analyze_spans() stitches the events into one critical-path chain per
// committed block: proposer encode -> flush to the *critical* voter (the
// last vote that made the QC) -> that voter's read/dispatch/vote
// -> QC -> commit, telescoping so the stage sum accounts for the whole
// encode->commit interval even when individual milestones are missing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "obs/trace.h"

namespace repro::obs {

enum class SpanStage : std::uint8_t {
  kBatchAnnounce = 0,  ///< key = batch-id prefix, aux = batch bytes
  kProposalEncode,     ///< key = block-id prefix, aux = payload span key (the bridge)
  kSendFlush,          ///< key = payload span key, peer = dest, aux = queue-wait us
  kSocketRead,         ///< key = payload span key, peer = source, aux = frame bytes
  kDispatch,           ///< key = block-id prefix (proposal entered the handler)
  kVoteSend,           ///< key = block-id prefix, aux = fallback height
  kQcFormed,           ///< key = block-id prefix, aux = fallback height
  kCommit,             ///< key = block-id prefix, aux = fallback height
  kClientConfirm,      ///< key = block-id prefix, aux = client confirm latency us
  kClockOffset,        ///< key = peer id, aux = bit-cast int64 offset us (peer-local)
};
inline constexpr std::size_t kSpanStageCount = 10;

/// Stable wire name for a span stage (NDJSON `stage` field).
const char* span_stage_name(SpanStage s);
/// Inverse of span_stage_name(); returns false if the name is unknown.
bool span_stage_from_name(const std::string& name, SpanStage* out);

/// "No peer" marker. Peer ids are packed into 24 bits (committees top out
/// at n=300), so the all-ones pattern is reserved.
inline constexpr ReplicaId kSpanNoPeer = 0xFFFFFFu;

struct SpanEvent {
  SpanStage stage = SpanStage::kBatchAnnounce;
  ReplicaId replica = 0;
  ReplicaId peer = kSpanNoPeer;  ///< transport spans: the other endpoint
  std::uint64_t t_us = 0;        ///< sim time, or CLOCK_REALTIME us in wall mode
  std::uint64_t key = 0;         ///< correlation key (see SpanStage docs)
  View view = 0;
  Round round = 0;
  std::uint64_t aux = 0;

  bool operator==(const SpanEvent& o) const {
    return stage == o.stage && replica == o.replica && peer == o.peer &&
           t_us == o.t_us && key == o.key && view == o.view &&
           round == o.round && aux == o.aux;
  }
};

/// Cheap 64-bit content key correlating transport spans with the
/// kProposalEncode bridge record: FNV-1a over the first 96 payload bytes
/// mixed with the length. Deliberately not cryptographic — it runs on the
/// inline delivery path under the <5% overhead gate, and a collision
/// merely mislabels one span.
std::uint64_t span_key_of(const std::uint8_t* data, std::size_t size);
inline std::uint64_t span_key_of(BytesView v) { return span_key_of(v.data(), v.size()); }

/// Lock-free bounded span log shared by every writer thread in a process
/// (node threads, client swarm). Each slot is a
/// seqlock: writers claim a ticket with one relaxed fetch_add, invalidate
/// the slot, store the packed payload words relaxed, then publish the
/// sequence with a release store. Readers validate the sequence before
/// and after copying and drop torn slots. Capacity 0 disables recording
/// entirely (push returns before touching any atomic but the flag).
class SpanRing {
 public:
  /// `capacity` is rounded up to a power of two; 0 disables. `wall_clock`
  /// stamps t_us from CLOCK_REALTIME on push — real-time runs only; sim
  /// runs pass virtual time explicitly for determinism.
  explicit SpanRing(std::size_t capacity, bool wall_clock = false);

  bool enabled() const { return capacity_ != 0; }
  bool wall_clock() const { return wall_clock_; }

  void push(SpanEvent ev);

  /// Oldest-first snapshot of retained events. Concurrent writers may tear
  /// or overwrite slots mid-read; such slots are skipped, never misread.
  std::vector<SpanEvent> events() const;

  std::uint64_t recorded() const;  ///< total pushes, including overwritten
  std::uint64_t dropped() const;   ///< pushes that evicted an older event
  std::size_t capacity() const { return capacity_; }

  /// The up-front memory commitment (feeds the memory-budget gauges).
  std::size_t approx_bytes() const { return sizeof(SpanRing) + capacity_ * sizeof(Slot); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< ticket+1 when words are valid
    std::atomic<std::uint64_t> w[5] = {};
  };

  std::size_t capacity_ = 0;  ///< power of two (or 0 = disabled)
  std::uint64_t mask_ = 0;
  bool wall_clock_ = false;
  std::atomic<std::uint64_t> head_{0};
  std::unique_ptr<Slot[]> slots_;
};

/// Serialize span events as NDJSON, one object per line, stable key order:
/// {"stage":...,"replica":...,"t_us":...,"key":...[,"view":...][,"round":...]
///  [,"aux":...][,"peer":...]} — optional fields omitted when zero (peer:
/// when kSpanNoPeer), so identical seeded runs emit identical bytes.
std::string spans_to_ndjson(const std::vector<SpanEvent>& events);

/// Parse NDJSON produced by spans_to_ndjson. Lines without a `stage` field
/// (trace events, meta lines, blanks) are skipped silently; lines that
/// claim to be spans but fail to parse are counted in `bad_lines`.
std::vector<SpanEvent> parse_spans_ndjson(const std::string& text,
                                          std::size_t* bad_lines = nullptr);

/// Sort a combined multi-replica span stream into one deterministic
/// timeline ordered by (t_us, replica, stage, key).
void sort_spans(std::vector<SpanEvent>& events);

/// Map every event's t_us into the reference clock of the lowest replica
/// id present, using the kClockOffset measurements in the stream (each
/// records, at `replica`, the estimated offset of `key`-identified peer's
/// clock relative to its own; the last estimate per pair wins — senders
/// only publish min-RTT-improved samples). Events from replicas with no
/// offset path to the reference are left unadjusted. Returns the number
/// of replicas adjusted.
std::size_t apply_clock_offsets(std::vector<SpanEvent>& events);

/// One committed block's critical path. Milestone timestamps are 0 when
/// the corresponding span was not captured; stages between two present
/// milestones telescope so the stage sum always spans encode -> commit.
struct SpanChain {
  std::uint64_t key = 0;  ///< block-id prefix
  View view = 0;
  Round round = 0;
  std::uint64_t height = 0;  ///< 0 steady, >0 fallback
  ReplicaId proposer = 0;
  ReplicaId critical = 0;  ///< the voter whose vote completed the QC

  /// Milestones, reference-clock us: encode, flush, read, dispatch, vote,
  /// qc, commit (0 = not captured; [0] and [6] always set).
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
  std::vector<SpanChain> chains;  ///< commits with a matching encode record

  LatencyStats stage_steady[SpanChain::kMilestones - 1];
  LatencyStats stage_fallback[SpanChain::kMilestones - 1];
  LatencyStats total_steady;
  LatencyStats total_fallback;
  LatencyStats commit_to_confirm;  ///< kCommit -> first kClientConfirm per block

  double coverage_mean = 0;
  double coverage_min = 0;
  std::size_t clock_pairs = 0;  ///< (replica, peer) offset pairs applied

  std::string summary() const;  ///< per-stage p50/p99 table, steady vs fallback
};

/// Stitch a span stream (any order; clock offsets applied internally)
/// into per-commit critical-path chains.
SpanReport analyze_spans(std::vector<SpanEvent> events);

/// Perfetto/chrome://tracing JSON: one duration event per critical-path
/// stage per commit (pid = 0, tid = the replica executing the stage) plus
/// instant events for QC formation and commit.
std::string chrome_trace_json(const SpanReport& report);

}  // namespace repro::obs
