// Scale-out sweep (DESIGN.md §13): committee sizes n = 16..300 across the
// three operating regimes —
//   * steady:   fallback3adopt under synchrony (the fallback never fires;
//               per-decision cost is the leader's O(n) steady path),
//   * fallback: fallback3adopt under partial synchrony (asynchronous until
//               GST, so the run pays real O(n^2) fallbacks, then settles),
//   * ace:      always-fallback under asynchrony (the paper's bad-network
//               regime: EVERY decision goes through the n^2 fallback).
// Each row records messages-per-decision, bytes-per-decision, decisions
// per virtual second, and the peak per-replica quorum-pool footprint.
//
// The acceptance row runs always-fallback at n=100 under asynchrony for a
// FIXED 30-virtual-second horizon. tools/check_scaling_gate.py asserts
// that it commits: strict adoption builds the leader-pure chains the
// commit rule needs, and certificate relay keeps the O(n^2) fallback
// traffic affordable (DESIGN.md §13).
//
// `--json <path>` appends every row as NDJSON.
// `--quick` caps the sweep at n <= 100 (CI smoke; the gate row already
// runs at n=100 and stays in).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_json.h"
#include "harness/experiment.h"

using namespace repro;
using namespace repro::harness;

namespace {

struct Row {
  const char* mode;
  std::uint32_t n = 0;
  std::size_t decisions = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t virtual_us = 0;
  std::size_t share_pool_peak = 0;  ///< max per-replica footprint at cutoff
  double wall_s = 0;

  double msgs_per_decision() const {
    return decisions ? double(messages) / double(decisions) : 0.0;
  }
  double bytes_per_decision() const {
    return decisions ? double(bytes) / double(decisions) : 0.0;
  }
  double blocks_per_sec() const {
    return virtual_us ? double(decisions) / double(virtual_us) * 1e6 : 0.0;
  }
};

struct RunSpec {
  Protocol protocol;
  NetScenario scenario;
  SimTime async_mean = 0;        ///< 0 = config default
  std::size_t commit_target = 0;  ///< 0 = run the full horizon
  SimTime horizon = 600'000'000;
};

Row run_one(const char* mode, std::uint32_t n, const RunSpec& spec) {
  ExperimentConfig cfg;
  cfg.n = n;
  cfg.protocol = spec.protocol;
  cfg.scenario = spec.scenario;
  cfg.seed = 80'000 + n;
  if (spec.async_mean != 0) cfg.async_mean = spec.async_mean;
  // Per-replica observability budget for the memory audit: a 128 KiB
  // event ring, so n=300 x ring stays bounded (DESIGN.md §13.4).
  cfg.trace_capacity = 128 * 1024 / sizeof(obs::TraceEvent);

  const auto t0 = std::chrono::steady_clock::now();
  Experiment exp(cfg);
  exp.start();
  const std::size_t target =
      spec.commit_target != 0 ? spec.commit_target : static_cast<std::size_t>(-1);
  exp.run_until_commits(target, spec.horizon);
  const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;

  Row row;
  row.mode = mode;
  row.n = n;
  row.decisions = exp.min_honest_commits();
  row.messages = exp.network().stats().messages;
  row.bytes = exp.network().stats().bytes;
  row.virtual_us = exp.sim().now();
  for (ReplicaId id = 0; id < n; ++id) {
    row.share_pool_peak = std::max(row.share_pool_peak, exp.replica(id).share_pool_bytes());
  }
  row.wall_s = dt.count();
  return row;
}

void print_row(const Row& r) {
  std::printf("  %-9s n=%-4u decisions=%-5zu msgs/dec=%-10.0f "
              "KiB/dec=%-8.1f blocks/s=%-7.1f pool-peak=%zuKiB wall=%.1fs\n",
              r.mode, r.n, r.decisions, r.msgs_per_decision(), r.bytes_per_decision() / 1024.0,
              r.blocks_per_sec(), r.share_pool_peak / 1024, r.wall_s);
}

void emit_row(const char* json_path, const Row& r, bool gate_row) {
  if (json_path == nullptr) return;
  bench::JsonLine("scaling")
      .field_str("mode", r.mode)
      .field("n", std::uint64_t{r.n})
      .field("decisions", std::uint64_t{r.decisions})
      .field("messages", r.messages)
      .field("bytes", r.bytes)
      .field("msgs_per_decision", r.msgs_per_decision())
      .field("bytes_per_decision", r.bytes_per_decision())
      .field("blocks_per_sec", r.blocks_per_sec())
      .field("virtual_time_s", r.virtual_us / 1e6)
      .field("share_pool_peak_bytes", std::uint64_t{r.share_pool_peak})
      .field("gate_row", std::uint64_t{gate_row ? 1u : 0u})
      .field("wall_time_s", r.wall_s)
      .append_to(json_path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::json_path_arg(argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  std::printf("==============================================================\n");
  std::printf("Scale-out sweep: n=16..300, steady / fallback / always-fallback\n");
  std::printf("==============================================================\n\n");

  // Commit targets shrink with n so each row stays a few wall-seconds: the
  // ace rows cost ~2.5 n^2 messages per decision, so a handful of
  // decisions at n=300 already exercises ~half a million messages.
  struct Scale {
    std::uint32_t n;
    std::size_t steady, fallback, ace;
  };
  const Scale scales[] = {
      {16, 30, 12, 10}, {50, 20, 8, 5}, {100, 10, 5, 3}, {200, 5, 3, 2}, {300, 5, 2, 2},
  };

  for (const Scale& s : scales) {
    if (quick && s.n > 100) continue;
    RunSpec steady;
    steady.protocol = Protocol::kFallback3Adopt;
    steady.scenario = NetScenario::kSynchronous;
    steady.commit_target = s.steady;
    const Row r1 = run_one("steady", s.n, steady);
    print_row(r1);
    emit_row(json_path, r1, false);

    RunSpec fb;
    fb.protocol = Protocol::kFallback3Adopt;
    fb.scenario = NetScenario::kPartialSynchrony;
    fb.async_mean = 200'000;  // pre-GST asynchrony brisk enough to fall back
    fb.commit_target = s.fallback;
    const Row r2 = run_one("fallback", s.n, fb);
    print_row(r2);
    emit_row(json_path, r2, false);

    RunSpec ace;
    ace.protocol = Protocol::kAlwaysFallback;
    ace.scenario = NetScenario::kAsynchronous;
    ace.async_mean = 50'000;
    ace.commit_target = s.ace;
    const Row r3 = run_one("ace", s.n, ace);
    print_row(r3);
    emit_row(json_path, r3, false);
  }

  std::printf("\n--- acceptance: always-fallback n=100 under asynchrony, fixed\n");
  std::printf("    30-virtual-second horizon --------------------------------\n\n");
  {
    RunSpec gate;
    gate.protocol = Protocol::kAlwaysFallback;
    gate.scenario = NetScenario::kAsynchronous;
    gate.async_mean = 50'000;
    gate.horizon = 30'000'000;
    gate.commit_target = 0;  // run the whole horizon
    const Row r = run_one("ace-gate", 100, gate);
    print_row(r);
    emit_row(json_path, r, true);
  }

  std::printf("\nReading: steady cost is O(n) per decision and flat in n per\n");
  std::printf("replica; the ace rows pay the O(n^2) fallback on every decision,\n");
  std::printf("which is exactly where strict adoption (liveness under asynchrony)\n");
  std::printf("and certificate relay (fewer redundant re-multicasts) pay off.\n");
  return 0;
}
