// Experiment TCP — reality check on real sockets and the wall clock.
//
// The macro benches above run in the deterministic simulator; this one
// runs the identical protocol code over localhost TCP with one thread per
// replica and measures actual throughput and commit latency. It grounds
// the simulator results: the shapes (linear fast path, fallback recovery
// after a node loss) carry over to a real transport.
// Also measures the transport data path: frames coalesced per vectored
// write (the per-peer send queues batch every frame produced in one poll
// iteration into a single writev), payload copies avoided by refcounted
// multicast buffers, and backpressure drops. `--json <path>` appends the
// numbers as NDJSON; `--trace-out <path>` writes the event stream of the
// last recorded run (read it with tracecat, --critical-path included).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <unistd.h>

#include "bench_json.h"
#include "core/fallback.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "transport/node.h"

using namespace repro;
using namespace repro::transport;

namespace {

std::uint16_t next_port = 0;

std::uint16_t alloc_ports(std::uint32_t n) {
  if (next_port == 0) next_port = static_cast<std::uint16_t>(24000 + (::getpid() * 13) % 8000);
  const std::uint16_t base = next_port;
  next_port = static_cast<std::uint16_t>(next_port + n);
  return base;
}

struct RunResult {
  double blocks_per_sec = 0;
  bool consistent = true;
  std::uint64_t fallbacks = 0;
  net::NetStats net;  ///< summed over all nodes
  double wall_seconds = 0;
  /// Every node's recorded events, merged; ring overwrites summed.
  std::vector<obs::TraceEvent> events;
  std::uint64_t events_dropped = 0;

  double frames_per_writev() const {
    return obs::ratio(net.writev_frames, net.writev_batches);
  }
};

struct RunOpts {
  bool kill_one_node = false;
  /// Run the always-fallback baseline: every view is an O(n^2) multicast
  /// storm of f-blocks/votes/coin shares — the worst-case write load for
  /// the per-peer send queues.
  bool always_fallback = false;
  /// Per-node event ring capacity (wall-clock mode); 0 runs with
  /// recording off, the baseline side of the overhead gate.
  std::size_t trace_capacity = 0;
};

RunResult run_cluster(std::uint32_t n, int millis, std::size_t batch_bytes,
                      RunOpts opts = {}) {
  auto crypto = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 7);
  const std::uint16_t port0 = alloc_ports(n);
  std::vector<PeerAddress> peers;
  for (std::uint32_t i = 0; i < n; ++i) {
    peers.push_back(PeerAddress{"127.0.0.1", static_cast<std::uint16_t>(port0 + i)});
  }
  core::FallbackParams fb;
  fb.always_fallback = opts.always_fallback;
  std::vector<std::unique_ptr<TcpNode>> nodes;
  std::vector<std::shared_ptr<obs::TraceRing>> rings;
  for (ReplicaId i = 0; i < n; ++i) {
    NodeConfig cfg;
    cfg.id = i;
    cfg.peers = peers;
    cfg.crypto = crypto;
    cfg.seed = 42 + i;
    cfg.pcfg.base_timeout_us = 150'000;
    cfg.pcfg.batch_bytes = batch_bytes;
    if (opts.trace_capacity > 0) {
      // One ring per node, as in the simulator: its node thread is the
      // only writer, so recording never contends across nodes.
      rings.push_back(std::make_shared<obs::TraceRing>(opts.trace_capacity, /*wall_clock=*/true));
      cfg.trace = rings.back();
    }
    nodes.push_back(std::make_unique<TcpNode>(cfg, [fb](const core::ReplicaContext& ctx) {
      return std::make_unique<core::FallbackReplica>(ctx, fb);
    }));
  }
  for (auto& node : nodes) node->start();

  if (opts.kill_one_node) {
    std::this_thread::sleep_for(std::chrono::milliseconds(millis / 3));
    nodes[1]->stop();  // hard crash of one replica mid-run
    std::this_thread::sleep_for(std::chrono::milliseconds(2 * millis / 3));
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  }
  for (auto& node : nodes) node->stop();

  RunResult r;
  r.blocks_per_sec = double(nodes[0]->replica().ledger().size()) / (millis / 1000.0);
  for (std::uint32_t a = 0; a < n && r.consistent; ++a) {
    for (std::uint32_t b = a + 1; b < n && r.consistent; ++b) {
      const auto& ra = nodes[a]->replica().ledger().records();
      const auto& rb = nodes[b]->replica().ledger().records();
      for (std::size_t i = 0; i < std::min(ra.size(), rb.size()); ++i) {
        if (ra[i].id != rb[i].id) r.consistent = false;
      }
    }
  }
  for (auto& node : nodes) r.fallbacks += node->replica().stats().fallbacks_entered;
  r.wall_seconds = millis / 1000.0;
  std::vector<std::vector<obs::TraceEvent>> per_node;
  for (const auto& ring : rings) {
    per_node.push_back(ring->events());
    r.events_dropped += ring->dropped();
  }
  r.events = obs::merge_traces(per_node);
  for (auto& node : nodes) {
    const net::NetStats st = node->net_stats();  // safe: all nodes stopped
    r.net.messages += st.messages;
    r.net.bytes += st.bytes;
    r.net.multicasts += st.multicasts;
    r.net.payload_copies_avoided += st.payload_copies_avoided;
    r.net.writev_batches += st.writev_batches;
    r.net.writev_frames += st.writev_frames;
    r.net.writev_bytes += st.writev_bytes;
    r.net.sendq_dropped_frames += st.sendq_dropped_frames;
    r.net.sendq_dropped_bytes += st.sendq_dropped_bytes;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::json_path_arg(argc, argv);
  const char* trace_out = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0) trace_out = argv[i + 1];
  }
  std::printf("==============================================================\n");
  std::printf("TCP: real-socket reality check (localhost, 1 thread/replica)\n");
  std::printf("==============================================================\n\n");

  std::printf("--- throughput vs cluster size (1s wall clock each, empty blocks) ---\n");
  std::printf("    %-6s %14s %12s %12s %14s %10s\n", "n", "blocks/s", "consistent",
              "fallbacks", "frames/writev", "drops");
  for (std::uint32_t n : {4u, 7u, 10u}) {
    // A single 1-second sample carries ~5% per-run jitter on a shared
    // runner, so each row reports the median of three.
    RunResult runs[3];
    for (RunResult& run : runs) run = run_cluster(n, 1000, 0);
    std::sort(std::begin(runs), std::end(runs), [](const RunResult& a, const RunResult& b) {
      return a.blocks_per_sec < b.blocks_per_sec;
    });
    const RunResult& r = runs[1];
    std::printf("    %-6u %14.0f %12s %12llu %14.2f %10llu\n", n, r.blocks_per_sec,
                r.consistent ? "yes" : "NO", static_cast<unsigned long long>(r.fallbacks),
                r.frames_per_writev(),
                static_cast<unsigned long long>(r.net.sendq_dropped_frames));
    if (json_path != nullptr) {
      bench::JsonLine line("tcp_cluster");
      line.field("n", std::uint64_t{n})
          .field("blocks_per_sec", r.blocks_per_sec)
          .field("messages", r.net.messages)
          .field("bytes", r.net.bytes)
          .field("multicasts", r.net.multicasts)
          .field("payload_copies_avoided", r.net.payload_copies_avoided)
          .field("writev_batches", r.net.writev_batches)
          .field("writev_frames", r.net.writev_frames)
          .field("frames_per_writev", r.frames_per_writev())
          .field("sendq_dropped_frames", r.net.sendq_dropped_frames)
          .field("wall_time_s", r.wall_seconds)
          .append_to(json_path);
    }
  }

  std::printf("\n--- throughput vs batch size (n=4, 1s each) --------------------\n");
  std::printf("    %-12s %16s %18s\n", "batch bytes", "blocks/s", "payload MB/s");
  for (std::size_t batch : {0u, 1024u, 16384u}) {
    const RunResult r = run_cluster(4, 1000, batch);
    std::printf("    %-12zu %16.0f %18.2f\n", batch, r.blocks_per_sec,
                r.blocks_per_sec * batch / 1e6);
  }

  std::printf("\n--- multicast load: always-fallback baseline (n=7, 1s each) ----\n");
  std::printf("    every view multicasts f-blocks, f-votes and coin shares from\n");
  std::printf("    all n replicas (O(n^2) frames/decision) — the send queues must\n");
  std::printf("    coalesce bursts or the poll threads drown in write syscalls.\n");
  std::printf("    %12s %14s %12s %12s\n", "blocks/s", "frames/writev", "consistent",
              "drops");
  {
    RunOpts opts;
    opts.always_fallback = true;
    const RunResult r = run_cluster(7, 1000, 0, opts);
    std::printf("    %12.0f %14.2f %12s %12llu\n", r.blocks_per_sec, r.frames_per_writev(),
                r.consistent ? "yes" : "NO",
                static_cast<unsigned long long>(r.net.sendq_dropped_frames));
    if (json_path != nullptr) {
      bench::JsonLine line("tcp_cluster_multicast_load");
      line.field("n", std::uint64_t{7})
          .field("always_fallback", std::uint64_t{1})
          .field("blocks_per_sec", r.blocks_per_sec)
          .field("writev_batches", r.net.writev_batches)
          .field("writev_frames", r.net.writev_frames)
          .field("frames_per_writev", r.frames_per_writev())
          .field("payload_copies_avoided", r.net.payload_copies_avoided)
          .field("sendq_dropped_frames", r.net.sendq_dropped_frames)
          .field("wall_time_s", r.wall_seconds)
          .append_to(json_path);
    }
  }

  std::printf("\n--- event recording: overhead + critical path -----------------\n");
  std::printf("    n=16 always-fallback — the worst-case event volume (every\n");
  std::printf("    view is an O(n^2) proposal/vote storm). Interleaved best-of-5\n");
  std::printf("    recording off vs on (noise only lowers throughput, so the\n");
  std::printf("    best sample per side is the stable estimator); check_span_gate.py\n");
  std::printf("    requires on >= 0.95x off. The stage table below attributes each\n");
  std::printf("    commit's end-to-end latency to its critical-path stages; the\n");
  std::printf("    telescoped stage sum must cover >= 90%% of send->commit.\n");
  {
    const std::uint32_t n = 16;
    constexpr int kReps = 5;
    RunResult runs[2][kReps];
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t pos = 0; pos < 2; ++pos) {
        // Alternate which side goes first each rep so slow machine drift
        // (thermal, noisy neighbours) cannot systematically punish one
        // side of the comparison.
        const std::size_t si = (rep % 2 == 0) ? pos : 1 - pos;
        RunOpts opts;
        opts.always_fallback = true;
        // Fresh rings per run so each sample pays full recording cost
        // and the analyzed window is one clean run: the last 2^15 events
        // per node (~36 MiB over 16 nodes). Commits whose proposal record
        // fell out of the window count but do not chain.
        if (si == 1) opts.trace_capacity = 1 << 15;
        runs[si][rep] = run_cluster(n, 2000, 0, opts);
      }
    }
    double best[2] = {0, 0};
    for (std::size_t si = 0; si < 2; ++si) {
      for (const RunResult& r : runs[si]) {
        best[si] = std::max(best[si], r.blocks_per_sec);
      }
    }
    const double overhead = best[0] > 0 ? 1.0 - best[1] / best[0] : 0.0;
    std::printf("    samples (blocks/s):");
    for (std::size_t si = 0; si < 2; ++si) {
      std::printf("  %s {", si == 0 ? "off" : "on");
      for (int rep = 0; rep < kReps; ++rep) {
        std::printf("%s%.0f", rep == 0 ? "" : " ", runs[si][rep].blocks_per_sec);
      }
      std::printf("}");
    }
    std::printf("\n");
    std::printf("    recording off %.0f blocks/s, on %.0f blocks/s "
                "(overhead %.1f%%)\n\n",
                best[0], best[1], overhead * 100.0);

    const RunResult& last_on = runs[1][kReps - 1];
    const std::vector<obs::TraceEvent>& events = last_on.events;
    if (trace_out != nullptr) {
      const std::string ndjson = obs::to_ndjson(events);
      std::FILE* f = std::fopen(trace_out, "w");
      if (f != nullptr) {
        std::fwrite(ndjson.data(), 1, ndjson.size(), f);
        std::fclose(f);
        std::printf("    event stream -> %s (%zu events)\n\n", trace_out, events.size());
      }
    }
    obs::SpanReport report = obs::analyze_spans(events);
    report.dropped += last_on.events_dropped;
    std::fputs(report.summary().c_str(), stdout);
    if (report.chains.empty()) {
      std::fprintf(stderr, "FAIL: no critical-path chains stitched from %zu "
                           "events\n", events.size());
      return 1;
    }
    if (report.coverage_min < 0.9) {
      std::fprintf(stderr, "FAIL: critical-path stage sum covers only %.1f%% of "
                           "end-to-end commit latency (gate: >= 90%%)\n",
                   report.coverage_min * 100.0);
      return 1;
    }
    std::printf("    stage-sum coverage: min %.3f mean %.3f over %zu chains "
                "(gate >= 0.9: OK)\n",
                report.coverage_min, report.coverage_mean, report.chains.size());
    if (json_path != nullptr) {
      bench::JsonLine line("tcp_span_overhead");
      line.field("n", std::uint64_t{n})
          .field("always_fallback", std::uint64_t{1})
          .field("blocks_per_sec_off", best[0])
          .field("blocks_per_sec_on", best[1])
          .field("overhead_frac", overhead)
          .field("span_events", std::uint64_t{events.size()})
          .field("span_dropped", last_on.events_dropped)
          .field("chains", std::uint64_t{report.chains.size()})
          .field("commits_seen", std::uint64_t{report.commits_seen})
          .field("coverage_min", report.coverage_min)
          .field("coverage_mean", report.coverage_mean)
          .field("clock_pairs", std::uint64_t{report.clock_pairs})
          .append_to(json_path);
    }
  }

  std::printf("\n--- crash tolerance on real sockets (n=4, one node dies) -------\n");
  {
    RunOpts opts;
    opts.kill_one_node = true;
    const RunResult r = run_cluster(4, 1500, 0, opts);
    std::printf("    survivors keep committing: %s (%.0f blocks/s overall, "
                "consistent: %s, fallbacks: %llu)\n",
                r.blocks_per_sec > 0 ? "yes" : "NO", r.blocks_per_sec,
                r.consistent ? "yes" : "NO", static_cast<unsigned long long>(r.fallbacks));
  }

  std::printf("\nReading: real-transport behaviour mirrors the simulator — linear\n");
  std::printf("fast path, throughput bounded by serialization+syscalls, and a dead\n");
  std::printf("node at most costs its leader rotations (timeout -> fallback/skip).\n");
  std::printf("frames/writev > 1 means the send queues are coalescing protocol\n");
  std::printf("bursts into single syscalls; drops > 0 only under backpressure.\n");
  return 0;
}
