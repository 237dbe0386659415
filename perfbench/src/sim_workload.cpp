// sim_async_n16: the deterministic simulator (harness::Experiment) at
// n=16 running Figure 2 under NetScenario::kAsynchronous, with
// client::ClientSwarm clients, for a fixed number of commits on each of a
// few fresh systems. This is the workload where src/sim, src/net,
// src/client, certificate relay (n>8) and 11-of-16 threshold quorums run.
// Confirm latencies and transaction rates are virtual time and repeat
// exactly for a seed; every other metric is wall-clock on one thread.
#include <algorithm>
#include <atomic>
#include <array>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "client/client_swarm.h"
#include "core/replica_base.h"
#include "harness/invariants.h"
#include "ladder.h"
#include "layers.h"

namespace perfbench {
namespace {

using namespace repro;

constexpr std::uint32_t kN = 16;
/// Set-ups per untraced run besides the measured systems' own, half
/// before and half after them; setup_s is the median of all of them.
constexpr int kSetups = 13;
/// Commits (at every honest replica) per measured step; one step per
/// second of --seconds, about 0.8 s of wall time on a 4-core x86 box.
constexpr std::size_t kCommitsPerStep = 30;
/// Steps measured on one system before a fresh one takes over: the
/// simulator's memory grows with every commit (about 0.45 MiB per commit
/// at n=16), so one long-lived system would make cost per block depend on
/// run length.
constexpr std::size_t kStepsPerSystem = 10;
/// A run fails as stalled when no new commit reaches every honest replica
/// for this long (a commit takes about 6 virtual s at this load).
constexpr SimTime kStallUs = 1'000'000'000;
/// Virtual time the clients keep running after the commit target, so the
/// transactions submitted before it can confirm.
constexpr SimTime kDrainUs = 300'000'000;
/// Seed of the simulated system (keys and network delays). Like the TCP
/// cluster's keys it is configuration, not input: --seed drives the
/// client swarm.
constexpr std::uint64_t kSystemSeed = 7;

/// Outside-in transaction tracker: reads every committed block through
/// the replica's public store, checks each transaction's bytes against its
/// id, and applies the f+1 confirm rule itself.
class TxnTracker {
 public:
  explicit TxnTracker(std::uint32_t quorum) : quorum_(quorum) {}

  void on_commit(harness::Experiment& exp, ReplicaId id, const smr::CommitRecord& rec) {
    const auto* base = dynamic_cast<const core::ReplicaBase*>(&exp.replica(id));
    const smr::Block* block = base == nullptr ? nullptr : base->store().get(rec.id);
    if (block == nullptr) {
      ++missing_blocks;
      return;
    }
    ++blocks_[id];
    const Bytes& txns = block->txns();
    const auto ids = client::TxnPools::decode_txn_ids(txns);
    const auto bodies = client::TxnPools::decode_txn_payloads(txns);
    if (ids.size() != bodies.size()) {
      ++bad_payloads;
      return;
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (crypto::sha256_tagged("repro/txn", bodies[i]) != ids[i] || bodies[i].size() < 12) {
        ++bad_txn_bytes;
        continue;
      }
      // Body layout (ClientSwarm::submit_txn): u32 client, u64 sequence.
      std::uint64_t seq = 0;
      for (int b = 0; b < 8; ++b) seq |= std::uint64_t(bodies[i][4 + b]) << (8 * b);
      if (seq >= submitted_) {
        ++unknown_ids;
        continue;
      }
      if (seq >= masks_.size()) masks_.resize(seq + 1, 0);
      ++copies_;
      const std::uint32_t bit = 1u << id;
      if (masks_[seq] & bit) {
        ++duplicates_;
        continue;
      }
      masks_[seq] |= bit;
    }
  }

  /// The swarm's submission count, read before every simulation step.
  void set_submitted(std::uint64_t n) { submitted_ = n; }

  /// Transactions with sequence below `n` that fewer than f+1 replicas
  /// committed.
  std::uint64_t unconfirmed_below(std::uint64_t n) const {
    std::uint64_t out = 0;
    for (std::uint64_t s = 0; s < n; ++s) {
      if (s >= masks_.size() || std::popcount(masks_[s]) < int(quorum_)) ++out;
    }
    return out;
  }

  std::uint64_t copies() const { return copies_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::uint64_t blocks_at(ReplicaId id) const { return blocks_[id]; }

  std::uint64_t missing_blocks = 0, bad_payloads = 0, bad_txn_bytes = 0, unknown_ids = 0;

 private:
  std::uint32_t quorum_;
  std::uint64_t submitted_ = 0;
  std::vector<std::uint32_t> masks_;
  std::array<std::uint64_t, kN> blocks_{};
  std::uint64_t copies_ = 0, duplicates_ = 0;
};

/// One simulated system with its clients.
struct SimRun {
  std::shared_ptr<client::TxnPools> pools;
  std::unique_ptr<TxnTracker> tracker;
  std::unique_ptr<harness::Experiment> exp;
  std::unique_ptr<client::ClientSwarm> swarm;
};

std::unique_ptr<SimRun> build(std::uint64_t seed, double rate_scale) {
  auto run = std::make_unique<SimRun>();
  harness::ExperimentConfig cfg;
  cfg.n = kN;
  cfg.protocol = harness::Protocol::kFallback3;
  cfg.scenario = harness::NetScenario::kAsynchronous;
  cfg.seed = kSystemSeed;
  client::ClientConfig ccfg;
  ccfg.num_clients = 16;
  ccfg.submit_interval = static_cast<SimTime>(8'000'000 / rate_scale);
  ccfg.retry_timeout = 2'000'000;
  run->pools = std::make_shared<client::TxnPools>(kN, ccfg.max_batch_txns);
  run->tracker = std::make_unique<TxnTracker>(QuorumParams::for_n(kN).f + 1);
  auto pools = run->pools;
  cfg.payload_factory = [pools](ReplicaId id) { return pools->next_batch(id); };
  SimRun* raw = run.get();
  cfg.on_commit = [raw](ReplicaId id, const smr::CommitRecord& rec) {
    raw->tracker->on_commit(*raw->exp, id, rec);
  };
  run->exp = std::make_unique<harness::Experiment>(cfg);
  run->swarm = std::make_unique<client::ClientSwarm>(*run->exp, run->pools, ccfg, seed ^ 0xc11e);
  run->exp->start();
  run->swarm->start();
  return run;
}

/// Step the simulation until every honest replica has `target` commits,
/// keeping the tracker's view of submissions current. On failure returns
/// false and says why in `why`.
bool run_to(SimRun& r, std::size_t target, std::string& why) {
  std::size_t last_commits = r.exp->min_honest_commits();
  SimTime last_progress = r.exp->sim().now();
  while (r.exp->min_honest_commits() < target) {
    r.tracker->set_submitted(r.swarm->stats().submitted);
    const SimTime now = r.exp->sim().now();
    if (r.exp->min_honest_commits() > last_commits) {
      last_commits = r.exp->min_honest_commits();
      last_progress = now;
    } else if (now - last_progress > kStallUs) {
      why = "commit stall: no new commit at every honest replica for " +
            std::to_string(kStallUs / 1'000'000) + " virtual s after commit " +
            std::to_string(last_commits) + " (highest replica at " +
            std::to_string(r.exp->max_honest_commits()) + ")";
      return false;
    }
    const std::size_t before = r.exp->sim().events_executed();
    r.exp->sim().run_until(now + 100'000);
    if (r.exp->sim().events_executed() == before && r.exp->sim().pending() == 0) {
      why = "simulation ran out of events at commit " + std::to_string(last_commits);
      return false;
    }
  }
  r.tracker->set_submitted(r.swarm->stats().submitted);
  return true;
}

void run_for(SimRun& r, SimTime duration) {
  const SimTime end = r.exp->sim().now() + duration;
  while (r.exp->sim().now() < end) {
    r.tracker->set_submitted(r.swarm->stats().submitted);
    r.exp->sim().run_until(std::min(end, r.exp->sim().now() + 100'000));
  }
  r.tracker->set_submitted(r.swarm->stats().submitted);
}

/// Per-replica handler timing: re-register each replica's network handler
/// with one that runs the same delivery call through its LayerCounters.
void wrap_handlers(harness::Experiment& exp, std::vector<LayerCounters>& counters) {
  for (ReplicaId id = 0; id < exp.n(); ++id) {
    LayerCounters* c = &counters[id];
    exp.network().register_handler(id, [&exp, id, c](ReplicaId from, const Bytes& payload) {
      c->handle(from, payload, [&] { exp.replica(id).on_message(from, payload); });
    });
  }
}

/// Build and start a system for client seed `seed`, appending its process
/// CPU time from key dealing to the first commit at every honest replica.
/// Null (and a failed check) if it never commits.
std::unique_ptr<SimRun> set_up(std::uint64_t seed, const Options& opt,
                               std::vector<double>& setup_s, RunResult& result) {
  const std::int64_t cpu0 = process_cpu_us();
  auto run = build(seed, opt.rate_scale);
  std::string why;
  if (!run_to(*run, 1, why)) {
    result.fail("sim_async_n16: set-up: " + why);
    return nullptr;
  }
  setup_s.push_back((process_cpu_us() - cpu0) / 1e6);
  return run;
}

/// Totals over the measured systems of one run.
struct Tally {
  std::vector<double> step_blocks, step_wall_s, step_cpu_us;
  std::vector<double> lat_ms;
  double blocks = 0, wall_s = 0, cpu_us = 0, virtual_s = 0;
  double confirmed = 0, wire_bytes = 0, messages = 0, events = 0;
  double copies = 0, duplicates = 0, committed_blocks = 0, tracked_copies = 0;
  double retries = 0, submitted = 0;
  /// Registry snapshots at both ends of each system's measured phase.
  std::vector<std::pair<obs::Snapshot, obs::Snapshot>> snaps;
};

/// Measure one system for `steps` steps of kCommitsPerStep commits, drain
/// it and check it, adding its figures to `t`. False if a check failed.
bool measure_system(SimRun& run, std::size_t steps, bool traced,
                    std::vector<LayerCounters>& counters, std::atomic<bool>& recording,
                    RunResult& result, Tally& t) {
  harness::Experiment& exp = *run.exp;
  if (traced || counters.front().plant_ns > 0) wrap_handlers(exp, counters);

  const obs::Snapshot s0 = exp.registry().snapshot();
  const net::NetStats n0 = exp.network().stats();
  const std::size_t blocks0 = exp.min_honest_commits();
  const SimTime v0 = exp.sim().now();
  const std::uint64_t ev0 = exp.sim().events_executed();
  const std::uint64_t confirmed0 = run.swarm->stats().confirmed;
  const std::uint64_t copies0 = run.tracker->copies(), dups0 = run.tracker->duplicates();
  const std::int64_t cpu0 = process_cpu_us();
  const std::int64_t w0 = mono_us();
  recording.store(traced);

  // Each step's wall and CPU time is kept: the wall-clock figures are
  // medians over steps, because this one thread's speed moves with the
  // shared host and a neighbour that takes its core for a few seconds
  // should move a few steps, not the figure.
  std::size_t done = blocks0;
  for (std::size_t k = 0; k < steps; ++k) {
    const std::int64_t sw = mono_us(), sc = process_cpu_us();
    std::string why;
    if (!run_to(run, done + kCommitsPerStep, why)) {
      result.fail("sim_async_n16: " + why);
      return false;
    }
    const std::size_t now = exp.min_honest_commits();
    t.step_blocks.push_back(double(now - done));
    t.step_wall_s.push_back((mono_us() - sw) / 1e6);
    t.step_cpu_us.push_back(double(process_cpu_us() - sc));
    done = now;
  }

  recording.store(false);
  t.wall_s += (mono_us() - w0) / 1e6;
  t.cpu_us += double(process_cpu_us() - cpu0);
  t.snaps.emplace_back(s0, exp.registry().snapshot());
  const net::NetStats n1 = exp.network().stats();
  t.blocks += double(exp.min_honest_commits() - blocks0);
  t.virtual_s += double(exp.sim().now() - v0) / 1e6;
  t.events += double(exp.sim().events_executed() - ev0);
  t.confirmed += double(run.swarm->stats().confirmed - confirmed0);
  t.copies += double(run.tracker->copies() - copies0);
  t.duplicates += double(run.tracker->duplicates() - dups0);
  t.wire_bytes += double(n1.bytes - n0.bytes);
  t.messages += double(n1.messages - n0.messages);
  const std::uint64_t submitted_at_target = run.swarm->stats().submitted;

  // Drain: clients keep running; what was submitted by the target gets
  // kDrainUs of virtual time to reach f+1 commits.
  run_for(run, kDrainUs);

  // ---- correctness ----------------------------------------------------
  const TxnTracker& tr = *run.tracker;
  const std::size_t failures = result.check_failures.size();
  if (!exp.check_safety().ok) result.fail("sim_async_n16: safety: " + exp.check_safety().detail);
  const harness::InvariantReport inv = harness::check_invariants(exp);
  if (!inv.ok) result.fail("sim_async_n16: invariant: " + inv.violations.front());
  if (tr.missing_blocks != 0) result.fail("sim_async_n16: committed block missing from store");
  if (tr.bad_payloads != 0) result.fail("sim_async_n16: committed payload does not decode");
  if (tr.bad_txn_bytes != 0) {
    result.fail("sim_async_n16: committed txn bytes do not match their id");
  }
  if (tr.unknown_ids != 0) result.fail("sim_async_n16: committed txn was never submitted");
  if (run.swarm->stats().bad_proofs != 0) {
    result.fail("sim_async_n16: client rejected an inclusion proof");
  }

  for (SimTime l : run.swarm->stats().confirm_latencies_us) t.lat_ms.push_back(l / 1e3);
  result.attempted += submitted_at_target;
  result.failed += tr.unconfirmed_below(submitted_at_target);
  for (ReplicaId id = 0; id < kN; ++id) t.committed_blocks += double(tr.blocks_at(id));
  t.tracked_copies += double(tr.copies());
  t.retries += double(run.swarm->stats().retries);
  t.submitted += double(run.swarm->stats().submitted);
  return result.check_failures.size() == failures;
}

void measure(const Options& opt, bool traced, int extra_setups, RunResult& result,
             MetricSet& e2e) {
  // The measured commits are spread over several fresh systems, each with
  // its own client seed, kStepsPerSystem steps at most. Set-ups beyond
  // the measured systems' own run half before and half after them, so
  // their median spans the whole run rather than one moment of host load.
  std::vector<double> setup_s;
  for (int k = 0; k < extra_setups - extra_setups / 2; ++k) {
    if (set_up(opt.seed, opt, setup_s, result) == nullptr) return;
  }
  std::atomic<bool> recording{false};
  std::vector<LayerCounters> counters(kN);
  for (auto& c : counters) {
    c.recording = &recording;
    c.plant_ns = opt.plant_ns;
  }
  Tally t;
  std::unique_ptr<SimRun> run;
  const std::size_t total_steps = std::size_t(opt.seconds);
  for (std::size_t first = 0, sys = 0; first < total_steps; first += kStepsPerSystem, ++sys) {
    run.reset();
    run = set_up(opt.seed + sys * 1'000'003, opt, setup_s, result);
    if (run == nullptr) return;
    const std::size_t steps = std::min(kStepsPerSystem, total_steps - first);
    if (!measure_system(*run, steps, traced, counters, recording, result, t)) return;
  }

  // ---- end-to-end ------------------------------------------------------
  result.latency_samples = t.lat_ms.size();
  e2e.set("confirm_p50_ms", quantile(t.lat_ms, 0.50), "ms");
  e2e.set("confirm_p99_ms", quantile(t.lat_ms, 0.99), "ms");
  e2e.set("confirmed_tx_per_s", t.confirmed / t.virtual_s, "1/s");
  e2e.set("failed_tx_frac", ratio(double(result.failed), double(result.attempted)), "frac");
  e2e.set("blocks_per_s", median(ratios(t.step_blocks, t.step_wall_s)), "1/s");
  e2e.set("cpu_us_per_block", median(ratios(t.step_cpu_us, t.step_blocks)), "us");
  e2e.set("wire_bytes_per_block", t.wire_bytes / t.blocks, "B");
  e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
  result.notes.push_back("sim_async_n16: " + std::to_string(std::size_t(t.blocks)) +
                         " commits in " + std::to_string(t.virtual_s) + " virtual s, " +
                         std::to_string(t.wall_s) + " wall s; whole-phase blocks_per_s " +
                         std::to_string(t.blocks / t.wall_s) + ", cpu_us_per_block " +
                         std::to_string(t.cpu_us / t.blocks));
  if (traced) {
    MetricSet& m = result.layers;
    std::vector<const LayerCounters*> wrapped;
    for (const auto& c : counters) wrapped.push_back(&c);
    auto d = [&](const char* name) {
      double sum = 0;
      for (const auto& [s0, s1] : t.snaps) sum += double(s1.value(name)) - double(s0.value(name));
      return sum;
    };
    report_common_layers(wrapped, d, t.blocks, kN, t.virtual_s, run->exp->crypto_sys(), kN,
                         result);

    // Client: the swarm's retries, and the tracker's per-replica copies.
    m.set("client.txns_per_block", ratio(t.tracked_copies, t.committed_blocks), "count");
    m.set("client.resubmits_per_tx", ratio(t.retries, t.submitted), "count");
    m.set("client.useful_commit_frac", ratio(t.copies - t.duplicates, t.copies), "frac");
    m.set("sim.events_per_s", t.events / t.wall_s, "1/s");
    m.set("net.msgs_per_block", t.messages / t.blocks, "count");
  }
  run.reset();

  for (int k = 0; k < extra_setups / 2; ++k) {
    if (set_up(opt.seed, opt, setup_s, result) == nullptr) return;
  }
  e2e.set("setup_s", median(setup_s), "s");
  std::string line = "sim_async_n16: set-up CPU times (ms):";
  for (double v : setup_s) line += " " + std::to_string(v * 1e3);
  result.notes.push_back(line);
}

}  // namespace

RunResult run_sim_workload(const Options& opt) {
  RunResult result;
  if (!opt.trace) {
    measure(opt, /*traced=*/false, kSetups, result, result.end_to_end);
    return result;
  }
  MetricSet untraced;
  measure(opt, /*traced=*/false, 0, result, untraced);
  measure(opt, /*traced=*/true, 0, result, result.end_to_end);
  const Metric* base = untraced.find("cpu_us_per_block");
  const Metric* traced = result.end_to_end.find("cpu_us_per_block");
  if (base != nullptr && traced != nullptr) {
    result.layers.set("obs.trace_overhead_frac", ratio(traced->value, base->value) - 1.0, "frac");
  }
  return result;
}

}  // namespace perfbench
