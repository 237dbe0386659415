// Experiment CL — client-perceived latency and goodput (system-level view
// of the paper's liveness claim): what a *user* of the service observes
// with DiemBFT vs the asynchronous-fallback protocol when the network
// goes through a bad period.
//
// Network: synchronous for 10s, leader-attack asynchronous for 20s,
// synchronous again for 10s. Confirm rule: f+1 acks.
//
// Exits 1 if any ack's Merkle proof is rejected, if a replica commits a
// txn it had already committed (a duplicate copy), or if a fallback
// protocol confirms nothing during the bad window.
#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <vector>

#include "client/client_swarm.h"
#include "obs/span.h"

using namespace repro;
using namespace repro::client;
using namespace repro::harness;

namespace {

constexpr SimTime kSec = 1'000'000;
constexpr SimTime kBadStart = 10 * kSec;
constexpr SimTime kBadEnd = 30 * kSec;
constexpr SimTime kEnd = 40 * kSec;

struct Outcome {
  std::uint64_t confirmed_good1 = 0, confirmed_bad = 0, confirmed_good2 = 0;
  double p50_good_ms = 0, p99_all_ms = 0;
  std::uint64_t unconfirmed_at_end = 0;
  std::uint64_t bad_proofs = 0;
  /// Txn copies the replicas committed, and those a replica had already
  /// committed once (DESIGN.md §20.4).
  std::uint64_t copies = 0, duplicates = 0;
  /// Commit -> first client confirm (the critical path's chain tail): the
  /// ack fan-out + f+1 quorum cost on top of consensus latency.
  obs::LatencyStats commit_to_confirm;
};

Outcome run(Protocol p, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = p;
  cfg.seed = seed;
  cfg.scenario = NetScenario::kLeaderAttack;
  cfg.attack_delay = 5'000'000;
  cfg.trace_capacity = 1 << 16;  // commit->confirm attribution

  ClientConfig ccfg;
  ccfg.num_clients = 4;
  ccfg.submit_interval = 100'000;
  ccfg.retry_timeout = 3'000'000;

  auto pools = std::make_shared<TxnPools>(cfg.n, ccfg.max_batch_txns);
  cfg.payload_factory = [pools](ReplicaId id) { return pools->next_batch(id); };
  Outcome out;
  Experiment* expp = nullptr;
  std::vector<std::unordered_set<TxnId, TxnIdHash>> committed(cfg.n);
  cfg.on_commit = [&](ReplicaId id, const smr::CommitRecord& rec) {
    const auto& base = dynamic_cast<const core::ReplicaBase&>(expp->replica(id));
    for (const TxnId& txn : TxnPools::decode_txn_ids(base.store().get(rec.id)->txns())) {
      ++out.copies;
      out.duplicates += !committed[id].insert(txn).second;
    }
  };

  Experiment exp(cfg);
  expp = &exp;
  auto* attack =
      dynamic_cast<net::AdaptiveLeaderAttackModel*>(&exp.network().delay_model());
  auto& simref = exp.sim();
  auto& e = exp;
  attack->set_targets_fn([&simref, &e]() {
    std::set<ReplicaId> targets;
    if (simref.now() < kBadStart || simref.now() >= kBadEnd) return targets;
    for (ReplicaId id = 0; id < e.n(); ++id) {
      targets.insert(core::round_leader(e.replica(id).current_round(), e.n(),
                                        e.config().pcfg.leader_rotation));
    }
    return targets;
  });

  ClientSwarm swarm(exp, pools, ccfg, seed ^ 0xabc);
  exp.start();
  swarm.start();

  exp.sim().run_until(kBadStart);
  out.confirmed_good1 = swarm.stats().confirmed;
  exp.sim().run_until(kBadEnd);
  out.confirmed_bad = swarm.stats().confirmed - out.confirmed_good1;
  exp.sim().run_until(kEnd);
  out.confirmed_good2 = swarm.stats().confirmed - out.confirmed_good1 - out.confirmed_bad;
  out.unconfirmed_at_end = swarm.in_flight();
  out.bad_proofs = swarm.stats().bad_proofs;

  auto lats = swarm.stats().confirm_latencies_us;
  if (!lats.empty()) {
    std::vector<SimTime> sorted = lats;
    std::sort(sorted.begin(), sorted.end());
    out.p50_good_ms = sorted[sorted.size() / 2] / 1000.0;
    out.p99_all_ms = sorted[sorted.size() * 99 / 100] / 1000.0;
  }
  out.commit_to_confirm = obs::analyze_spans(exp.trace_events()).commit_to_confirm;
  return out;
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("CL: client-perceived service quality through a bad-network window\n");
  std::printf("  [0,10s) good | [10s,30s) leader-attack | [30s,40s) good; n=4\n");
  std::printf("==============================================================\n\n");
  std::printf("  %-22s %12s %12s %12s %10s %10s %12s %10s %10s\n", "protocol", "conf(good1)",
              "conf(bad)", "conf(good2)", "p50 ms", "p99 ms", "stuck@end", "copies", "dup copies");
  bool ok = true;
  for (auto [p, label] : {std::pair{Protocol::kDiemBft, "DiemBFT"},
                          std::pair{Protocol::kFallback3, "Ours (Fig 2)"},
                          std::pair{Protocol::kFallback2, "Ours 2-chain"}}) {
    const Outcome o = run(p, 55);
    std::printf("  %-22s %12llu %12llu %12llu %10.1f %10.1f %12llu %10llu %10llu\n", label,
                static_cast<unsigned long long>(o.confirmed_good1),
                static_cast<unsigned long long>(o.confirmed_bad),
                static_cast<unsigned long long>(o.confirmed_good2), o.p50_good_ms,
                o.p99_all_ms, static_cast<unsigned long long>(o.unconfirmed_at_end),
                static_cast<unsigned long long>(o.copies),
                static_cast<unsigned long long>(o.duplicates));
    if (o.commit_to_confirm.count > 0) {
      std::printf("  %-22s commit->confirm: p50 %.1f ms, p99 %.1f ms "
                  "(%llu blocks; ack fan-out on top of consensus)\n",
                  "", o.commit_to_confirm.p50_us / 1000.0,
                  o.commit_to_confirm.p99_us / 1000.0,
                  static_cast<unsigned long long>(o.commit_to_confirm.count));
    }
    if (o.bad_proofs > 0) {
      std::printf("  FAIL: %s rejected %llu ack proofs\n", label,
                  static_cast<unsigned long long>(o.bad_proofs));
      ok = false;
    }
    if (o.duplicates > 0) {
      std::printf("  FAIL: %s committed %llu duplicate copies\n", label,
                  static_cast<unsigned long long>(o.duplicates));
      ok = false;
    }
    if (p != Protocol::kDiemBft && o.confirmed_bad == 0) {
      std::printf("  FAIL: %s confirmed nothing in the bad window\n", label);
      ok = false;
    }
  }
  std::printf("\nReading: during the bad window DiemBFT confirms ~0 transactions\n");
  std::printf("(they pile up as stuck/in-flight until recovery); the fallback\n");
  std::printf("protocols keep confirming, at fallback (quadratic-path) latency.\n");
  return ok ? 0 : 1;
}
