// End-to-end client service demo: clients submit transactions, retry on
// silence, and confirm once f+1 replicas acknowledge the commit. Shows
// the full request path (client -> proposer mempool -> block -> commit ->
// ack -> f+1 confirmation) and client-perceived latency, including with a
// crashed replica in the mix.
//
//   $ ./build/examples/client_service
#include <algorithm>
#include <cstdio>

#include "client/client_swarm.h"

using namespace repro;
using namespace repro::client;
using namespace repro::harness;

namespace {

void run_service(const char* title, ExperimentConfig cfg) {
  ClientConfig ccfg;
  ccfg.num_clients = 6;
  ccfg.submit_interval = 40'000;  // each client submits every 40 ms

  auto pools = std::make_shared<TxnPools>(cfg.n, ccfg.max_batch_txns);
  cfg.payload_factory = [pools](ReplicaId id) { return pools->next_batch(id); };

  Experiment exp(cfg);
  ClientSwarm swarm(exp, pools, ccfg, 123);
  exp.start();
  swarm.start();
  exp.sim().run_until(30'000'000);  // 30 virtual seconds

  const ClientStats& st = swarm.stats();
  auto lats = st.confirm_latencies_us;
  std::sort(lats.begin(), lats.end());
  const double p50 = lats.empty() ? 0 : lats[lats.size() / 2] / 1000.0;
  const double p99 = lats.empty() ? 0 : lats[lats.size() * 99 / 100] / 1000.0;

  std::printf("=== %s ===\n", title);
  std::printf("  submitted=%llu confirmed=%llu in-flight=%zu retries=%llu\n",
              static_cast<unsigned long long>(st.submitted),
              static_cast<unsigned long long>(st.confirmed), swarm.in_flight(),
              static_cast<unsigned long long>(st.retries));
  std::printf("  confirm latency p50=%.1f ms  p99=%.1f ms\n", p50, p99);
  std::printf("  goodput=%.1f txn/s  client rpc: %llu requests, %llu acks, %llu bytes\n",
              st.confirmed / 30.0, static_cast<unsigned long long>(st.requests),
              static_cast<unsigned long long>(st.acks),
              static_cast<unsigned long long>(st.rpc_bytes));
  std::printf("  ledger safety: %s\n\n", exp.check_safety().ok ? "OK" : "VIOLATED");
}

}  // namespace

int main() {
  std::printf("Replicated service with real clients (n=4, f=1), 30 virtual seconds\n");
  std::printf("confirmation rule: f+1 = 2 matching commit acknowledgments\n\n");

  {
    ExperimentConfig cfg;
    cfg.n = 4;
    cfg.protocol = Protocol::kFallback3;
    cfg.seed = 1;
    run_service("healthy network, all replicas honest", cfg);
  }
  {
    ExperimentConfig cfg;
    cfg.n = 4;
    cfg.protocol = Protocol::kFallback3;
    cfg.seed = 2;
    cfg.faults[1] = core::FaultKind::kCrash;
    run_service("one crashed replica (clients retry around it)", cfg);
  }
  {
    ExperimentConfig cfg;
    cfg.n = 4;
    cfg.protocol = Protocol::kFallback3;
    cfg.scenario = NetScenario::kPartialSynchrony;
    cfg.gst = 8'000'000;
    cfg.seed = 3;
    run_service("bad network until t=8s (fallbacks keep the service up)", cfg);
  }
  return 0;
}
