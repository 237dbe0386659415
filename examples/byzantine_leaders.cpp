// Byzantine-fault demo: run the fallback protocol with the maximum
// tolerated number of Byzantine replicas under several concrete attack
// behaviours, and show that safety holds and the system keeps committing.
//
//   $ ./build/examples/byzantine_leaders
#include <cstdio>

#include "harness/chaos.h"
#include "harness/experiment.h"

using namespace repro;
using namespace repro::harness;

namespace {

void demo(std::uint32_t n, std::vector<core::FaultKind> faults, NetScenario scenario,
          const char* net_name) {
  ExperimentConfig cfg;
  cfg.n = n;
  cfg.protocol = Protocol::kFallback3;
  cfg.scenario = scenario;
  cfg.seed = 33;
  std::printf("n=%u (%s), Byzantine replicas:", n, net_name);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const ReplicaId id = static_cast<ReplicaId>(n - 1 - i);
    cfg.faults[id] = faults[i];
    std::printf(" #%u=%s", id, fault_token(faults[i]));
  }
  std::printf("\n");

  Experiment exp(cfg);
  exp.start();
  const bool live = exp.run_until_commits(15, 20'000'000'000ull);
  const SafetyReport safety = exp.check_safety();

  std::uint64_t fallbacks = 0;
  for (ReplicaId id = 0; id < n; ++id) {
    if (exp.is_honest(id)) fallbacks += exp.replica(id).stats().fallbacks_entered;
  }
  std::printf("  -> commits(min honest)=%zu live=%s safety=%s fallbacks=%llu, %.1fs virtual\n\n",
              exp.min_honest_commits(), live ? "yes" : "NO",
              safety.ok ? "OK" : safety.detail.c_str(),
              static_cast<unsigned long long>(fallbacks), exp.sim().now() / 1e6);
}

}  // namespace

int main() {
  using FK = core::FaultKind;
  std::printf("Byzantine behaviours under DiemBFT + Asynchronous Fallback\n");
  std::printf("(n = 3f+1 tolerates f Byzantine replicas)\n\n");

  // f = 1 of 4, synchronous network.
  demo(4, {FK::kCrash}, NetScenario::kSynchronous, "synchronous");
  demo(4, {FK::kMuteLeader}, NetScenario::kSynchronous, "synchronous");
  demo(4, {FK::kEquivocate}, NetScenario::kSynchronous, "synchronous");
  demo(4, {FK::kWithholdVotes}, NetScenario::kSynchronous, "synchronous");
  demo(4, {FK::kTimeoutSpam}, NetScenario::kSynchronous, "synchronous");

  // f = 2 of 7, mixed behaviours.
  demo(7, {FK::kCrash, FK::kEquivocate}, NetScenario::kSynchronous, "synchronous");
  demo(7, {FK::kMuteLeader, FK::kTimeoutSpam}, NetScenario::kSynchronous, "synchronous");

  // Byzantine replicas *and* an asynchronous network at once.
  demo(7, {FK::kCrash, FK::kCrash}, NetScenario::kAsynchronous, "asynchronous");

  std::printf("All scenarios must report safety=OK; liveness holds in every case\n");
  std::printf("because faulty replicas number at most f and the fallback handles\n");
  std::printf("the network. An elected Byzantine fallback-leader merely wastes one\n");
  std::printf("view (probability <= f/n per fallback).\n");
  return 0;
}
