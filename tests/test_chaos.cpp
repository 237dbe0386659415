// Chaos fuzzer (DESIGN.md §14): schedule generation and replay
// determinism, JSON artifact round-trips, the dynamic ≤f fault budget,
// and the acceptance self-test — the fuzzer must find the planted
// catch-up certificate hole and shrink it to a minimal replayable schedule.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/chaos.h"
#include "harness/invariants.h"

namespace repro {
namespace {

using harness::ChaosEvent;
using harness::ChaosFuzzer;
using harness::ChaosResult;
using harness::ChaosSchedule;
using harness::Experiment;
using harness::ExperimentConfig;
using harness::FuzzStats;
using harness::generate_schedule;
using harness::NetPhase;
using harness::Protocol;
using harness::run_schedule;
using harness::schedule_from_json;
using harness::schedule_to_json;

// ---- schedule generation ----------------------------------------------------

TEST(ChaosSchedule, GenerationIsDeterministic) {
  const ChaosSchedule a = generate_schedule(42);
  const ChaosSchedule b = generate_schedule(42);
  EXPECT_EQ(schedule_to_json(a), schedule_to_json(b));
  const ChaosSchedule c = generate_schedule(43);
  EXPECT_NE(schedule_to_json(a), schedule_to_json(c));
}

TEST(ChaosSchedule, GeneratedEventsRespectTheFaultBudget) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ChaosSchedule s = generate_schedule(seed);
    const std::uint32_t f = (s.n - 1) / 3;
    std::set<ReplicaId> faulted;
    for (const ChaosEvent& ev : s.events) {
      if (ev.kind == ChaosEvent::Kind::kSetFault) faulted.insert(ev.replica % s.n);
    }
    EXPECT_LE(faulted.size(), f) << "seed " << seed;
  }
}

TEST(ChaosSchedule, JsonRoundTrip) {
  ChaosSchedule s = generate_schedule(7);
  s.expect_trace_sha256 = "deadbeef";
  const std::string json = schedule_to_json(s);
  const auto back = schedule_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(schedule_to_json(*back), json);
  EXPECT_EQ(back->seed, s.seed);
  EXPECT_EQ(back->events.size(), s.events.size());

  EXPECT_FALSE(schedule_from_json("{").has_value());
  EXPECT_FALSE(schedule_from_json(R"({"protocol": "bogus"})").has_value());
  EXPECT_FALSE(schedule_from_json(R"({"events": [{"kind": "sabotage"}]})").has_value());
}

// ---- the runner -------------------------------------------------------------

TEST(ChaosRunner, SameScheduleSameTrace) {
  const ChaosSchedule s = generate_schedule(11);
  const ChaosResult a = run_schedule(s);
  const ChaosResult b = run_schedule(s);
  EXPECT_TRUE(a.ok) << a.failure;
  EXPECT_EQ(a.trace_sha256, b.trace_sha256);  // pure function of the schedule
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.fallbacks_entered, b.fallbacks_entered);
}

TEST(ChaosRunner, CleanSeedsHoldInvariants) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ChaosResult res = run_schedule(generate_schedule(seed));
    EXPECT_TRUE(res.ok) << "seed " << seed << " (" << res.failure_kind
                        << "): " << res.failure;
  }
}

TEST(ChaosRunner, MidRunCrashClearAndHealStaysLive) {
  // Hand-built schedule: crash a replica mid-run, un-crash it later, and
  // cut a partition in between. The run must still reach its target —
  // set_fault's un-crash edge re-arms the round timer, and the overlay
  // partition self-heals.
  ChaosSchedule s;
  s.seed = 5;
  s.n = 4;
  s.protocol = Protocol::kFallback3;
  s.horizon_us = 120'000'000;
  s.commit_target = 25;
  s.phases = {NetPhase{0, false, 50'000}};
  ChaosEvent crash;
  crash.kind = ChaosEvent::Kind::kSetFault;
  crash.at = 2'000'000;
  crash.replica = 1;
  crash.fault = core::FaultKind::kCrash;
  ChaosEvent cut;
  cut.kind = ChaosEvent::Kind::kPartition;
  cut.at = 4'000'000;
  cut.cut = 2;
  cut.duration = 1'500'000;
  ChaosEvent heal;
  heal.kind = ChaosEvent::Kind::kClearFault;
  heal.at = 8'000'000;
  heal.replica = 1;
  heal.fault = core::FaultKind::kNone;
  s.events = {crash, cut, heal};

  const ChaosResult res = run_schedule(s);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.reached_target) << "only " << res.commits << " commits";
  // Replay determinism holds for hand-built schedules too.
  EXPECT_EQ(run_schedule(s).trace_sha256, res.trace_sha256);
}

TEST(ChaosRunner, DynamicFaultBudgetIsEnforced) {
  ExperimentConfig cfg;
  cfg.n = 4;  // f = 1
  cfg.protocol = Protocol::kFallback3;
  cfg.seed = 3;
  Experiment exp(cfg);
  exp.start();
  EXPECT_TRUE(exp.set_fault(0, core::FaultKind::kMuteLeader));
  EXPECT_FALSE(exp.set_fault(1, core::FaultKind::kCrash));  // budget spent
  EXPECT_TRUE(exp.set_fault(0, core::FaultKind::kNone));    // clearing is free
  EXPECT_FALSE(exp.is_honest(0));  // ...but history taints forever
  EXPECT_FALSE(exp.set_fault(1, core::FaultKind::kCrash));  // still refused
  EXPECT_TRUE(exp.set_fault(0, core::FaultKind::kCrash));   // same replica ok
  EXPECT_FALSE(exp.set_fault(99, core::FaultKind::kCrash));  // bad id
  EXPECT_EQ(exp.ever_faulty_count(), 1u);
}

// ---- planted-bug acceptance -------------------------------------------------

// Scan plant-mode seeds until the fuzzer trips over the hole.
FuzzStats hunt_planted(std::size_t seeds) {
  ChaosFuzzer::Options opt;
  opt.seeds = seeds;
  opt.gen.plant_catchup_cert_hole = true;
  opt.shrink_budget = 100;
  return ChaosFuzzer(opt).run();
}

// The planted hole is ProtocolConfig::unsafe_trust_catchup_blocks: each
// catch-up block's parent certificate is recorded unverified.
TEST(ChaosFuzzer, FindsAndShrinksThePlantedDeferredVoteHole) {
  const FuzzStats st = hunt_planted(20);
  ASSERT_GT(st.failures, 0u) << "the fuzzer missed the planted bug";
  const harness::FuzzFailure& fail = st.found.front();
  EXPECT_FALSE(fail.result.ok);
  // Acceptance: the ghost-chain repro shrinks to a handful of events
  // (in practice exactly one — the kGhostChain fault itself).
  EXPECT_LE(fail.shrunk.events.size(), 5u);
  // The shrunk artifact replays byte-identically (the --replay contract).
  const ChaosResult replay = run_schedule(fail.shrunk);
  EXPECT_FALSE(replay.ok);
  EXPECT_EQ(replay.trace_sha256, fail.shrunk.expect_trace_sha256);
}

TEST(ChaosFuzzer, DeferredVoteGateBlocksTheSameScheduleWhenClosed) {
  // Take a schedule in which the ghost chain's forged certificates break
  // Lemma 1 with the hole open, close the hole, and re-run: catch-up then
  // only stores the ghost blocks, which is harmless.
  const FuzzStats st = hunt_planted(20);
  ASSERT_GT(st.failures, 0u);
  ChaosSchedule gated = st.found.front().shrunk;
  gated.plant_catchup_cert_hole = false;
  gated.expect_trace_sha256.clear();
  const ChaosResult res = run_schedule(gated);
  EXPECT_TRUE(res.ok) << res.failure;
}

}  // namespace
}  // namespace repro
