// Commit-lifecycle span layer (DESIGN.md §15): the lock-free SpanRing,
// the NDJSON codec, clock-offset reconciliation, the critical-path
// analyzer's chain stitching and telescoping coverage guarantee, the
// Chrome-trace export, the flight recorder, and the determinism pin
// (span recording must not perturb the seeded trace stream).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "obs/flight.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace repro::obs {
namespace {

std::uint64_t as_aux(std::int64_t offset) {
  std::uint64_t aux = 0;
  std::memcpy(&aux, &offset, sizeof aux);
  return aux;
}

SpanEvent make(SpanStage stage, ReplicaId replica, std::uint64_t t,
               std::uint64_t key, std::uint64_t aux = 0,
               ReplicaId peer = kSpanNoPeer) {
  SpanEvent ev;
  ev.stage = stage;
  ev.replica = replica;
  ev.peer = peer;
  ev.t_us = t;
  ev.key = key;
  ev.aux = aux;
  return ev;
}

TEST(SpanRing, WraparoundKeepsNewestEvents) {
  SpanRing ring(8, /*wall_clock=*/false);
  ASSERT_TRUE(ring.enabled());
  EXPECT_FALSE(ring.wall_clock());
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.push(make(SpanStage::kCommit, 0, i, /*key=*/i));
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].key, 12 + i) << "ring must retain the newest 8, oldest first";
  }
}

TEST(SpanRing, ZeroCapacityDisablesRecording) {
  SpanRing ring(0);
  EXPECT_FALSE(ring.enabled());
  EXPECT_EQ(ring.capacity(), 0u);
  ring.push(SpanEvent{});
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.events().empty());
}

TEST(SpanRing, CapacityRoundsUpToPowerOfTwo) {
  SpanRing ring(100);
  EXPECT_EQ(ring.capacity(), 128u);
  EXPECT_GT(ring.approx_bytes(), 128 * sizeof(std::uint64_t) * 5);
}

/// Concurrent writers overwrite each other freely, but a reader must
/// never observe a torn slot: every snapshotted event carries the
/// writer's (key, aux) pair intact.
TEST(SpanRing, ConcurrentWritersNeverTearSlots) {
  SpanRing ring(1024, /*wall_clock=*/false);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPushes = 4000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPushes; ++i) {
        const std::uint64_t key = (static_cast<std::uint64_t>(t) << 32) | i;
        ring.push(make(SpanStage::kCommit, static_cast<ReplicaId>(t), i, key,
                       /*aux=*/key * 2 + 7));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();

  EXPECT_EQ(ring.recorded(), kThreads * kPushes);
  EXPECT_EQ(ring.dropped(), kThreads * kPushes - 1024);
  const auto events = ring.events();
  EXPECT_LE(events.size(), 1024u);
  EXPECT_GT(events.size(), 0u);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.aux, ev.key * 2 + 7) << "torn slot leaked to a reader";
    EXPECT_EQ(ev.replica, ev.key >> 32);
    EXPECT_EQ(ev.t_us, ev.key & 0xFFFFFFFFull);
  }
}

TEST(SpanKey, DeterministicAndSensitiveToContentAndLength) {
  std::uint8_t a[120];
  for (std::size_t i = 0; i < sizeof a; ++i) a[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(span_key_of(a, sizeof a), span_key_of(a, sizeof a));

  std::uint8_t b[120];
  std::memcpy(b, a, sizeof a);
  b[10] ^= 0x5a;  // flip a byte inside the hashed 96-byte prefix
  EXPECT_NE(span_key_of(a, sizeof a), span_key_of(b, sizeof b));

  // Same 96-byte prefix, different total length: the folded-in size must
  // still split them (digest-referenced proposals share long prefixes).
  EXPECT_NE(span_key_of(a, 100), span_key_of(a, 120));
}

TEST(SpanNdjson, RoundTripsAndOmitsDefaultFields) {
  std::vector<SpanEvent> events;
  SpanEvent full;
  full.stage = SpanStage::kSendFlush;
  full.replica = 3;
  full.peer = 7;
  full.t_us = 123456;
  full.key = 0xdeadbeefcafe;
  full.view = 2;
  full.round = 9;
  full.aux = 41;
  events.push_back(full);
  // All-default optional fields: view/round/aux zero, no peer.
  events.push_back(make(SpanStage::kCommit, 1, 99, /*key=*/5));

  const std::string text = spans_to_ndjson(events);
  std::istringstream lines(text);
  std::string line1, line2;
  ASSERT_TRUE(std::getline(lines, line1));
  ASSERT_TRUE(std::getline(lines, line2));
  EXPECT_NE(line1.find("\"peer\":7"), std::string::npos);
  // Optional fields are omitted when default so seeded runs emit stable
  // bytes — not serialized as zeros.
  EXPECT_EQ(line2.find("\"view\""), std::string::npos);
  EXPECT_EQ(line2.find("\"round\""), std::string::npos);
  EXPECT_EQ(line2.find("\"aux\""), std::string::npos);
  EXPECT_EQ(line2.find("\"peer\""), std::string::npos);

  std::size_t bad = 0;
  const auto parsed = parse_spans_ndjson(text, &bad);
  EXPECT_EQ(bad, 0u);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(parsed[i] == events[i]) << "event " << i;
  }
}

/// Mixed streams are the norm (forensics bundles concatenate rings):
/// trace events, meta lines, and blanks are not span lines and must be
/// skipped silently; only lines claiming to be spans can count as bad.
TEST(SpanNdjson, SkipsForeignLinesAndCountsBadSpans) {
  std::string text = spans_to_ndjson({make(SpanStage::kQcFormed, 0, 10, 42)});
  text += to_ndjson({TraceEvent{}});  // a trace line ("ev" field)
  text += trace_meta_line(TraceMeta{2, 5, 100});
  text += "\n";
  text += "{\"stage\":\"no_such_stage\",\"replica\":0,\"t_us\":1,\"key\":2}\n";
  text += "{\"stage\":\"commit\"}\n";  // claims to be a span, missing fields

  std::size_t bad = 0;
  const auto spans = parse_spans_ndjson(text, &bad);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].key, 42u);
  EXPECT_EQ(bad, 2u);

  // The trace parser makes the symmetric promise: span and meta lines in
  // its input are foreign, not malformed.
  std::size_t trace_bad = 0;
  const auto traces = parse_ndjson(text, &trace_bad);
  EXPECT_EQ(traces.size(), 1u);
  EXPECT_EQ(trace_bad, 0u);
}

TEST(SpanNdjson, StageNamesRoundTripEveryStage) {
  for (std::size_t i = 0; i < kSpanStageCount; ++i) {
    const auto stage = static_cast<SpanStage>(i);
    SpanStage back = SpanStage::kBatchAnnounce;
    ASSERT_TRUE(span_stage_from_name(span_stage_name(stage), &back));
    EXPECT_EQ(back, stage);
  }
  SpanStage unused;
  EXPECT_FALSE(span_stage_from_name("definitely_not_a_stage", &unused));
}

TEST(SpanSort, OrdersByTimeThenReplica) {
  std::vector<SpanEvent> events = {
      make(SpanStage::kCommit, 1, 50, 1),
      make(SpanStage::kCommit, 0, 50, 2),
      make(SpanStage::kVoteSend, 2, 10, 3),
  };
  sort_spans(events);
  EXPECT_EQ(events[0].t_us, 10u);
  EXPECT_EQ(events[1].replica, 0u);  // at t=50, replica 0 sorts first
  EXPECT_EQ(events[2].replica, 1u);
}

TEST(ClockOffsets, MapsEventsIntoTheReferenceClock) {
  // Replica 0 measured replica 1's clock as running 500us ahead. An event
  // stamped 1000 on replica 1's clock is 500 in replica 0's frame.
  std::vector<SpanEvent> events = {
      make(SpanStage::kClockOffset, 0, 0, /*key=peer*/ 1, as_aux(500)),
      make(SpanStage::kCommit, 1, 1000, 7),
      make(SpanStage::kCommit, 0, 600, 8),
  };
  EXPECT_EQ(apply_clock_offsets(events), 1u);
  EXPECT_EQ(events[1].t_us, 500u);
  EXPECT_EQ(events[2].t_us, 600u);  // reference replica untouched
}

TEST(ClockOffsets, BridgesTransitivelyThroughTheMeasurementGraph) {
  // 0 measured 1 at +100; 1 measured 2 at +250. Replica 2 is reachable
  // only through 1, so its events shift by 350 total. Negative results
  // clamp at zero instead of wrapping.
  std::vector<SpanEvent> events = {
      make(SpanStage::kClockOffset, 0, 0, 1, as_aux(100)),
      make(SpanStage::kClockOffset, 1, 0, 2, as_aux(250)),
      make(SpanStage::kCommit, 2, 1000, 7),
      make(SpanStage::kCommit, 2, 10, 8),
  };
  EXPECT_EQ(apply_clock_offsets(events), 2u);
  EXPECT_EQ(events[2].t_us, 650u);
  EXPECT_EQ(events[3].t_us, 0u);  // 10 - 350 clamps
}

/// One fully-instrumented block: the analyzer must pick the critical
/// voter (the latest vote at or before QC formation), stitch all seven
/// milestones, and account for every microsecond (coverage == 1).
TEST(Analyzer, StitchesAFullChainAndPicksTheCriticalVoter) {
  constexpr std::uint64_t kBlock = 0xb10c;
  constexpr std::uint64_t kPayload = 0x9a71;
  std::vector<SpanEvent> events;
  SpanEvent enc = make(SpanStage::kProposalEncode, 0, 100, kBlock, kPayload);
  enc.view = 1;
  enc.round = 3;
  events.push_back(enc);
  events.push_back(make(SpanStage::kSendFlush, 0, 110, kPayload, 0, /*peer=*/1));
  events.push_back(make(SpanStage::kSendFlush, 0, 112, kPayload, 0, /*peer=*/2));
  events.push_back(make(SpanStage::kSendFlush, 0, 114, kPayload, 0, /*peer=*/3));
  events.push_back(make(SpanStage::kSocketRead, 1, 120, kPayload, 0, /*peer=*/0));
  events.push_back(make(SpanStage::kSocketRead, 2, 122, kPayload, 0, /*peer=*/0));
  events.push_back(make(SpanStage::kDispatch, 2, 140, kBlock));
  events.push_back(make(SpanStage::kVoteSend, 1, 150, kBlock));
  events.push_back(make(SpanStage::kVoteSend, 2, 160, kBlock));
  events.push_back(make(SpanStage::kVoteSend, 3, 170, kBlock));  // after the QC
  events.push_back(make(SpanStage::kQcFormed, 0, 165, kBlock));
  SpanEvent commit = make(SpanStage::kCommit, 0, 300, kBlock);
  commit.view = 1;
  commit.round = 3;
  events.push_back(commit);
  events.push_back(make(SpanStage::kClientConfirm, 1, 350, kBlock, /*aux=*/50));

  const SpanReport rep = analyze_spans(events);
  EXPECT_EQ(rep.commits_seen, 1u);
  ASSERT_EQ(rep.chains.size(), 1u);
  const SpanChain& c = rep.chains[0];
  EXPECT_EQ(c.key, kBlock);
  EXPECT_EQ(c.view, 1u);
  EXPECT_EQ(c.round, 3u);
  EXPECT_EQ(c.proposer, 0u);
  // Votes land at 150 (r1), 160 (r2), 170 (r3); the QC formed at 165, so
  // r2's vote is the one that completed it.
  EXPECT_EQ(c.critical, 2u);

  const std::uint64_t want_t[SpanChain::kMilestones] = {100, 112, 122, 140,
                                                        160, 165, 300};
  for (std::size_t i = 0; i < SpanChain::kMilestones; ++i) {
    EXPECT_EQ(c.t[i], want_t[i]) << "milestone " << i;
  }
  const std::uint64_t want_stage[SpanChain::kMilestones - 1] = {12, 10, 18,
                                                                20, 5,  135};
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i + 1 < SpanChain::kMilestones; ++i) {
    EXPECT_TRUE(c.stage_set[i]) << span_chain_stage_name(i);
    EXPECT_EQ(c.stage_us[i], want_stage[i]) << span_chain_stage_name(i);
    sum += c.stage_us[i];
  }
  EXPECT_EQ(c.total_us, 200u);
  EXPECT_EQ(sum, c.total_us);
  EXPECT_DOUBLE_EQ(c.coverage, 1.0);
  EXPECT_DOUBLE_EQ(rep.coverage_min, 1.0);

  // Steady-state block (height 0): samples land on the steady side.
  EXPECT_EQ(rep.total_steady.count, 1u);
  EXPECT_EQ(rep.total_fallback.count, 0u);
  EXPECT_EQ(rep.total_steady.p50_us, 200u);
  ASSERT_EQ(rep.commit_to_confirm.count, 1u);
  EXPECT_EQ(rep.commit_to_confirm.p50_us, 50u);

  const std::string text = rep.summary();
  EXPECT_NE(text.find("commit_rule"), std::string::npos);
  EXPECT_NE(text.find("coverage"), std::string::npos);
}

/// Transport milestones missing entirely (the sim path, or a gappy ring):
/// stages telescope from the previous *present* milestone, so the stage
/// sum still covers the whole encode -> commit interval.
TEST(Analyzer, TelescopingCoversGapsFromMissingMilestones) {
  constexpr std::uint64_t kBlock = 0xabc;
  std::vector<SpanEvent> events;
  events.push_back(make(SpanStage::kProposalEncode, 0, 1000, kBlock, /*aux=*/777));
  events.push_back(make(SpanStage::kVoteSend, 1, 1400, kBlock));
  events.push_back(make(SpanStage::kQcFormed, 0, 1500, kBlock));
  SpanEvent commit = make(SpanStage::kCommit, 0, 2000, kBlock);
  commit.aux = 4;  // fallback height
  events.push_back(commit);

  const SpanReport rep = analyze_spans(events);
  ASSERT_EQ(rep.chains.size(), 1u);
  const SpanChain& c = rep.chains[0];
  EXPECT_EQ(c.height, 4u);
  EXPECT_FALSE(c.stage_set[0]);  // no flush
  EXPECT_FALSE(c.stage_set[1]);  // no read
  EXPECT_FALSE(c.stage_set[2]);  // no dispatch
  // vote_handler telescopes all the way back to the encode milestone.
  EXPECT_TRUE(c.stage_set[3]);
  EXPECT_EQ(c.stage_us[3], 400u);
  EXPECT_EQ(c.stage_us[4], 100u);
  EXPECT_EQ(c.stage_us[5], 500u);
  EXPECT_DOUBLE_EQ(c.coverage, 1.0);
  // Fallback block: samples land on the fallback side.
  EXPECT_EQ(rep.total_fallback.count, 1u);
  EXPECT_EQ(rep.total_steady.count, 0u);
}

TEST(Analyzer, CommitWithoutEncodeCountsButDoesNotChain) {
  const SpanReport rep =
      analyze_spans({make(SpanStage::kCommit, 0, 500, 0x1)});
  EXPECT_EQ(rep.commits_seen, 1u);
  EXPECT_TRUE(rep.chains.empty());
  EXPECT_NE(rep.summary().find("no critical-path chains"), std::string::npos);
}

TEST(ChromeTrace, EmitsOneDurationEventPerStagePlusCommitInstant) {
  constexpr std::uint64_t kBlock = 0xf00d;
  std::vector<SpanEvent> events;
  events.push_back(make(SpanStage::kProposalEncode, 0, 100, kBlock, /*aux=*/1));
  events.push_back(make(SpanStage::kVoteSend, 1, 200, kBlock));
  events.push_back(make(SpanStage::kQcFormed, 0, 250, kBlock));
  events.push_back(make(SpanStage::kCommit, 0, 400, kBlock));
  const std::string json = chrome_trace_json(analyze_spans(events));
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  std::size_t durations = 0, instants = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    ++durations;
    pos += 8;
  }
  pos = 0;
  while ((pos = json.find("\"ph\":\"i\"", pos)) != std::string::npos) {
    ++instants;
    pos += 8;
  }
  EXPECT_EQ(durations, 3u);  // vote_handler, quorum, commit_rule present
  EXPECT_EQ(instants, 1u);   // the commit marker
  EXPECT_NE(json.find("\"name\":\"commit_rule\""), std::string::npos);
}

/// The §10 contract, extended to spans: recording spans must not perturb
/// the seeded trace stream the determinism pins hash. Same seed with
/// spans off vs on -> byte-identical trace NDJSON.
TEST(Determinism, SpanRecordingDoesNotPerturbSeededTraces) {
  auto run = [](std::size_t span_capacity) {
    harness::ExperimentConfig cfg;
    cfg.n = 4;
    cfg.protocol = harness::Protocol::kFallback3;
    cfg.scenario = harness::NetScenario::kAsynchronous;
    cfg.seed = 99;
    cfg.trace_capacity = 4096;
    cfg.span_capacity = span_capacity;
    harness::Experiment exp(cfg);
    exp.start();
    exp.run_until_commits(4, 30'000'000'000ull);
    return std::pair{exp.traces_ndjson(), exp.span_events().size()};
  };
  const auto [traces_off, spans_off] = run(0);
  const auto [traces_on, spans_on] = run(1 << 14);
  ASSERT_FALSE(traces_off.empty());
  EXPECT_EQ(traces_off, traces_on);
  EXPECT_EQ(spans_off, 0u);
  EXPECT_GT(spans_on, 0u);
}

/// End-to-end over the sim harness: a seeded run's span stream must
/// stitch one chain per commit with full telescoped coverage, and the
/// NDJSON writer/parser must round-trip it.
TEST(ExperimentSpans, SeededRunStitchesChainsWithFullCoverage) {
  harness::ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = harness::Protocol::kAlwaysFallback;
  cfg.scenario = harness::NetScenario::kSynchronous;
  cfg.seed = 3;
  cfg.span_capacity = 1 << 15;
  harness::Experiment exp(cfg);
  exp.start();
  exp.run_until_commits(6, 30'000'000'000ull);

  const auto events = exp.span_events();
  ASSERT_FALSE(events.empty());
  const SpanReport rep = analyze_spans(events);
  EXPECT_GE(rep.commits_seen, 6u);
  ASSERT_FALSE(rep.chains.empty());
  EXPECT_EQ(rep.chains.size(), rep.commits_seen)
      << "every sim commit must pair with its encode record";
  // Sim time is monotone and shared, so telescoping covers everything.
  EXPECT_GE(rep.coverage_min, 0.999);
  // Always-fallback commits exclusively through certified f-blocks.
  EXPECT_GT(rep.total_fallback.count, 0u);
  EXPECT_EQ(rep.total_steady.count, 0u);

  std::size_t bad = 0;
  const auto reparsed = parse_spans_ndjson(exp.spans_ndjson(), &bad);
  EXPECT_EQ(bad, 0u);
  ASSERT_EQ(reparsed.size(), events.size());
  EXPECT_TRUE(reparsed.front() == events.front());
  EXPECT_TRUE(reparsed.back() == events.back());
}

TEST(FlightRecorderTest, WritesBundlesWithMonotonicSequenceNumbers) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "flight_recorder_test";
  std::filesystem::remove_all(dir);

  FlightRecorder::Sources sources;
  sources.traces = [] { return std::string("{\"ev\":\"propose\"}\n"); };
  sources.spans = [] { return std::string("{\"stage\":\"commit\"}\n"); };
  // No metrics source: the recorder must skip that file, not fail.
  sources.manifest_extra = [] { return std::string(",\"n\":4"); };
  FlightRecorder rec(dir.string(), sources);
  EXPECT_EQ(rec.dumps(), 0u);

  const std::string first = rec.dump("stall");
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.find("stall-0"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(first) / "trace.ndjson"));
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(first) / "spans.ndjson"));
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(first) / "metrics.ndjson"));

  std::ifstream manifest(std::filesystem::path(first) / "manifest.json");
  std::stringstream body;
  body << manifest.rdbuf();
  EXPECT_NE(body.str().find("\"reason\":\"stall\""), std::string::npos);
  EXPECT_NE(body.str().find("\"seq\":0"), std::string::npos);
  EXPECT_NE(body.str().find("\"n\":4"), std::string::npos);

  const std::string second = rec.dump("admin");
  EXPECT_NE(second.find("admin-1"), std::string::npos);
  EXPECT_EQ(rec.dumps(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(TraceMetaLine, RoundTripsAndRejectsForeignLines) {
  const TraceMeta meta{3, 17, 4096};
  const std::string line = trace_meta_line(meta);
  EXPECT_EQ(line.back(), '\n');
  TraceMeta back;
  ASSERT_TRUE(parse_trace_meta_line(line, &back));
  EXPECT_EQ(back.replica, 3u);
  EXPECT_EQ(back.dropped, 17u);
  EXPECT_EQ(back.recorded, 4096u);
  EXPECT_FALSE(parse_trace_meta_line("{\"ev\":\"propose\"}", &back));
  EXPECT_FALSE(parse_trace_meta_line("", &back));
}

}  // namespace
}  // namespace repro::obs
