// The commit lifecycle on the one event stream (DESIGN.md §10): the
// NDJSON codec's optional fields, clock-offset reconciliation, the
// critical-path analyzer's chain stitching and telescoping coverage
// guarantee, the Chrome-trace export, the flight recorder, and the
// stream-level contracts (each milestone recorded once; recording does
// not perturb a seeded run).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>
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

TraceEvent make(EventKind kind, ReplicaId replica, std::uint64_t t,
                std::uint64_t key, std::uint64_t aux = 0,
                ReplicaId peer = kNoPeer) {
  TraceEvent ev;
  ev.kind = kind;
  ev.replica = replica;
  ev.peer = peer;
  ev.t_us = t;
  ev.key = key;
  ev.aux = aux;
  return ev;
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
  std::vector<TraceEvent> events;
  TraceEvent full = make(EventKind::kSendFlush, 3, 123456, 0xdeadbeefcafe, 41, /*peer=*/7);
  full.view = 2;
  full.round = 9;
  events.push_back(full);
  // A milestone without a correlation key or peer (a view change).
  events.push_back(make(EventKind::kViewEntered, 1, 99, /*key=*/0));

  const std::string text = to_ndjson(events);
  std::istringstream lines(text);
  std::string line1, line2;
  ASSERT_TRUE(std::getline(lines, line1));
  ASSERT_TRUE(std::getline(lines, line2));
  EXPECT_NE(line1.find("\"ev\":\"send_flush\""), std::string::npos);
  EXPECT_NE(line1.find("\"key\":244837814094590"), std::string::npos);
  EXPECT_NE(line1.find("\"peer\":7"), std::string::npos);
  // key and peer are omitted when unset, so events that carry neither
  // keep the exact bytes the stream had before those fields existed.
  EXPECT_EQ(line2.find("\"key\""), std::string::npos);
  EXPECT_EQ(line2.find("\"peer\""), std::string::npos);

  std::size_t bad = 0;
  const auto parsed = parse_ndjson(text, &bad);
  EXPECT_EQ(bad, 0u);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(parsed[i] == events[i]) << "event " << i;
  }
}

/// Admin and forensics files put ring-health meta lines into the stream:
/// they are skipped silently, while unknown kinds and lines missing their
/// required fields count as malformed.
TEST(SpanNdjson, SkipsForeignLinesAndCountsBadSpans) {
  std::string text = trace_meta_line(TraceMeta{2, 5, 100});
  text += to_ndjson({make(EventKind::kQcFormed, 0, 10, 42)});
  text += "\n";
  text += "{\"ev\":\"no_such_kind\",\"replica\":0,\"t_us\":1,\"key\":2}\n";
  text += "{\"ev\":\"block_committed\"}\n";  // missing replica and t_us

  std::size_t bad = 0;
  const auto events = parse_ndjson(text, &bad);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].key, 42u);
  EXPECT_EQ(bad, 2u);
}

TEST(SpanNdjson, StageNamesRoundTripEveryStage) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    EventKind back = EventKind::kViewEntered;
    ASSERT_TRUE(event_from_name(event_name(kind), &back));
    EXPECT_EQ(back, kind);
  }
  EventKind unused;
  EXPECT_FALSE(event_from_name("definitely_not_a_kind", &unused));
}

TEST(ClockOffsets, MapsEventsIntoTheReferenceClock) {
  // Replica 0 measured replica 1's clock as running 500us ahead. An event
  // stamped 1000 on replica 1's clock is 500 in replica 0's frame.
  std::vector<TraceEvent> events = {
      make(EventKind::kClockOffset, 0, 0, 0, as_aux(500), /*peer=*/1),
      make(EventKind::kBlockCommitted, 1, 1000, 7),
      make(EventKind::kBlockCommitted, 0, 600, 8),
  };
  EXPECT_EQ(apply_clock_offsets(events), 1u);
  EXPECT_EQ(events[1].t_us, 500u);
  EXPECT_EQ(events[2].t_us, 600u);  // reference replica untouched
}

TEST(ClockOffsets, BridgesTransitivelyThroughTheMeasurementGraph) {
  // 0 measured 1 at +100; 1 measured 2 at +250. Replica 2 is reachable
  // only through 1, so its events shift by 350 total. Negative results
  // clamp at zero instead of wrapping.
  std::vector<TraceEvent> events = {
      make(EventKind::kClockOffset, 0, 0, 0, as_aux(100), /*peer=*/1),
      make(EventKind::kClockOffset, 1, 0, 0, as_aux(250), /*peer=*/2),
      make(EventKind::kBlockCommitted, 2, 1000, 7),
      make(EventKind::kBlockCommitted, 2, 10, 8),
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
  std::vector<TraceEvent> events;
  TraceEvent sent = make(EventKind::kProposalSent, 0, 100, kBlock, kPayload);
  sent.view = 1;
  sent.round = 3;
  events.push_back(sent);
  events.push_back(make(EventKind::kSendFlush, 0, 110, kPayload, 0, /*peer=*/1));
  events.push_back(make(EventKind::kSendFlush, 0, 112, kPayload, 0, /*peer=*/2));
  events.push_back(make(EventKind::kSendFlush, 0, 114, kPayload, 0, /*peer=*/3));
  events.push_back(make(EventKind::kSocketRead, 1, 120, kPayload, 0, /*peer=*/0));
  events.push_back(make(EventKind::kSocketRead, 2, 122, kPayload, 0, /*peer=*/0));
  events.push_back(make(EventKind::kProposalReceived, 2, 140, kBlock, /*aux=sender*/ 0));
  events.push_back(make(EventKind::kVoteSent, 1, 150, kBlock));
  events.push_back(make(EventKind::kVoteSent, 2, 160, kBlock));
  events.push_back(make(EventKind::kVoteSent, 3, 170, kBlock));  // after the QC
  events.push_back(make(EventKind::kQcFormed, 0, 165, kBlock));
  TraceEvent commit = make(EventKind::kBlockCommitted, 0, 300, kBlock, kBlock);
  commit.view = 1;
  commit.round = 3;
  events.push_back(commit);
  events.push_back(make(EventKind::kClientConfirm, 1, 350, kBlock, /*aux=*/50));

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
/// sum still covers the whole send -> commit interval.
TEST(Analyzer, TelescopingCoversGapsFromMissingMilestones) {
  constexpr std::uint64_t kBlock = 0xabc;
  std::vector<TraceEvent> events;
  events.push_back(make(EventKind::kProposalSent, 0, 1000, kBlock, /*aux=*/777));
  events.push_back(make(EventKind::kVoteSent, 1, 1400, kBlock));
  events.push_back(make(EventKind::kFBlockCertified, 0, 1500, kBlock));
  TraceEvent commit = make(EventKind::kBlockCommitted, 0, 2000, kBlock);
  commit.height = 4;  // a certified f-block
  events.push_back(commit);

  const SpanReport rep = analyze_spans(events);
  ASSERT_EQ(rep.chains.size(), 1u);
  const SpanChain& c = rep.chains[0];
  EXPECT_EQ(c.height, 4u);
  EXPECT_FALSE(c.stage_set[0]);  // no flush
  EXPECT_FALSE(c.stage_set[1]);  // no read
  EXPECT_FALSE(c.stage_set[2]);  // no dispatch
  // vote_handler telescopes all the way back to the proposal milestone.
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
      analyze_spans({make(EventKind::kBlockCommitted, 0, 500, 0x1)});
  EXPECT_EQ(rep.commits_seen, 1u);
  EXPECT_TRUE(rep.chains.empty());
  EXPECT_NE(rep.summary().find("no critical-path chains"), std::string::npos);
}

TEST(ChromeTrace, EmitsOneDurationEventPerStagePlusCommitInstant) {
  constexpr std::uint64_t kBlock = 0xf00d;
  std::vector<TraceEvent> events;
  events.push_back(make(EventKind::kProposalSent, 0, 100, kBlock, /*aux=*/1));
  events.push_back(make(EventKind::kVoteSent, 1, 200, kBlock));
  events.push_back(make(EventKind::kQcFormed, 0, 250, kBlock));
  events.push_back(make(EventKind::kBlockCommitted, 0, 400, kBlock));
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

harness::ExperimentConfig async_config(std::uint32_t n, std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.n = n;
  cfg.protocol = harness::Protocol::kFallback3;
  cfg.scenario = harness::NetScenario::kAsynchronous;
  cfg.seed = seed;
  return cfg;
}

/// Recording is observation only: the same seed with the event rings off
/// and on must commit the same blocks at the same virtual times.
TEST(Determinism, SpanRecordingDoesNotPerturbSeededTraces) {
  auto run = [](std::size_t trace_capacity) {
    harness::ExperimentConfig cfg = async_config(4, 99);
    cfg.trace_capacity = trace_capacity;
    harness::Experiment exp(cfg);
    exp.start();
    exp.run_until_commits(4, 30'000'000'000ull);
    std::vector<std::tuple<smr::BlockId, SimTime>> ledgers;
    for (ReplicaId id = 0; id < exp.n(); ++id) {
      for (const auto& rec : exp.replica(id).ledger().records()) {
        ledgers.emplace_back(rec.id, rec.commit_time);
      }
    }
    return std::pair{ledgers, exp.trace_events().size()};
  };
  const auto [ledgers_off, events_off] = run(0);
  const auto [ledgers_on, events_on] = run(1 << 14);
  ASSERT_FALSE(ledgers_off.empty());
  EXPECT_EQ(ledgers_off, ledgers_on);
  EXPECT_EQ(events_off, 0u);
  EXPECT_GT(events_on, 0u);
}

/// The stream records each milestone once: an n=16 asynchronous run
/// holds exactly the protocol events the trace recorded before the
/// critical-path stages joined it (63 297), not those plus a second copy
/// of proposals, votes, QCs and commits (122 891), and no event repeats.
TEST(OneStream, EachMilestoneIsRecordedOnce) {
  harness::ExperimentConfig cfg = async_config(16, 1);
  cfg.trace_capacity = 1 << 14;
  harness::Experiment exp(cfg);
  exp.start();
  ASSERT_TRUE(exp.run_until_commits(100, 100'000'000'000ull));
  for (ReplicaId id = 0; id < exp.n(); ++id) {
    ASSERT_EQ(exp.trace_ring(id)->dropped(), 0u) << "replica " << id;
  }
  const auto events = exp.trace_events();
  EXPECT_EQ(events.size(), 63'297u);
  std::set<std::tuple<EventKind, ReplicaId, SimTime, std::uint64_t>> seen;
  for (const auto& ev : events) {
    EXPECT_TRUE(seen.emplace(ev.kind, ev.replica, ev.t_us, ev.key).second)
        << event_name(ev.kind) << " at replica " << ev.replica << " t=" << ev.t_us
        << " recorded twice";
  }
}

/// End-to-end over the sim harness: a seeded run's event stream must
/// stitch one chain per commit with full telescoped coverage, and the
/// NDJSON writer/parser must round-trip it.
TEST(ExperimentSpans, SeededRunStitchesChainsWithFullCoverage) {
  harness::ExperimentConfig cfg;
  cfg.n = 4;
  cfg.protocol = harness::Protocol::kAlwaysFallback;
  cfg.scenario = harness::NetScenario::kSynchronous;
  cfg.seed = 3;
  cfg.trace_capacity = 1 << 14;
  harness::Experiment exp(cfg);
  exp.start();
  exp.run_until_commits(6, 30'000'000'000ull);

  const auto events = exp.trace_events();
  ASSERT_FALSE(events.empty());
  const SpanReport rep = analyze_spans(events);
  EXPECT_GE(rep.commits_seen, 6u);
  ASSERT_FALSE(rep.chains.empty());
  EXPECT_EQ(rep.chains.size(), rep.commits_seen)
      << "every sim commit must pair with its proposal record";
  // Sim time is monotone and shared, so telescoping covers everything.
  EXPECT_GE(rep.coverage_min, 0.999);
  // Always-fallback commits exclusively through certified f-blocks.
  EXPECT_GT(rep.total_fallback.count, 0u);
  EXPECT_EQ(rep.total_steady.count, 0u);

  std::size_t bad = 0;
  const auto reparsed = parse_ndjson(exp.traces_ndjson(), &bad);
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(reparsed, events);
}

TEST(FlightRecorderTest, WritesBundlesWithMonotonicSequenceNumbers) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "flight_recorder_test";
  std::filesystem::remove_all(dir);

  FlightRecorder::Sources sources;
  sources.traces = [] { return std::string("{\"ev\":\"propose\"}\n"); };
  // No metrics source: the recorder must skip that file, not fail.
  sources.manifest_extra = [] { return std::string(",\"n\":4"); };
  FlightRecorder rec(dir.string(), sources);
  EXPECT_EQ(rec.dumps(), 0u);

  const std::string first = rec.dump("stall");
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.find("stall-0"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(first) / "trace.ndjson"));
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
