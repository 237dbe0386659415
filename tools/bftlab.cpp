// bftlab — command-line laboratory for the simulated protocols.
//
// Run any protocol under any network scenario with any fault mix and get
// the full metrics readout, without writing a line of C++:
//
//   $ bftlab --protocol fallback3 --net attack --n 7 --commits 50
//   $ bftlab --protocol diem --net sync --n 31 --faults crash,mute
//   $ bftlab --protocol fallback2 --net async --seconds 120 --seed 9
//
// Every run is deterministic in (arguments, seed) and ends with the
// safety + invariant checks.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/replica_base.h"
#include "harness/chaos.h"
#include "harness/experiment.h"
#include "harness/invariants.h"
#include "obs/metrics.h"

using namespace repro;
using namespace repro::harness;

namespace {

void usage() {
  std::string protocols;
  for (const ProtocolInfo& info : kProtocolTable) {
    if (!protocols.empty()) protocols += " | ";
    protocols += info.token;
  }
  std::printf(
      "usage: bftlab [options]\n"
      "       bftlab fuzz [fuzz-options]   (see bftlab fuzz --help)\n"
      "  --protocol P   %s\n"
      "                 (default fallback3)\n"
      "  --net S        sync | async | psync | attack  (default sync)\n"
      "  --n N          replicas, n = 3f+1 recommended  (default 4)\n"
      "  --commits C    run until every honest replica commits C (default 50)\n"
      "  --seconds T    cap on virtual time, seconds     (default 600)\n"
      "  --seed X       RNG seed                          (default 1)\n"
      "  --batch B      txn batch bytes per block         (default 0)\n"
      "  --timeout MS   round timer, milliseconds         (default 400)\n"
      "  --async-mean MS  mean delay for async/psync scenarios, ms\n"
      "                 (default 2000; cap tracks at 4x the mean)\n"
      "  --faults LIST  comma-separated, applied to the last replicas:\n"
      "                 none | crash | mute | equiv | withhold | spam | invalid |\n"
      "                 badshare | impersonate | forgeqc | ghost | tamperfb\n"
      "  --eager        verify every threshold share on arrival (default is\n"
      "                 optimistic combine-then-verify accumulation)\n"
      "  --wal          enable write-ahead logs\n"
      "  --quiet        metrics only, no banner\n"
      "  --trace-out F  write the merged NDJSON event trace to F\n"
      "                 (analyze with tools/tracecat)\n"
      "  --metrics-out F  write an NDJSON registry snapshot to F\n",
      protocols.c_str());
}

bool parse_net(const std::string& s, NetScenario* out) {
  if (s == "sync") *out = NetScenario::kSynchronous;
  else if (s == "async") *out = NetScenario::kAsynchronous;
  else if (s == "psync") *out = NetScenario::kPartialSynchrony;
  else if (s == "attack") *out = NetScenario::kLeaderAttack;
  else return false;
  return true;
}

/// Human names for the MsgType tags (smr/messages.h), for the breakdown.
const char* msg_type_name(std::size_t tag) {
  switch (tag) {
    case 1: return "proposal";
    case 2: return "vote";
    case 3: return "diem-timeout";
    case 4: return "diem-tc";
    case 5: return "fb-timeout";
    case 6: return "fb-proposal";
    case 7: return "fb-vote";
    case 8: return "fb-qc";
    case 9: return "coin-share";
    case 10: return "coin-qc";
    case 11: return "block-request";
    case 12: return "block-response";
    case 13: return "batch";
    case 14: return "batch-pull";
    case 15: return "batch-push";
    default: return "?";
  }
}

// ---- bftlab fuzz: the deterministic chaos fuzzer -----------------------

void usage_fuzz() {
  std::printf(
      "usage: bftlab fuzz [options]\n"
      "  --seeds N      number of schedules to run        (default 50)\n"
      "  --seed0 X      first seed of the sweep           (default 1)\n"
      "  --seconds S    wall-clock budget; stop after the current seed\n"
      "                 once exceeded (default unlimited)\n"
      "  --quick        CI smoke preset: 120 s wall budget, shrink\n"
      "                 budget 100 candidate runs\n"
      "  --plant-deferred-vote-hole\n"
      "                 open the planted catch-up vote hole in every\n"
      "                 schedule (self-test: the fuzzer must find it)\n"
      "  --no-shrink    keep failing schedules unminimized\n"
      "  --out DIR      write repro-<seed>.json per failure into DIR\n"
      "  --forensics-out DIR\n"
      "                 re-run every shrunk repro and write its\n"
      "                 flight-recorder bundle (event and metrics\n"
      "                 snapshots) into DIR\n"
      "  --json FILE    write the sweep summary as JSON to FILE\n"
      "  --replay FILE  re-execute one schedule artifact; exits nonzero\n"
      "                 unless the trace sha256 matches its pin\n"
      "  --quiet        summary only, no per-failure lines\n");
}

int run_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fuzz: cannot read '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto sched = schedule_from_json(buf.str());
  if (!sched) {
    std::fprintf(stderr, "fuzz: '%s' is not a valid schedule artifact\n", path.c_str());
    return 2;
  }
  const ChaosResult res = run_schedule(*sched);
  std::printf("replay: seed=%llu n=%u commits=%zu %s, %zu certified blocks unchecked\n",
              static_cast<unsigned long long>(sched->seed), sched->n, res.commits,
              res.ok ? "no violation" : res.failure.c_str(), res.certified_blocks_unchecked);
  std::printf("replay: trace sha256 %s\n", res.trace_sha256.c_str());
  if (sched->expect_trace_sha256.empty()) {
    std::printf("replay: artifact carries no trace pin\n");
    return 0;
  }
  if (res.trace_sha256 != sched->expect_trace_sha256) {
    std::fprintf(stderr, "replay: MISMATCH, artifact pinned %s\n",
                 sched->expect_trace_sha256.c_str());
    return 1;
  }
  std::printf("replay: byte-identical to the pinned run\n");
  return 0;
}

int run_fuzz(int argc, char** argv) {
  ChaosFuzzer::Options opt;
  std::string out_dir, json_out, replay_file;
  bool quiet = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      opt.seeds = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--seed0") {
      opt.seed0 = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--seconds") {
      opt.wall_limit_ms = static_cast<std::uint64_t>(std::atoll(next())) * 1'000;
    } else if (arg == "--quick") {
      if (opt.wall_limit_ms == 0) opt.wall_limit_ms = 120'000;
      opt.shrink_budget = 100;
    } else if (arg == "--plant-deferred-vote-hole") {
      opt.gen.plant_deferred_vote_hole = true;
    } else if (arg == "--no-shrink") {
      opt.shrink = false;
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--forensics-out") {
      opt.forensics_dir = next();
    } else if (arg == "--json") {
      json_out = next();
    } else if (arg == "--replay") {
      replay_file = next();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      usage_fuzz();
      return arg == "--help" ? 0 : 2;
    }
  }
  if (!replay_file.empty()) return run_replay(replay_file);

  ChaosFuzzer fuzzer(opt);
  const FuzzStats stats = fuzzer.run([&](std::uint64_t seed, const ChaosResult& res) {
    if (!quiet && !res.ok) {
      std::printf("fuzz: seed %llu FAILED (%s): %s\n",
                  static_cast<unsigned long long>(seed), res.failure_kind.c_str(),
                  res.failure.c_str());
    }
  });

  if (!out_dir.empty() && !stats.found.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    for (const FuzzFailure& fail : stats.found) {
      const std::string path =
          out_dir + "/repro-" + std::to_string(fail.seed) + ".json";
      std::ofstream f(path);
      if (!f) {
        std::fprintf(stderr, "fuzz: cannot write '%s'\n", path.c_str());
        return 2;
      }
      f << schedule_to_json(fail.shrunk);
      if (!quiet) {
        std::printf("fuzz: seed %llu shrunk to %zu events (%zu shrink runs) -> %s\n",
                    static_cast<unsigned long long>(fail.seed), fail.shrunk.events.size(),
                    fail.shrink_runs, path.c_str());
        if (!fail.forensics_path.empty()) {
          std::printf("fuzz: seed %llu forensics bundle -> %s\n",
                      static_cast<unsigned long long>(fail.seed),
                      fail.forensics_path.c_str());
        }
      }
    }
  }

  const double win_rate =
      stats.fallbacks_entered > 0
          ? static_cast<double>(stats.fallbacks_won) / stats.fallbacks_entered
          : 0.0;
  if (!json_out.empty()) {
    std::ofstream f(json_out);
    if (!f) {
      std::fprintf(stderr, "fuzz: cannot write '%s'\n", json_out.c_str());
      return 2;
    }
    f << "{\n";
    f << "  \"runs\": " << stats.runs << ",\n";
    f << "  \"failures\": " << stats.failures << ",\n";
    f << "  \"targets_reached\": " << stats.targets_reached << ",\n";
    f << "  \"fallbacks_entered\": " << stats.fallbacks_entered << ",\n";
    f << "  \"fallbacks_won\": " << stats.fallbacks_won << ",\n";
    f << "  \"win_rate\": " << win_rate << ",\n";
    f << "  \"certified_blocks_unchecked\": " << stats.certified_blocks_unchecked << ",\n";
    f << "  \"failure_seeds\": [";
    for (std::size_t i = 0; i < stats.found.size(); ++i) {
      f << (i > 0 ? ", " : "") << stats.found[i].seed;
    }
    f << "]\n}\n";
  }

  std::printf("fuzz: %zu runs, %zu failures, %zu reached their commit target, "
              "%zu certified blocks unchecked\n",
              stats.runs, stats.failures, stats.targets_reached,
              stats.certified_blocks_unchecked);
  std::printf("fuzz: %llu fallbacks entered, %llu won by the fallback chain "
              "(win rate %.3f, paper bound %.3f)\n",
              static_cast<unsigned long long>(stats.fallbacks_entered),
              static_cast<unsigned long long>(stats.fallbacks_won), win_rate, 2.0 / 3.0);
  return stats.failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "fuzz") == 0) return run_fuzz(argc, argv);
  ExperimentConfig cfg;
  std::size_t commits = 50;
  SimTime horizon = 600'000'000;
  bool quiet = false;
  std::string trace_out, metrics_out;
  std::vector<core::FaultKind> faults;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--protocol") {
      const auto protocol = parse_protocol(next());
      if (!protocol) { usage(); return 2; }
      cfg.protocol = *protocol;
    } else if (arg == "--net") {
      if (!parse_net(next(), &cfg.scenario)) { usage(); return 2; }
    } else if (arg == "--n") {
      cfg.n = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--commits") {
      commits = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--seconds") {
      horizon = static_cast<SimTime>(std::atoll(next())) * 1'000'000;
    } else if (arg == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--batch") {
      cfg.pcfg.batch_bytes = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--timeout") {
      cfg.pcfg.base_timeout_us = static_cast<SimTime>(std::atoll(next())) * 1'000;
    } else if (arg == "--async-mean") {
      cfg.async_mean = static_cast<SimTime>(std::atoll(next())) * 1'000;
      cfg.async_max = cfg.async_mean * 4;
    } else if (arg == "--eager") {
      cfg.pcfg.lazy_share_verify = false;
    } else if (arg == "--wal") {
      cfg.enable_wal = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--faults") {
      std::string list = next();
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok = list.substr(pos, comma - pos);
        core::FaultKind kind;
        if (!tok.empty()) {
          if (!parse_fault_token(tok, &kind)) { usage(); return 2; }
          faults.push_back(kind);
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      usage();
      return arg == "--help" ? 0 : 2;
    }
  }

  const auto f = QuorumParams::for_n(cfg.n).f;
  if (faults.size() > f) {
    std::fprintf(stderr, "refusing %zu faults with f = %u (safety is only promised for <= f)\n",
                 faults.size(), f);
    return 2;
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    cfg.faults[static_cast<ReplicaId>(cfg.n - 1 - i)] = faults[i];
  }

  if (!quiet) {
    std::printf("bftlab: %s, n=%u (f=%u), seed=%llu, target=%zu commits\n",
                protocol_name(cfg.protocol), cfg.n, f,
                static_cast<unsigned long long>(cfg.seed), commits);
  }

  if (!trace_out.empty() && cfg.trace_capacity == 0) {
    cfg.trace_capacity = 1 << 16;
  }

  Experiment exp(cfg);
  exp.start();
  const bool reached = exp.run_until_commits(commits, horizon);

  if (!trace_out.empty() && !exp.write_traces(trace_out)) {
    std::fprintf(stderr, "bftlab: cannot write trace to '%s'\n", trace_out.c_str());
    return 2;
  }
  if (!metrics_out.empty() && !exp.write_metrics(metrics_out)) {
    std::fprintf(stderr, "bftlab: cannot write metrics to '%s'\n", metrics_out.c_str());
    return 2;
  }

  const auto& st = exp.network().stats();
  const std::size_t decisions = exp.min_honest_commits();
  std::uint64_t fallbacks = 0, fb_time = 0, fb_exits = 0;
  std::uint64_t dhits = 0, dmiss = 0;
  std::uint64_t sh_verified = 0, sh_deferred = 0, sh_opt = 0, sh_fb = 0, sh_bad = 0;
  std::uint64_t sh_refused = 0;
  std::uint64_t thinned = 0, relays_skipped = 0, bad_certs = 0;
  std::size_t live_blocks = 0, live_certs = 0;
  for (ReplicaId id = 0; id < cfg.n; ++id) {
    if (!exp.is_honest(id)) continue;
    if (const auto* base = dynamic_cast<const core::ReplicaBase*>(&exp.replica(id))) {
      live_blocks = std::max(live_blocks, base->store().block_count());
      live_certs = std::max(live_certs, base->store().certificate_count());
    }
    thinned += exp.replica(id).stats().fb_votes_thinned;
    relays_skipped += exp.replica(id).stats().coin_relays_suppressed;
    bad_certs += exp.replica(id).stats().bad_certs_rejected;
    fallbacks += exp.replica(id).stats().fallbacks_entered;
    fb_exits += exp.replica(id).stats().fallbacks_exited;
    fb_time += exp.replica(id).stats().fallback_time_total_us;
    dhits += exp.replica(id).stats().decode_hits;
    dmiss += exp.replica(id).stats().decode_misses;
    sh_verified += exp.replica(id).stats().shares_verified;
    sh_deferred += exp.replica(id).stats().shares_deferred;
    sh_opt += exp.replica(id).stats().combines_optimistic;
    sh_fb += exp.replica(id).stats().combine_fallbacks;
    sh_bad += exp.replica(id).stats().bad_shares_rejected;
    sh_refused += exp.replica(id).stats().share_targets_refused;
  }

  std::printf("reached target     : %s\n", reached ? "yes" : "NO");
  std::printf("decisions          : %zu\n", decisions);
  std::printf("virtual time       : %.2f s\n", exp.sim().now() / 1e6);
  if (decisions > 0) {
    std::printf("throughput         : %.1f blocks/s\n", decisions / (exp.sim().now() / 1e6));
    std::printf("msgs per decision  : %.1f\n", double(st.messages) / decisions);
    std::printf("bytes per decision : %.1f\n", double(st.bytes) / decisions);
  }
  std::printf("total messages     : %llu (%llu bytes)\n",
              static_cast<unsigned long long>(st.messages),
              static_cast<unsigned long long>(st.bytes));
  for (std::size_t tag = 0; tag < st.messages_by_type.size(); ++tag) {
    const std::uint64_t m = st.messages_by_type[tag];
    if (m == 0) continue;
    std::printf("  %-16s : %llu msgs (%llu bytes)\n", msg_type_name(tag),
                static_cast<unsigned long long>(m),
                static_cast<unsigned long long>(st.bytes_by_type[tag]));
  }
  if (thinned + relays_skipped + bad_certs > 0) {
    std::printf("scale-out          : %llu votes thinned, %llu coin relays skipped, "
                "%llu bad certs rejected\n",
                static_cast<unsigned long long>(thinned),
                static_cast<unsigned long long>(relays_skipped),
                static_cast<unsigned long long>(bad_certs));
  }
  std::printf("self-delivery      : %llu msgs (%llu bytes), excluded from totals\n",
              static_cast<unsigned long long>(st.self_messages),
              static_cast<unsigned long long>(st.self_bytes));
  std::printf("payload decodes    : %llu full, %llu cache hits",
              static_cast<unsigned long long>(dmiss),
              static_cast<unsigned long long>(dhits));
  if (dmiss > 0) std::printf(" (%.1fx fewer parses)", double(dhits + dmiss) / dmiss);
  std::printf("\n");
  std::printf("share assembly     : %llu verified per-share, %llu deferred, "
              "%llu optimistic combines, %llu fallbacks",
              static_cast<unsigned long long>(sh_verified),
              static_cast<unsigned long long>(sh_deferred),
              static_cast<unsigned long long>(sh_opt),
              static_cast<unsigned long long>(sh_fb));
  if (sh_bad > 0) std::printf(", %llu bad shares rejected",
                              static_cast<unsigned long long>(sh_bad));
  if (sh_refused > 0) std::printf(", %llu targets refused by full pools",
                                  static_cast<unsigned long long>(sh_refused));
  std::printf("\n");
  std::printf("zero-copy multicast: %llu multicasts, %llu payload copies avoided\n",
              static_cast<unsigned long long>(st.multicasts),
              static_cast<unsigned long long>(st.payload_copies_avoided));
  std::printf("block store        : max over honest replicas %zu live blocks, "
              "%zu live certificates; audit %zu certificates, %zu headers\n",
              live_blocks, live_certs, exp.audit().size(), exp.audit().header_count());
  std::printf("fallbacks entered  : %llu", static_cast<unsigned long long>(fallbacks));
  if (fb_exits > 0) {
    std::printf(" (mean duration %.1f ms)", obs::ratio(fb_time, fb_exits) / 1000.0);
  }
  std::printf("\n");

  const SafetyReport safety = exp.check_safety();
  std::printf("safety             : %s\n", safety.ok ? "OK" : safety.detail.c_str());
  const InvariantReport inv = check_invariants(exp);
  std::printf("structural lemmas  : %s (%zu certificates, %zu certified blocks unchecked)\n",
              inv.ok ? "OK" : inv.violations.front().c_str(), inv.certificates_examined,
              inv.certified_blocks_unchecked);
  return (safety.ok && inv.ok) ? 0 : 1;
}
