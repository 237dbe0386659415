// perfbench — the repository's client-visible benchmark.
//
//   perfbench --workload <steady|leader_crash|async_storm|sim_async_n16>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--plant-ns <ns>] [--rate-scale <x>] [--work-dir <dir>]
//
// Runs one workload, checks its outputs, prints a human-readable table on
// stderr and, as the last line of stdout, one JSON object:
//   {"correct": true, "attempted": A, "failed": F, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones of a separate traced run. A failed correctness check
// prints what failed and exits 1 without a result line. perfbench/NOTES.md
// defines every metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

struct Declared {
  std::string name;
  std::string unit;
};

/// End-to-end metrics in the result line (failed_tx_frac is carried by the
/// result's attempted/failed fields; it reads 0 on a healthy run).
std::vector<Declared> end_to_end_metrics() {
  return {{"confirm_p50_ms", "ms"},     {"confirm_p99_ms", "ms"},
          {"confirmed_tx_per_s", "1/s"}, {"blocks_per_s", "1/s"},
          {"cpu_us_per_block", "us"},    {"wire_bytes_per_block", "B"},
          {"setup_s", "s"},              {"peak_rss_mb", "MiB"}};
}

std::vector<Declared> per_layer_metrics() {
  std::vector<Declared> out = {
      {"transport.self_cpu_us_per_block", "us"}, {"transport.frames_per_writev", "count"},
      {"transport.writev_per_block", "count"},   {"transport.sendq_dropped_frames", "count"},
      {"transport.rtt_us_p50", "us"},            {"transport.rtt_16k_us_p50", "us"},
  };
  for (int t = 1; t <= kNumMsgTypes; ++t) {
    out.push_back({std::string("transport.msgs_per_block.") + kMsgTypeNames[t], "count"});
  }
  for (int t = 1; t <= kNumMsgTypes; ++t) {
    out.push_back({std::string("core.handler_us_per_block.") + kMsgTypeNames[t], "us"});
  }
  for (const Declared& d : std::vector<Declared>{{"core.timer_us_per_block", "us"},
                                                 {"core.send_us_per_block", "us"},
                                                 {"core.fallback_ms_mean", "ms"},
                                                 {"core.fallbacks_per_s", "1/s"}}) {
    out.push_back(d);
  }
  for (int t = 1; t <= kNumMsgTypes; ++t) {
    out.push_back({std::string("smr.decode_ns.") + kMsgTypeNames[t], "ns"});
  }
  for (int t = 1; t <= kNumMsgTypes; ++t) {
    out.push_back({std::string("smr.encode_ns.") + kMsgTypeNames[t], "ns"});
  }
  for (const Declared& d : std::vector<Declared>{
           {"smr.decode_cache_hit_frac", "frac"},
           {"smr.batch_ref_miss_frac", "frac"},
           {"smr.batches_pulled_per_block", "count"},
           {"crypto.sign_share_us.n4", "us"},
           {"crypto.sign_share_us.n16", "us"},
           {"crypto.share_verify_us.n4", "us"},
           {"crypto.share_verify_us.n16", "us"},
           {"crypto.combine_us.n4", "us"},
           {"crypto.combine_us.n16", "us"},
           {"crypto.cert_verify_us.n4", "us"},
           {"crypto.cert_verify_us.n16", "us"},
           {"crypto.envelope_verify_us", "us"},
           {"crypto.sha256_ns_per_kib", "ns"},
           {"crypto.shares_per_block", "count"},
           {"crypto.cert_cache_hit_frac", "frac"},
           {"crypto.combine_fallback_frac", "frac"},
           {"storage.wal_appends_per_block", "count"},
           {"storage.wal_append_us_p50", "us"},
           {"storage.wal_bytes_per_append", "B"},
           {"client.queue_wait_ms_p50", "ms"},
           {"client.txns_per_block", "count"},
           {"client.resubmits_per_tx", "count"},
           {"client.useful_commit_frac", "frac"},
           {"sim.events_per_s", "1/s"},
           {"net.msgs_per_block", "count"},
           {"obs.trace_overhead_frac", "frac"},
           {"ladder.handler_coverage", "frac"},
       }) {
    out.push_back(d);
  }
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <steady|leader_crash|async_storm|sim_async_n16>\n"
               "                 --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--plant-ns <ns>] [--rate-scale <x>] [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<int>(std::strtol(value, &end, 10));
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
      if (!opt.trace && std::strcmp(value, "0") != 0) usage("--trace takes 0 or 1");
    } else if (arg == "--plant-ns") {
      opt.plant_ns = std::strtoull(value, &end, 10);
    } else if (arg == "--rate-scale") {
      opt.rate_scale = std::strtod(value, &end);
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad number for " + arg).c_str());
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.seconds < 1 || opt.seconds > 600) usage("--seconds must be in [1, 600]");
  if (!(opt.rate_scale > 0 && opt.rate_scale <= 100)) usage("--rate-scale must be in (0, 100]");
  return opt;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);

  RunResult r;
  if (opt.workload == "steady") {
    r = run_tcp_workload(TcpMode::kSteady, opt);
  } else if (opt.workload == "leader_crash") {
    r = run_tcp_workload(TcpMode::kLeaderCrash, opt);
  } else if (opt.workload == "async_storm") {
    r = run_tcp_workload(TcpMode::kAsyncStorm, opt);
  } else if (opt.workload == "sim_async_n16") {
    r = run_sim_workload(opt);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }

  for (const std::string& note : r.notes) std::fprintf(stderr, "%s\n", note.c_str());
  if (!r.check_failures.empty()) {
    for (const std::string& f : r.check_failures) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
    }
    return 1;
  }

  // Human-readable table: every end-to-end metric of the measured run
  // (traced runs measure a traced cluster), then the per-layer ones.
  std::fprintf(stderr, "workload %s seed %llu seconds %d trace %d\n", opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::fprintf(stderr, "  transactions due %llu, failed %llu, latency samples %llu\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed),
               static_cast<unsigned long long>(r.latency_samples));
  for (const auto& [name, m] : r.end_to_end.entries()) {
    const std::string samples =
        name.rfind("confirm_p", 0) == 0 ? " (n=" + std::to_string(r.latency_samples) + ")" : "";
    std::fprintf(stderr, "  %-40s %14.4f %s%s\n", name.c_str(), m.value, m.unit.c_str(),
                 samples.c_str());
  }
  for (const auto& [name, m] : r.layers.entries()) {
    std::fprintf(stderr, "  %-40s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  const std::vector<Declared> declared = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  const MetricSet& source = opt.trace ? r.layers : r.end_to_end;
  std::string json = "{\"correct\": true, \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Declared& d : declared) {
    double value = 0;  // a layer that does not run on this workload reads 0
    if (const Metric* m = source.find(d.name)) {
      if (m->unit != d.unit) {
        std::fprintf(stderr, "perfbench: unit mismatch for %s\n", d.name.c_str());
        return 1;
      }
      value = m->value;
    }
    json += std::string(first ? "" : ", ") + "\"" + d.name + "\": {\"value\": " +
            json_number(value) + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
