// tracecat — merge and analyze NDJSON event streams.
//
//   $ tracecat trace0.ndjson [trace1.ndjson ...]
//   $ bftlab --trace-out trace.ndjson ... && tracecat trace.ndjson
//   $ tracecat --critical-path trace.ndjson
//   $ tracecat --critical-path --chrome-trace out.json trace.ndjson
//
// Input files are per-replica (or pre-merged) NDJSON event streams as
// written by bftlab/benches (--trace-out) or served by bftnode's admin
// /trace endpoint. tracecat merges them into one global timeline ordered
// by (t_us, replica) and reports:
//
//   * per-kind event counts,
//   * per-commit latency (first proposal of a block key to its first
//     commit anywhere), split into steady-state rounds (height = 0) and
//     fallback rounds (height > 0),
//   * completed fallback durations (enter -> coin exit), and
//   * the observed fallback leader-win rate next to the paper's Lemma 7
//     bound (an honest leader is elected, hence the fallback commits,
//     with probability >= 2/3).
//
// `--critical-path` instead stitches per-commit critical-path chains
// (proposal sent -> critical voter -> QC -> commit) with a per-stage
// p50/p99 table split steady vs fallback. `--chrome-trace <path>`
// additionally writes the chains as a Perfetto/chrome://tracing-loadable
// JSON file.
//
// Files served by the admin endpoint carry a leading trace_meta line with
// the replica's ring-drop counters; tracecat prints them in the timeline
// header and warns when statistics were computed over a gappy
// (ring-overwritten) window.
//
// Exit status: 0 on success, 1 if no valid events were found, 2 on usage
// or I/O errors. `--merged-out <path>` additionally writes the merged
// timeline as NDJSON (useful for diffing runs).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/span.h"
#include "obs/trace.h"

using namespace repro;

namespace {

bool read_file(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_file(const char* path, const std::string& content) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0 && n == content.size();
}

/// Scan an NDJSON stream for trace_meta header lines (admin /trace and
/// flight-recorder bundles emit one per replica).
std::vector<obs::TraceMeta> collect_meta(const std::string& text) {
  std::vector<obs::TraceMeta> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    obs::TraceMeta meta;
    if (obs::parse_trace_meta_line(line, &meta)) out.push_back(meta);
    pos = end + 1;
  }
  return out;
}

void usage() {
  std::fprintf(stderr,
               "usage: tracecat [--merged-out <path>] [--critical-path]\n"
               "                [--chrome-trace <path>] <trace.ndjson>...\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> inputs;
  const char* merged_out = nullptr;
  const char* chrome_out = nullptr;
  bool critical_path = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--merged-out") == 0 && i + 1 < argc) {
      merged_out = argv[++i];
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0 && i + 1 < argc) {
      chrome_out = argv[++i];
    } else if (std::strcmp(argv[i], "--critical-path") == 0) {
      critical_path = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 2;
    } else {
      inputs.push_back(argv[i]);
    }
  }
  if (inputs.empty()) {
    usage();
    return 2;
  }

  std::vector<std::vector<obs::TraceEvent>> streams;
  std::vector<obs::TraceMeta> metas;
  std::size_t bad_total = 0;
  for (const char* path : inputs) {
    std::string text;
    if (!read_file(path, &text)) {
      std::fprintf(stderr, "tracecat: cannot read '%s'\n", path);
      return 2;
    }
    std::size_t bad = 0;
    streams.push_back(obs::parse_ndjson(text, &bad));
    bad_total += bad;
    for (const auto& meta : collect_meta(text)) metas.push_back(meta);
  }
  if (bad_total > 0) {
    std::fprintf(stderr, "tracecat: skipped %zu malformed line(s)\n", bad_total);
  }

  std::uint64_t dropped_total = 0;
  for (const auto& meta : metas) dropped_total += meta.dropped;

  auto merged = obs::merge_traces(streams);
  if (merged.empty()) {
    std::fprintf(stderr, "tracecat: no valid events in %zu input file(s)\n",
                 inputs.size());
    return 1;
  }

  if (merged_out != nullptr) {
    const std::string ndjson = obs::to_ndjson(merged);
    if (!write_file(merged_out, ndjson)) {
      std::fprintf(stderr, "tracecat: cannot write '%s'\n", merged_out);
      return 2;
    }
  }

  // Timeline header: ring-drop accounting per replica (from trace_meta
  // lines, when present), so a gappy window is visible up front.
  for (const auto& meta : metas) {
    std::printf("replica %u: recorded=%llu dropped=%llu%s\n", meta.replica,
                static_cast<unsigned long long>(meta.recorded),
                static_cast<unsigned long long>(meta.dropped),
                meta.dropped > 0 ? " (ring overwrote events)" : "");
  }
  if (dropped_total > 0) {
    std::fprintf(stderr,
                 "tracecat: warning: %llu event(s) dropped by ring overwrite — "
                 "latency statistics below are computed over a gappy window\n",
                 static_cast<unsigned long long>(dropped_total));
  }

  if (critical_path || chrome_out != nullptr) {
    obs::SpanReport report = obs::analyze_spans(std::move(merged));
    report.dropped += dropped_total;
    std::fputs(report.summary().c_str(), stdout);
    if (chrome_out != nullptr) {
      if (!write_file(chrome_out, obs::chrome_trace_json(report))) {
        std::fprintf(stderr, "tracecat: cannot write '%s'\n", chrome_out);
        return 2;
      }
      std::printf("chrome trace: %s (%zu chains)\n", chrome_out, report.chains.size());
    }
    return 0;
  }

  const obs::TraceReport report = obs::analyze_trace(merged);
  std::fputs(report.summary().c_str(), stdout);
  return 0;
}
