#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <set>

#include "obs/metrics.h"

namespace repro::obs {
namespace {

struct KindName {
  EventKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {EventKind::kViewEntered, "view_entered"},
    {EventKind::kProposalSent, "proposal_sent"},
    {EventKind::kProposalReceived, "proposal_received"},
    {EventKind::kVoteSent, "vote_sent"},
    {EventKind::kQcFormed, "qc_formed"},
    {EventKind::kTcFormed, "tc_formed"},
    {EventKind::kFtcFormed, "ftc_formed"},
    {EventKind::kCoinQcFormed, "coin_qc_formed"},
    {EventKind::kFallbackEntered, "fallback_entered"},
    {EventKind::kFallbackExited, "fallback_exited"},
    {EventKind::kFBlockCertified, "fblock_certified"},
    {EventKind::kChainAdopted, "chain_adopted"},
    {EventKind::kLeaderElected, "leader_elected"},
    {EventKind::kBlockCommitted, "block_committed"},
    {EventKind::kBatchAnnounced, "batch_announced"},
    {EventKind::kBatchResolved, "batch_resolved"},
    {EventKind::kSendFlush, "send_flush"},
    {EventKind::kSocketRead, "socket_read"},
    {EventKind::kClientConfirm, "client_confirm"},
    {EventKind::kClockOffset, "clock_offset"},
};
static_assert(sizeof(kKindNames) / sizeof(kKindNames[0]) == kEventKindCount);

std::uint64_t wall_now_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

/// Extract an unsigned integer field from a flat one-line JSON object.
bool json_u64(const std::string& line, const char* key, std::uint64_t* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const char* p = line.c_str() + pos + needle.size();
  char* end = nullptr;
  const unsigned long long v = std::strtoull(p, &end, 10);
  if (end == p) return false;
  *out = v;
  return true;
}

/// Extract a string field ("key":"value") from a flat JSON object. The
/// values we emit (event names) never contain escapes, so a plain scan to
/// the closing quote is sufficient.
bool json_str(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const std::size_t start = pos + needle.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return false;
  *out = line.substr(start, end - start);
  return true;
}

}  // namespace

void fill_latency(LatencyStats* out, std::vector<std::uint64_t> samples) {
  out->count = samples.size();
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  std::uint64_t sum = 0;
  for (auto s : samples) sum += s;
  out->mean_us = static_cast<double>(sum) / static_cast<double>(samples.size());
  out->p50_us = samples[samples.size() / 2];
  out->p99_us = samples[std::min(samples.size() - 1, samples.size() * 99 / 100)];
}

const char* event_name(EventKind k) {
  for (const auto& kn : kKindNames) {
    if (kn.kind == k) return kn.name;
  }
  return "?";
}

bool event_from_name(const std::string& name, EventKind* out) {
  for (const auto& kn : kKindNames) {
    if (name == kn.name) {
      *out = kn.kind;
      return true;
    }
  }
  return false;
}

TraceRing::TraceRing(std::size_t capacity, bool wall_clock)
    : capacity_(capacity), wall_clock_(wall_clock) {
  ring_.reserve(capacity_);
}

void TraceRing::push(TraceEvent ev) {
  if (capacity_ == 0) return;
  if (wall_clock_) ev.wall_us = wall_now_us();
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[next_] = ev;
    next_ = (next_ + 1) % capacity_;
  }
}

std::vector<TraceEvent> TraceRing::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // next_ points at the oldest retained event once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t TraceRing::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t TraceRing::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ - ring_.size();
}

std::string to_ndjson(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96);
  for (const auto& ev : events) {
    out += "{\"ev\":\"";
    out += event_name(ev.kind);
    out += "\",\"replica\":";
    append_u64(out, ev.replica);
    out += ",\"t_us\":";
    append_u64(out, ev.t_us);
    if (ev.wall_us != 0) {
      out += ",\"wall_us\":";
      append_u64(out, ev.wall_us);
    }
    out += ",\"view\":";
    append_u64(out, ev.view);
    out += ",\"round\":";
    append_u64(out, ev.round);
    out += ",\"height\":";
    append_u64(out, ev.height);
    out += ",\"aux\":";
    append_u64(out, ev.aux);
    if (ev.key != 0) {
      out += ",\"key\":";
      append_u64(out, ev.key);
    }
    if (ev.peer != kNoPeer) {
      out += ",\"peer\":";
      append_u64(out, ev.peer);
    }
    out += "}\n";
  }
  return out;
}

std::vector<TraceEvent> parse_ndjson(const std::string& text,
                                     std::size_t* bad_lines) {
  std::vector<TraceEvent> out;
  std::size_t bad = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    // Ring-health meta lines ride in the same files; they are not events.
    if (line.find("\"trace_meta\":") != std::string::npos) continue;
    std::string name;
    TraceEvent ev;
    std::uint64_t replica = 0;
    if (!json_str(line, "ev", &name) || !event_from_name(name, &ev.kind) ||
        !json_u64(line, "replica", &replica) || !json_u64(line, "t_us", &ev.t_us)) {
      ++bad;
      continue;
    }
    ev.replica = static_cast<ReplicaId>(replica);
    json_u64(line, "wall_us", &ev.wall_us);
    json_u64(line, "view", &ev.view);
    json_u64(line, "round", &ev.round);
    json_u64(line, "height", &ev.height);
    json_u64(line, "aux", &ev.aux);
    json_u64(line, "key", &ev.key);
    std::uint64_t peer = kNoPeer;
    json_u64(line, "peer", &peer);
    ev.peer = static_cast<ReplicaId>(peer);
    out.push_back(ev);
  }
  if (bad_lines != nullptr) *bad_lines = bad;
  return out;
}

std::string trace_meta_line(const TraceMeta& meta) {
  std::string out = "{\"trace_meta\":1,\"replica\":";
  append_u64(out, meta.replica);
  out += ",\"dropped\":";
  append_u64(out, meta.dropped);
  out += ",\"recorded\":";
  append_u64(out, meta.recorded);
  out += "}\n";
  return out;
}

bool parse_trace_meta_line(const std::string& line, TraceMeta* out) {
  if (line.find("\"trace_meta\":") == std::string::npos) return false;
  std::uint64_t replica = 0;
  TraceMeta meta;
  if (!json_u64(line, "replica", &replica) ||
      !json_u64(line, "dropped", &meta.dropped) ||
      !json_u64(line, "recorded", &meta.recorded)) {
    return false;
  }
  meta.replica = static_cast<ReplicaId>(replica);
  *out = meta;
  return true;
}

std::vector<TraceEvent> merge_traces(
    const std::vector<std::vector<TraceEvent>>& per_replica) {
  struct Tagged {
    TraceEvent ev;
    std::size_t index;  ///< arrival order within its source stream
  };
  std::vector<Tagged> all;
  std::size_t total = 0;
  for (const auto& v : per_replica) total += v.size();
  all.reserve(total);
  for (const auto& v : per_replica) {
    for (std::size_t i = 0; i < v.size(); ++i) all.push_back({v[i], i});
  }
  std::stable_sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    if (a.ev.t_us != b.ev.t_us) return a.ev.t_us < b.ev.t_us;
    if (a.ev.replica != b.ev.replica) return a.ev.replica < b.ev.replica;
    return a.index < b.index;
  });
  std::vector<TraceEvent> out;
  out.reserve(all.size());
  for (const auto& t : all) out.push_back(t.ev);
  return out;
}

TraceReport analyze_trace(const std::vector<TraceEvent>& merged) {
  TraceReport rep;
  rep.events_total = merged.size();

  // The block key identifies a proposal across replicas. A coordinate
  // does not: in a fallback every replica proposes its own f-chain at the
  // same (view, round, height).
  std::map<std::uint64_t, std::uint64_t> first_proposal;  // earliest kProposalSent
  struct Commit {
    std::uint64_t t_us;
    std::uint64_t height;
  };
  std::map<std::uint64_t, Commit> first_commit;  // earliest kBlockCommitted
  std::set<std::uint64_t> views_entered;         // views with a fallback
  std::set<std::uint64_t> views_won;             // ... that committed an f-block
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> fb_enter;
  std::vector<std::uint64_t> fb_durations;

  for (const auto& ev : merged) {
    rep.counts[static_cast<std::size_t>(ev.kind)] += 1;
    switch (ev.kind) {
      case EventKind::kProposalSent: {
        if (ev.key == 0) break;
        auto [it, inserted] = first_proposal.emplace(ev.key, ev.t_us);
        if (!inserted && ev.t_us < it->second) it->second = ev.t_us;
        break;
      }
      case EventKind::kBlockCommitted: {
        if (ev.key != 0) first_commit.emplace(ev.key, Commit{ev.t_us, ev.height});
        if (ev.height > 0) views_won.insert(ev.view);
        break;
      }
      case EventKind::kFallbackEntered: {
        views_entered.insert(ev.view);
        fb_enter.emplace(std::make_pair(std::uint64_t{ev.replica}, ev.view),
                         ev.t_us);
        break;
      }
      case EventKind::kFallbackExited: {
        auto it = fb_enter.find(
            std::make_pair(std::uint64_t{ev.replica}, ev.view));
        if (it != fb_enter.end() && ev.t_us >= it->second) {
          fb_durations.push_back(ev.t_us - it->second);
          fb_enter.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }

  std::vector<std::uint64_t> steady, fallback;
  for (const auto& [key, commit] : first_commit) {
    auto it = first_proposal.find(key);
    if (it == first_proposal.end() || commit.t_us < it->second) continue;
    (commit.height > 0 ? fallback : steady).push_back(commit.t_us - it->second);
  }
  fill_latency(&rep.steady, std::move(steady));
  fill_latency(&rep.fallback, std::move(fallback));
  fill_latency(&rep.fallback_duration, std::move(fb_durations));

  rep.fallbacks_entered = views_entered.size();
  // Only count wins for views that actually entered fallback (an f-block
  // commit implies entry, but guard against partial traces).
  std::uint64_t won = 0;
  for (auto v : views_won) {
    if (views_entered.count(v) != 0) ++won;
  }
  rep.fallbacks_won = won;
  rep.win_rate = ratio(rep.fallbacks_won, rep.fallbacks_entered);
  return rep;
}

std::string TraceReport::summary() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf, "events: %" PRIu64 "\n", events_total);
  out += buf;
  for (const auto& kn : kKindNames) {
    const std::uint64_t c = counts[static_cast<std::size_t>(kn.kind)];
    if (c == 0) continue;
    std::snprintf(buf, sizeof buf, "  %-18s %" PRIu64 "\n", kn.name, c);
    out += buf;
  }
  // Empty sample sets print no statistics: a mean of an empty histogram is
  // not 0, it does not exist (an always-fallback run has no steady-state
  // commits at all, and "mean=0.0us" there reads as an impossibly fast
  // protocol rather than an empty bucket).
  if (steady.count > 0) {
    std::snprintf(buf, sizeof buf,
                  "commit latency (steady-state): n=%" PRIu64
                  " mean=%.1fus p50=%" PRIu64 "us p99=%" PRIu64 "us\n",
                  steady.count, steady.mean_us, steady.p50_us, steady.p99_us);
  } else {
    std::snprintf(buf, sizeof buf, "commit latency (steady-state): n=0 (no samples)\n");
  }
  out += buf;
  if (fallback.count > 0) {
    std::snprintf(buf, sizeof buf,
                  "commit latency (fallback):     n=%" PRIu64
                  " mean=%.1fus p50=%" PRIu64 "us p99=%" PRIu64 "us\n",
                  fallback.count, fallback.mean_us, fallback.p50_us,
                  fallback.p99_us);
  } else {
    std::snprintf(buf, sizeof buf, "commit latency (fallback):     n=0 (no samples)\n");
  }
  out += buf;
  if (fallback_duration.count > 0) {
    std::snprintf(buf, sizeof buf,
                  "fallback duration:             n=%" PRIu64
                  " mean=%.1fus p50=%" PRIu64 "us p99=%" PRIu64 "us\n",
                  fallback_duration.count, fallback_duration.mean_us,
                  fallback_duration.p50_us, fallback_duration.p99_us);
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "fallback win rate: %" PRIu64 "/%" PRIu64
                " = %.3f (paper Lemma 7 bound: >= %.3f)\n",
                fallbacks_won, fallbacks_entered, win_rate, kPaperBound);
  out += buf;
  return out;
}

}  // namespace repro::obs
