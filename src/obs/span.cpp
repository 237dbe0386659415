#include "obs/span.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <map>
#include <set>

namespace repro::obs {
namespace {

struct StageName {
  SpanStage stage;
  const char* name;
};

constexpr StageName kStageNames[] = {
    {SpanStage::kBatchAnnounce, "batch_announce"},
    {SpanStage::kProposalEncode, "proposal_encode"},
    {SpanStage::kSendFlush, "send_flush"},
    {SpanStage::kSocketRead, "socket_read"},
    {SpanStage::kDispatch, "dispatch"},
    {SpanStage::kVoteSend, "vote_send"},
    {SpanStage::kQcFormed, "qc_formed"},
    {SpanStage::kCommit, "commit"},
    {SpanStage::kClientConfirm, "client_confirm"},
    {SpanStage::kClockOffset, "clock_offset"},
};
static_assert(sizeof(kStageNames) / sizeof(kStageNames[0]) == kSpanStageCount);

/// Critical-path stage labels; stage i spans milestone i -> i+1.
constexpr const char* kChainStageNames[SpanChain::kMilestones - 1] = {
    "sendq_wait",   // proposal encode -> send-queue flush
    "wire",         // flush -> critical voter's socket read
    "dispatch",     // socket read -> proposal handler entry
    "vote_handler", // handler entry -> vote send
    "quorum",       // vote send -> QC formed
    "commit_rule",  // QC formed -> commit (the k-chain rule's trailing wait)
};

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

// Slot word packing: w0 = stage(8) | replica(28)<<8 | peer(24)<<36,
// w1 = t_us, w2 = key, w3 = aux, w4 = view(32) | round(32)<<32.
constexpr std::uint64_t kReplicaMask = (1ull << 28) - 1;
constexpr std::uint64_t kPeerMask = (1ull << 24) - 1;

std::uint64_t pack_w0(const SpanEvent& ev) {
  return static_cast<std::uint64_t>(ev.stage) |
         ((ev.replica & kReplicaMask) << 8) |
         ((static_cast<std::uint64_t>(ev.peer) & kPeerMask) << 36);
}

void unpack(const std::uint64_t w[5], SpanEvent* ev) {
  ev->stage = static_cast<SpanStage>(w[0] & 0xFF);
  ev->replica = static_cast<ReplicaId>((w[0] >> 8) & kReplicaMask);
  ev->peer = static_cast<ReplicaId>((w[0] >> 36) & kPeerMask);
  ev->t_us = w[1];
  ev->key = w[2];
  ev->aux = w[3];
  ev->view = static_cast<View>(w[4] & 0xFFFFFFFFull);
  ev->round = static_cast<Round>(w[4] >> 32);
}

std::size_t round_pow2(std::size_t v) {
  if (v == 0) return 0;
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

const char* span_stage_name(SpanStage s) {
  for (const auto& sn : kStageNames) {
    if (sn.stage == s) return sn.name;
  }
  return "?";
}

bool span_stage_from_name(const std::string& name, SpanStage* out) {
  for (const auto& sn : kStageNames) {
    if (name == sn.name) {
      *out = sn.stage;
      return true;
    }
  }
  return false;
}

const char* span_chain_stage_name(std::size_t i) {
  return i < SpanChain::kMilestones - 1 ? kChainStageNames[i] : "?";
}

std::uint64_t span_key_of(const std::uint8_t* data, std::size_t size) {
  // FNV-1a 64 over a bounded prefix; the length folds in afterwards so two
  // payloads sharing a 96-byte prefix but differing in size still split.
  std::uint64_t h = 1469598103934665603ull;
  const std::size_t n = std::min<std::size_t>(size, 96);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  h ^= static_cast<std::uint64_t>(size);
  h *= 1099511628211ull;
  return h;
}

SpanRing::SpanRing(std::size_t capacity, bool wall_clock)
    : capacity_(round_pow2(capacity)),
      mask_(capacity_ == 0 ? 0 : capacity_ - 1),
      wall_clock_(wall_clock) {
  if (capacity_ != 0) slots_ = std::make_unique<Slot[]>(capacity_);
}

void SpanRing::push(SpanEvent ev) {
  if (capacity_ == 0) return;
  if (wall_clock_) ev.t_us = wall_now_us();
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[ticket & mask_];
  // Seqlock write: invalidate, store payload, publish. Readers that race
  // with us observe seq != ticket+1 and skip the slot.
  s.seq.store(0, std::memory_order_release);
  s.w[0].store(pack_w0(ev), std::memory_order_relaxed);
  s.w[1].store(ev.t_us, std::memory_order_relaxed);
  s.w[2].store(ev.key, std::memory_order_relaxed);
  s.w[3].store(ev.aux, std::memory_order_relaxed);
  s.w[4].store((ev.view & 0xFFFFFFFFull) |
                   (static_cast<std::uint64_t>(ev.round & 0xFFFFFFFFull) << 32),
               std::memory_order_relaxed);
  s.seq.store(ticket + 1, std::memory_order_release);
}

std::vector<SpanEvent> SpanRing::events() const {
  std::vector<SpanEvent> out;
  if (capacity_ == 0) return out;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(head, capacity_);
  out.reserve(n);
  for (std::uint64_t ticket = head - n; ticket < head; ++ticket) {
    const Slot& s = slots_[ticket & mask_];
    if (s.seq.load(std::memory_order_acquire) != ticket + 1) continue;
    std::uint64_t w[5];
    for (std::size_t i = 0; i < 5; ++i) w[i] = s.w[i].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != ticket + 1) continue;
    SpanEvent ev;
    unpack(w, &ev);
    out.push_back(ev);
  }
  return out;
}

std::uint64_t SpanRing::recorded() const {
  return head_.load(std::memory_order_relaxed);
}

std::uint64_t SpanRing::dropped() const {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  return head > capacity_ ? head - capacity_ : 0;
}

std::string spans_to_ndjson(const std::vector<SpanEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96);
  for (const auto& ev : events) {
    out += "{\"stage\":\"";
    out += span_stage_name(ev.stage);
    out += "\",\"replica\":";
    append_u64(out, ev.replica);
    out += ",\"t_us\":";
    append_u64(out, ev.t_us);
    out += ",\"key\":";
    append_u64(out, ev.key);
    if (ev.view != 0) {
      out += ",\"view\":";
      append_u64(out, ev.view);
    }
    if (ev.round != 0) {
      out += ",\"round\":";
      append_u64(out, ev.round);
    }
    if (ev.aux != 0) {
      out += ",\"aux\":";
      append_u64(out, ev.aux);
    }
    if (ev.peer != kSpanNoPeer) {
      out += ",\"peer\":";
      append_u64(out, ev.peer);
    }
    out += "}\n";
  }
  return out;
}

std::vector<SpanEvent> parse_spans_ndjson(const std::string& text,
                                          std::size_t* bad_lines) {
  std::vector<SpanEvent> out;
  std::size_t bad = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    // Mixed streams are fine: trace events and meta lines are simply not
    // span lines. Only lines claiming to be spans can be malformed.
    if (line.find("\"stage\":") == std::string::npos) continue;
    std::string name;
    SpanEvent ev;
    std::uint64_t replica = 0;
    if (!json_str(line, "stage", &name) || !span_stage_from_name(name, &ev.stage) ||
        !json_u64(line, "replica", &replica) || !json_u64(line, "t_us", &ev.t_us) ||
        !json_u64(line, "key", &ev.key)) {
      ++bad;
      continue;
    }
    ev.replica = static_cast<ReplicaId>(replica);
    json_u64(line, "view", &ev.view);
    json_u64(line, "round", &ev.round);
    json_u64(line, "aux", &ev.aux);
    std::uint64_t peer = kSpanNoPeer;
    json_u64(line, "peer", &peer);
    ev.peer = static_cast<ReplicaId>(peer);
    out.push_back(ev);
  }
  if (bad_lines != nullptr) *bad_lines = bad;
  return out;
}

void sort_spans(std::vector<SpanEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.t_us != b.t_us) return a.t_us < b.t_us;
                     if (a.replica != b.replica) return a.replica < b.replica;
                     if (a.stage != b.stage) return a.stage < b.stage;
                     return a.key < b.key;
                   });
}

std::size_t apply_clock_offsets(std::vector<SpanEvent>& events) {
  // Last published estimate per (measurer, peer): offset = peer_clock -
  // measurer_clock. Senders only publish min-RTT-improved samples, so the
  // final one is the tightest.
  std::map<std::pair<ReplicaId, ReplicaId>, std::int64_t> pair_offset;
  ReplicaId ref = kSpanNoPeer;
  for (const auto& ev : events) {
    if (ev.replica < ref) ref = ev.replica;
    if (ev.stage == SpanStage::kClockOffset) {
      std::int64_t off = 0;
      std::memcpy(&off, &ev.aux, sizeof off);
      pair_offset[{ev.replica, static_cast<ReplicaId>(ev.key)}] = off;
    }
  }
  if (pair_offset.empty() || ref == kSpanNoPeer) return 0;

  // BFS the (undirected) measurement graph from the reference replica,
  // accumulating each replica's offset relative to the reference clock.
  std::map<ReplicaId, std::int64_t> rel;  // clock_r - clock_ref
  rel[ref] = 0;
  std::deque<ReplicaId> frontier{ref};
  while (!frontier.empty()) {
    const ReplicaId r = frontier.front();
    frontier.pop_front();
    const std::int64_t base = rel[r];
    for (const auto& [pair, off] : pair_offset) {
      if (pair.first == r && rel.find(pair.second) == rel.end()) {
        rel[pair.second] = base + off;
        frontier.push_back(pair.second);
      } else if (pair.second == r && rel.find(pair.first) == rel.end()) {
        rel[pair.first] = base - off;
        frontier.push_back(pair.first);
      }
    }
  }

  std::size_t adjusted = 0;
  std::set<ReplicaId> touched;
  for (auto& ev : events) {
    auto it = rel.find(ev.replica);
    if (it == rel.end() || it->second == 0) continue;
    const std::int64_t t = static_cast<std::int64_t>(ev.t_us) - it->second;
    ev.t_us = t > 0 ? static_cast<std::uint64_t>(t) : 0;
    touched.insert(ev.replica);
  }
  adjusted = touched.size();
  return adjusted;
}

SpanReport analyze_spans(std::vector<SpanEvent> events) {
  SpanReport rep;
  rep.events_total = events.size();

  std::map<std::pair<ReplicaId, ReplicaId>, bool> pairs;
  for (const auto& ev : events) {
    if (ev.stage == SpanStage::kClockOffset) {
      pairs[{ev.replica, static_cast<ReplicaId>(ev.key)}] = true;
    }
  }
  rep.clock_pairs = pairs.size();
  apply_clock_offsets(events);

  struct Encode {
    ReplicaId replica = 0;
    std::uint64_t t = 0;
    std::uint64_t payload_key = 0;
    View view = 0;
    Round round = 0;
  };
  struct Commit {
    std::uint64_t t = 0;
    View view = 0;
    Round round = 0;
    std::uint64_t height = 0;
  };
  std::map<std::uint64_t, Encode> encodes;                       // block key
  std::map<std::uint64_t, std::map<std::pair<ReplicaId, ReplicaId>, std::uint64_t>>
      flushes;                                                   // payload key
  std::map<std::uint64_t, std::map<ReplicaId, std::uint64_t>> reads;     // payload
  std::map<std::uint64_t, std::map<ReplicaId, std::uint64_t>> dispatches;  // block
  std::map<std::uint64_t, std::map<ReplicaId, std::uint64_t>> votes;       // block
  std::map<std::uint64_t, std::uint64_t> qcs;                              // block
  std::map<std::uint64_t, Commit> commits;                                 // block
  std::map<std::uint64_t, std::uint64_t> confirms;                         // block

  auto keep_min = [](std::map<ReplicaId, std::uint64_t>& m, ReplicaId r,
                     std::uint64_t t) {
    auto [it, fresh] = m.emplace(r, t);
    if (!fresh && t < it->second) it->second = t;
  };

  for (const auto& ev : events) {
    switch (ev.stage) {
      case SpanStage::kProposalEncode: {
        auto [it, fresh] = encodes.emplace(
            ev.key, Encode{ev.replica, ev.t_us, ev.aux, ev.view, ev.round});
        if (!fresh && ev.t_us < it->second.t) {
          it->second = Encode{ev.replica, ev.t_us, ev.aux, ev.view, ev.round};
        }
        break;
      }
      case SpanStage::kSendFlush: {
        auto& m = flushes[ev.key];
        const auto link = std::make_pair(ev.replica, ev.peer);
        auto [it, fresh] = m.emplace(link, ev.t_us);
        if (!fresh && ev.t_us < it->second) it->second = ev.t_us;
        break;
      }
      case SpanStage::kSocketRead:
        keep_min(reads[ev.key], ev.replica, ev.t_us);
        break;
      case SpanStage::kDispatch:
        keep_min(dispatches[ev.key], ev.replica, ev.t_us);
        break;
      case SpanStage::kVoteSend:
        keep_min(votes[ev.key], ev.replica, ev.t_us);
        break;
      case SpanStage::kQcFormed: {
        auto [it, fresh] = qcs.emplace(ev.key, ev.t_us);
        if (!fresh && ev.t_us < it->second) it->second = ev.t_us;
        break;
      }
      case SpanStage::kCommit: {
        auto [it, fresh] =
            commits.emplace(ev.key, Commit{ev.t_us, ev.view, ev.round, ev.aux});
        if (!fresh && ev.t_us < it->second.t) {
          it->second = Commit{ev.t_us, ev.view, ev.round, ev.aux};
        }
        break;
      }
      case SpanStage::kClientConfirm: {
        auto [it, fresh] = confirms.emplace(ev.key, ev.t_us);
        if (!fresh && ev.t_us < it->second) it->second = ev.t_us;
        break;
      }
      default:
        break;
    }
  }

  rep.commits_seen = commits.size();

  std::vector<std::uint64_t> stage_samples[2][SpanChain::kMilestones - 1];
  std::vector<std::uint64_t> total_samples[2];
  std::vector<std::uint64_t> confirm_samples;
  double cov_sum = 0;
  double cov_min = 2.0;

  for (const auto& [key, commit] : commits) {
    auto cit = confirms.find(key);
    if (cit != confirms.end() && cit->second >= commit.t) {
      confirm_samples.push_back(cit->second - commit.t);
    }

    auto eit = encodes.find(key);
    if (eit == encodes.end()) continue;
    const Encode& enc = eit->second;
    if (commit.t < enc.t) continue;  // irreparable clock garbage

    SpanChain chain;
    chain.key = key;
    chain.view = commit.view;
    chain.round = commit.round;
    chain.height = commit.height;
    chain.proposer = enc.replica;

    // The critical voter: the latest vote at or before QC formation (the
    // one that completed the quorum); with no QC record, the latest vote.
    const auto qit = qcs.find(key);
    const std::uint64_t t_qc = qit != qcs.end() ? qit->second : 0;
    ReplicaId critical = enc.replica;
    std::uint64_t best_t = 0;
    bool found = false;
    if (auto vit = votes.find(key); vit != votes.end()) {
      for (const auto& [r, t] : vit->second) {
        if (t_qc != 0 && t > t_qc) continue;
        if (!found || t > best_t || (t == best_t && r < critical)) {
          critical = r;
          best_t = t;
          found = true;
        }
      }
      if (!found) {  // every vote is after the QC record; take the earliest
        for (const auto& [r, t] : vit->second) {
          if (!found || t < best_t) {
            critical = r;
            best_t = t;
            found = true;
          }
        }
      }
    }
    chain.critical = critical;

    auto lookup = [](const std::map<std::uint64_t, std::map<ReplicaId, std::uint64_t>>& m,
                     std::uint64_t k, ReplicaId r) -> std::uint64_t {
      auto it = m.find(k);
      if (it == m.end()) return 0;
      auto jt = it->second.find(r);
      return jt == it->second.end() ? 0 : jt->second;
    };

    chain.t[0] = enc.t;
    if (auto fit = flushes.find(enc.payload_key); fit != flushes.end()) {
      auto jt = fit->second.find(std::make_pair(enc.replica, critical));
      if (jt != fit->second.end()) chain.t[1] = jt->second;
    }
    chain.t[2] = lookup(reads, enc.payload_key, critical);
    chain.t[3] = lookup(dispatches, key, critical);
    chain.t[4] = found ? best_t : 0;
    chain.t[5] = t_qc;
    chain.t[6] = commit.t;

    // Telescope: each stage measures from the previous *present* milestone,
    // so the stage sum covers encode -> commit even with gaps. Negative
    // steps (residual skew) clamp to zero but still advance the cursor.
    std::size_t last = 0;
    std::uint64_t sum = 0;
    for (std::size_t j = 1; j < SpanChain::kMilestones; ++j) {
      if (chain.t[j] == 0) continue;
      const std::uint64_t d =
          chain.t[j] >= chain.t[last] ? chain.t[j] - chain.t[last] : 0;
      chain.stage_us[j - 1] = d;
      chain.stage_set[j - 1] = true;
      sum += d;
      last = j;
    }
    chain.total_us = commit.t - enc.t;
    chain.coverage = chain.total_us == 0
                         ? 1.0
                         : static_cast<double>(sum) /
                               static_cast<double>(chain.total_us);

    const int side = chain.height > 0 ? 1 : 0;
    total_samples[side].push_back(chain.total_us);
    for (std::size_t i = 0; i + 1 < SpanChain::kMilestones; ++i) {
      if (chain.stage_set[i]) stage_samples[side][i].push_back(chain.stage_us[i]);
    }
    cov_sum += chain.coverage;
    cov_min = std::min(cov_min, chain.coverage);
    rep.chains.push_back(chain);
  }

  for (std::size_t i = 0; i + 1 < SpanChain::kMilestones; ++i) {
    fill_latency(&rep.stage_steady[i], std::move(stage_samples[0][i]));
    fill_latency(&rep.stage_fallback[i], std::move(stage_samples[1][i]));
  }
  fill_latency(&rep.total_steady, std::move(total_samples[0]));
  fill_latency(&rep.total_fallback, std::move(total_samples[1]));
  fill_latency(&rep.commit_to_confirm, std::move(confirm_samples));
  if (!rep.chains.empty()) {
    rep.coverage_mean = cov_sum / static_cast<double>(rep.chains.size());
    rep.coverage_min = cov_min;
  }
  return rep;
}

std::string SpanReport::summary() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "span events: %zu  commits: %zu  chains: %zu  clock pairs: %zu\n",
                events_total, commits_seen, chains.size(), clock_pairs);
  out += buf;
  if (chains.empty()) {
    out += "no critical-path chains (need kProposalEncode + kCommit pairs)\n";
    return out;
  }
  const struct {
    const char* label;
    const LatencyStats* stages;
    const LatencyStats* total;
  } sides[2] = {{"steady", stage_steady, &total_steady},
                {"fallback", stage_fallback, &total_fallback}};
  for (const auto& side : sides) {
    if (side.total->count == 0) continue;
    std::snprintf(buf, sizeof buf, "critical path (%s, n=%" PRIu64 "):\n",
                  side.label, side.total->count);
    out += buf;
    std::snprintf(buf, sizeof buf, "  %-14s %8s %10s %10s %12s\n", "stage", "n",
                  "p50_us", "p99_us", "mean_us");
    out += buf;
    for (std::size_t i = 0; i + 1 < SpanChain::kMilestones; ++i) {
      const LatencyStats& s = side.stages[i];
      if (s.count == 0) continue;
      std::snprintf(buf, sizeof buf,
                    "  %-14s %8" PRIu64 " %10" PRIu64 " %10" PRIu64 " %12.1f\n",
                    kChainStageNames[i], s.count, s.p50_us, s.p99_us, s.mean_us);
      out += buf;
    }
    std::snprintf(buf, sizeof buf,
                  "  %-14s %8" PRIu64 " %10" PRIu64 " %10" PRIu64 " %12.1f\n",
                  "total", side.total->count, side.total->p50_us,
                  side.total->p99_us, side.total->mean_us);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "coverage: mean=%.3f min=%.3f\n", coverage_mean,
                coverage_min);
  out += buf;
  if (commit_to_confirm.count > 0) {
    std::snprintf(buf, sizeof buf,
                  "commit->confirm: n=%" PRIu64 " mean=%.1fus p50=%" PRIu64
                  "us p99=%" PRIu64 "us\n",
                  commit_to_confirm.count, commit_to_confirm.mean_us,
                  commit_to_confirm.p50_us, commit_to_confirm.p99_us);
    out += buf;
  }
  return out;
}

std::string chrome_trace_json(const SpanReport& report) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    if (!first) out += ',';
    first = false;
    out += '\n';
    out += ev;
  };
  char buf[320];
  for (const auto& chain : report.chains) {
    std::size_t last = 0;
    for (std::size_t j = 1; j < SpanChain::kMilestones; ++j) {
      if (chain.t[j] == 0) continue;
      const std::size_t stage = j - 1;
      // Stages up to the wire hop run at the proposer; receive-side stages
      // at the critical voter; quorum assembly and the commit-rule wait
      // are attributed back to the proposer's lane.
      const ReplicaId tid = (stage >= 2 && stage <= 3) ? chain.critical
                                                       : chain.proposer;
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                    "\"ts\":%" PRIu64 ",\"dur\":%" PRIu64
                    ",\"args\":{\"key\":%" PRIu64 ",\"view\":%" PRIu64
                    ",\"round\":%" PRIu64 ",\"height\":%" PRIu64 "}}",
                    kChainStageNames[stage], tid, chain.t[last],
                    chain.stage_us[stage], chain.key, chain.view, chain.round,
                    chain.height);
      emit(buf);
      last = j;
    }
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"commit\",\"ph\":\"i\",\"pid\":0,\"tid\":%u,"
                  "\"ts\":%" PRIu64 ",\"s\":\"g\",\"args\":{\"key\":%" PRIu64
                  "}}",
                  chain.proposer, chain.t[SpanChain::kMilestones - 1], chain.key);
    emit(buf);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace repro::obs
