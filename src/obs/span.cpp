#include "obs/span.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <set>

namespace repro::obs {
namespace {

/// Critical-path stage labels; stage i spans milestone i -> i+1.
constexpr const char* kChainStageNames[SpanChain::kMilestones - 1] = {
    "sendq_wait",   // proposal sent -> send-queue flush
    "wire",         // flush -> critical voter's socket read
    "dispatch",     // socket read -> proposal received (decoded, verified, stored)
    "vote_handler", // proposal received -> vote sent
    "quorum",       // vote send -> QC formed
    "commit_rule",  // QC formed -> commit (the k-chain rule's trailing wait)
};

}  // namespace

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

std::size_t apply_clock_offsets(std::vector<TraceEvent>& events) {
  // Last published estimate per (measurer, peer): offset = peer_clock -
  // measurer_clock. Senders only publish min-RTT-improved samples, so the
  // final one is the tightest.
  std::map<std::pair<ReplicaId, ReplicaId>, std::int64_t> pair_offset;
  ReplicaId ref = kNoPeer;
  for (const auto& ev : events) {
    if (ev.replica < ref) ref = ev.replica;
    if (ev.kind == EventKind::kClockOffset) {
      std::int64_t off = 0;
      std::memcpy(&off, &ev.aux, sizeof off);
      pair_offset[{ev.replica, ev.peer}] = off;
    }
  }
  if (pair_offset.empty() || ref == kNoPeer) return 0;

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

SpanReport analyze_spans(std::vector<TraceEvent> events) {
  SpanReport rep;
  rep.events_total = events.size();

  std::set<std::pair<ReplicaId, ReplicaId>> pairs;
  for (auto& ev : events) {
    if (ev.wall_us != 0) ev.t_us = ev.wall_us;
    if (ev.kind == EventKind::kClockOffset) pairs.insert({ev.replica, ev.peer});
  }
  rep.clock_pairs = pairs.size();
  apply_clock_offsets(events);

  struct Sent {
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
  std::map<std::uint64_t, Sent> proposals;                       // block key
  std::map<std::uint64_t, std::map<std::pair<ReplicaId, ReplicaId>, std::uint64_t>>
      flushes;                                                   // payload key
  std::map<std::uint64_t, std::map<ReplicaId, std::uint64_t>> reads;     // payload
  std::map<std::uint64_t, std::map<ReplicaId, std::uint64_t>> receipts;    // block
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
    if (ev.key == 0) continue;
    switch (ev.kind) {
      case EventKind::kProposalSent: {
        const Sent sent{ev.replica, ev.t_us, ev.aux, ev.view, ev.round};
        auto [it, fresh] = proposals.emplace(ev.key, sent);
        if (!fresh && ev.t_us < it->second.t) it->second = sent;
        break;
      }
      case EventKind::kSendFlush: {
        auto& m = flushes[ev.key];
        const auto link = std::make_pair(ev.replica, ev.peer);
        auto [it, fresh] = m.emplace(link, ev.t_us);
        if (!fresh && ev.t_us < it->second) it->second = ev.t_us;
        break;
      }
      case EventKind::kSocketRead:
        keep_min(reads[ev.key], ev.replica, ev.t_us);
        break;
      case EventKind::kProposalReceived:
        keep_min(receipts[ev.key], ev.replica, ev.t_us);
        break;
      case EventKind::kVoteSent:
        keep_min(votes[ev.key], ev.replica, ev.t_us);
        break;
      case EventKind::kQcFormed:
      case EventKind::kFBlockCertified: {
        auto [it, fresh] = qcs.emplace(ev.key, ev.t_us);
        if (!fresh && ev.t_us < it->second) it->second = ev.t_us;
        break;
      }
      case EventKind::kBlockCommitted: {
        const Commit commit{ev.t_us, ev.view, ev.round, ev.height};
        auto [it, fresh] = commits.emplace(ev.key, commit);
        if (!fresh && ev.t_us < it->second.t) it->second = commit;
        break;
      }
      case EventKind::kClientConfirm: {
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

    auto eit = proposals.find(key);
    if (eit == proposals.end()) continue;
    const Sent& sent = eit->second;
    if (commit.t < sent.t) continue;  // irreparable clock garbage

    SpanChain chain;
    chain.key = key;
    chain.view = commit.view;
    chain.round = commit.round;
    chain.height = commit.height;
    chain.proposer = sent.replica;

    // The critical voter: the latest vote at or before QC formation (the
    // one that completed the quorum); with no QC record, the latest vote.
    const auto qit = qcs.find(key);
    const std::uint64_t t_qc = qit != qcs.end() ? qit->second : 0;
    ReplicaId critical = sent.replica;
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

    chain.t[0] = sent.t;
    if (auto fit = flushes.find(sent.payload_key); fit != flushes.end()) {
      auto jt = fit->second.find(std::make_pair(sent.replica, critical));
      if (jt != fit->second.end()) chain.t[1] = jt->second;
    }
    chain.t[2] = lookup(reads, sent.payload_key, critical);
    chain.t[3] = lookup(receipts, key, critical);
    chain.t[4] = found ? best_t : 0;
    chain.t[5] = t_qc;
    chain.t[6] = commit.t;

    // Telescope: each stage measures from the previous *present* milestone,
    // so the stage sum covers send -> commit even with gaps. Negative
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
    chain.total_us = commit.t - sent.t;
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
                "events: %zu  commits: %zu  chains: %zu  clock pairs: %zu\n",
                events_total, commits_seen, chains.size(), clock_pairs);
  out += buf;
  if (chains.empty()) {
    out += "no critical-path chains (need proposal_sent + block_committed pairs)\n";
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
