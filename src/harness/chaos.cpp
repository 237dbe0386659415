#include "harness/chaos.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <utility>

#include "crypto/sha256.h"
#include "harness/invariants.h"
#include "net/delay_model.h"
#include "obs/flight.h"
#include "obs/trace.h"

namespace repro::harness {
namespace {

// ---- token tables (shared by the JSON writer and parser) ---------------

const char* kind_token(ChaosEvent::Kind k) {
  switch (k) {
    case ChaosEvent::Kind::kSetFault: return "set_fault";
    case ChaosEvent::Kind::kClearFault: return "clear_fault";
    case ChaosEvent::Kind::kRestart: return "restart";
    case ChaosEvent::Kind::kPartition: return "partition";
    case ChaosEvent::Kind::kLeaderAttack: return "leader_attack";
  }
  return "?";
}

bool parse_kind(const std::string& s, ChaosEvent::Kind* out) {
  if (s == "set_fault") *out = ChaosEvent::Kind::kSetFault;
  else if (s == "clear_fault") *out = ChaosEvent::Kind::kClearFault;
  else if (s == "restart") *out = ChaosEvent::Kind::kRestart;
  else if (s == "partition") *out = ChaosEvent::Kind::kPartition;
  else if (s == "leader_attack") *out = ChaosEvent::Kind::kLeaderAttack;
  else return false;
  return true;
}

}  // namespace

const char* fault_token(core::FaultKind k) {
  switch (k) {
    case core::FaultKind::kNone: return "none";
    case core::FaultKind::kCrash: return "crash";
    case core::FaultKind::kMuteLeader: return "mute";
    case core::FaultKind::kEquivocate: return "equiv";
    case core::FaultKind::kWithholdVotes: return "withhold";
    case core::FaultKind::kTimeoutSpam: return "spam";
    case core::FaultKind::kInvalidTxns: return "invalid";
    case core::FaultKind::kBadShares: return "badshare";
    case core::FaultKind::kImpersonateShares: return "impersonate";
    case core::FaultKind::kForgeFbQc: return "forgeqc";
    case core::FaultKind::kGhostChain: return "ghost";
    case core::FaultKind::kTamperFBlocks: return "tamperfb";
  }
  return "?";
}

bool parse_fault_token(const std::string& s, core::FaultKind* out) {
  if (s == "none") *out = core::FaultKind::kNone;
  else if (s == "crash") *out = core::FaultKind::kCrash;
  else if (s == "mute") *out = core::FaultKind::kMuteLeader;
  else if (s == "equiv") *out = core::FaultKind::kEquivocate;
  else if (s == "withhold") *out = core::FaultKind::kWithholdVotes;
  else if (s == "spam") *out = core::FaultKind::kTimeoutSpam;
  else if (s == "invalid") *out = core::FaultKind::kInvalidTxns;
  else if (s == "badshare") *out = core::FaultKind::kBadShares;
  else if (s == "impersonate") *out = core::FaultKind::kImpersonateShares;
  else if (s == "forgeqc") *out = core::FaultKind::kForgeFbQc;
  else if (s == "ghost") *out = core::FaultKind::kGhostChain;
  else if (s == "tamperfb") *out = core::FaultKind::kTamperFBlocks;
  else return false;
  return true;
}

// ---- generator ---------------------------------------------------------

ChaosSchedule generate_schedule(std::uint64_t seed, const ChaosGenOptions& opt) {
  // Decorrelate from the Experiment's own derived streams (crypto uses
  // seed ^ 0xc0ffee, network seed ^ 0x6e6574).
  Rng rng(seed ^ 0xc4a05'f00dull);
  ChaosSchedule s;
  s.seed = seed;
  s.horizon_us = opt.horizon_us;
  s.plant_deferred_vote_hole = opt.plant_deferred_vote_hole;

  static const std::uint32_t kSizes[] = {4, 4, 5, 7};
  s.n = kSizes[rng.uniform(4)];
  const std::uint32_t f = (s.n - 1) / 3;
  static const Protocol kProtocols[] = {Protocol::kFallback3,      Protocol::kFallback3,
                                        Protocol::kFallback3Adopt, Protocol::kFallback2,
                                        Protocol::kAlwaysFallback, Protocol::kDiemBft};
  s.protocol = kProtocols[rng.uniform(6)];
  s.base_timeout_us = rng.chance(0.5) ? 400'000 : 200'000;
  s.batch_bytes = rng.chance(0.5) ? 512 : 0;
  s.batch_announce = rng.chance(0.5);
  s.commit_target = 15 + rng.uniform(16);

  if (opt.plant_deferred_vote_hole) {
    // The ghost-chain attack needs the batch-reference pull path (the
    // deferred vote is the hole) and a steady state to attack; keep the
    // network synchronous so the forged chain reliably wins the
    // batch-resolution race against the real proposal's pull round-trip.
    s.protocol = rng.chance(0.5) ? Protocol::kFallback3 : Protocol::kDiemBft;
    s.batch_bytes = 512;
    s.batch_announce = false;
  }

  // Network phases: a piecewise timeline of synchronous and heavy-tail
  // regimes. Heavy means are a small multiple of the round timer — the
  // adversarial asynchrony that forces fallbacks (Lemma 7 samples).
  const std::size_t nphases = opt.plant_deferred_vote_hole ? 1 : 1 + rng.uniform(3);
  for (std::size_t i = 0; i < nphases; ++i) {
    NetPhase p;
    p.start = s.horizon_us * i / nphases;
    p.heavy = !opt.plant_deferred_vote_hole && rng.chance(0.3);
    p.mean_us = p.heavy ? s.base_timeout_us * (2 + rng.uniform(5))
                        : 20'000 + rng.uniform(60'000);
    s.phases.push_back(p);
  }

  // Timed events, generated within the same ≤f budget the runtime
  // enforces (a refused event would be dead weight in the schedule).
  std::set<ReplicaId> faulted;
  if (opt.plant_deferred_vote_hole) {
    ChaosEvent ev;
    ev.kind = ChaosEvent::Kind::kSetFault;
    ev.at = 0;
    ev.replica = s.n - 1;
    ev.fault = core::FaultKind::kGhostChain;
    s.events.push_back(ev);
    faulted.insert(ev.replica);
  }
  static const core::FaultKind kPalette[] = {
      core::FaultKind::kCrash,        core::FaultKind::kMuteLeader,
      core::FaultKind::kEquivocate,   core::FaultKind::kWithholdVotes,
      core::FaultKind::kTimeoutSpam,  core::FaultKind::kBadShares,
      core::FaultKind::kImpersonateShares, core::FaultKind::kForgeFbQc,
      core::FaultKind::kGhostChain};
  const std::size_t wanted = rng.uniform(9);  // 0..8
  for (std::size_t i = 0; i < wanted; ++i) {
    ChaosEvent ev;
    ev.at = rng.uniform(s.horizon_us * 3 / 4);
    const std::uint64_t u = rng.uniform(100);
    if (u < 35) {
      ev.kind = ChaosEvent::Kind::kSetFault;
      ev.replica = static_cast<ReplicaId>(rng.uniform(s.n));
      ev.fault = kPalette[rng.uniform(9)];
      if (faulted.count(ev.replica) == 0) {
        if (faulted.size() >= f) continue;  // budget exhausted
        faulted.insert(ev.replica);
      }
    } else if (u < 50) {
      if (faulted.empty()) continue;
      ev.kind = ChaosEvent::Kind::kClearFault;
      auto it = faulted.begin();
      std::advance(it, static_cast<long>(rng.uniform(faulted.size())));
      ev.replica = *it;
      ev.fault = core::FaultKind::kNone;
    } else if (u < 70) {
      ev.kind = ChaosEvent::Kind::kRestart;
      ev.replica = static_cast<ReplicaId>(rng.uniform(s.n));
    } else if (u < 85) {
      ev.kind = ChaosEvent::Kind::kPartition;
      ev.cut = 1 + static_cast<std::uint32_t>(rng.uniform(s.n - 1));
      ev.duration = s.base_timeout_us * (2 + rng.uniform(7));
    } else {
      ev.kind = ChaosEvent::Kind::kLeaderAttack;
      ev.duration = s.base_timeout_us * (4 + rng.uniform(9));
    }
    s.events.push_back(ev);
  }
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) { return a.at < b.at; });
  return s;
}

// ---- runner ------------------------------------------------------------

namespace {

/// Shared between the on_commit hook (installed before the Experiment
/// exists) and the run loop.
struct Watch {
  Experiment* exp = nullptr;
  bool violated = false;
  std::string detail;
  SimTime at = 0;
};

}  // namespace

ChaosResult run_schedule(const ChaosSchedule& s, const std::string& forensics_dir) {
  ExperimentConfig cfg;
  cfg.n = s.n;
  cfg.protocol = s.protocol;
  cfg.seed = s.seed;
  cfg.enable_wal = true;  // restart events need crash recovery
  cfg.trace_capacity = 1 << 14;
  cfg.pcfg.base_timeout_us = s.base_timeout_us;
  cfg.pcfg.batch_bytes = s.batch_bytes;
  cfg.pcfg.batch_announce = s.batch_announce;
  cfg.pcfg.unsafe_trust_catchup_blocks = s.plant_deferred_vote_hole;

  net::ChaosOverlayModel* overlay = nullptr;
  cfg.make_delay = [&s, &overlay]() -> std::unique_ptr<net::DelayModel> {
    std::vector<net::SwitchingModel::Phase> phases;
    if (s.phases.empty()) {
      phases.push_back({0, std::make_unique<net::SynchronousModel>(1'000, 50'000)});
    }
    for (const auto& p : s.phases) {
      std::unique_ptr<net::DelayModel> m;
      if (p.heavy) {
        m = std::make_unique<net::AsynchronousModel>(p.mean_us, 4 * p.mean_us);
      } else {
        m = std::make_unique<net::SynchronousModel>(1'000, std::max<SimTime>(p.mean_us, 2'000));
      }
      phases.push_back({p.start, std::move(m)});
    }
    auto ov = std::make_unique<net::ChaosOverlayModel>(
        std::make_unique<net::SwitchingModel>(std::move(phases)));
    overlay = ov.get();
    return ov;
  };

  // Machine-check the structural invariants (Lemmas 1-3 + commit
  // certification) at every commit, not just at the end: a transient
  // violation later masked by more commits must still fail the run.
  auto watch = std::make_shared<Watch>();
  cfg.on_commit = [watch](ReplicaId, const smr::CommitRecord&) {
    if (watch->exp == nullptr || watch->violated) return;
    const InvariantReport rep = check_invariants(*watch->exp);
    if (!rep.ok) {
      watch->violated = true;
      watch->detail = rep.violations.front();
      watch->at = watch->exp->sim().now();
    }
  };

  Experiment exp(cfg);
  watch->exp = &exp;

  // Apply the schedule. Events are bound to absolute sim times before
  // start(); replica ids are clamped so shrink candidates with lowered n
  // stay well-formed.
  for (const auto& ev : s.events) {
    const ReplicaId rid = static_cast<ReplicaId>(ev.replica % s.n);
    switch (ev.kind) {
      case ChaosEvent::Kind::kSetFault:
        exp.set_fault(rid, ev.fault, ev.at);
        break;
      case ChaosEvent::Kind::kClearFault:
        exp.set_fault(rid, core::FaultKind::kNone, ev.at);
        break;
      case ChaosEvent::Kind::kRestart:
        exp.sim().schedule_at(ev.at, [&exp, rid] { exp.restart_replica(rid); });
        break;
      case ChaosEvent::Kind::kPartition: {
        const std::uint32_t cut =
            std::clamp<std::uint32_t>(ev.cut, 1, s.n > 1 ? s.n - 1 : 1);
        std::vector<std::vector<ReplicaId>> groups(2);
        for (ReplicaId id = 0; id < s.n; ++id) groups[id < cut ? 0 : 1].push_back(id);
        const SimTime heal = ev.at + ev.duration;
        exp.sim().schedule_at(ev.at, [&overlay, groups, heal] {
          if (overlay != nullptr) overlay->set_partition(groups, heal);
        });
        break;
      }
      case ChaosEvent::Kind::kLeaderAttack: {
        const SimTime start = ev.at;
        const SimTime end = ev.at + ev.duration;
        const SimTime attack = 4 * s.base_timeout_us;
        exp.sim().schedule_at(ev.at, [&overlay, &exp, start, end, attack] {
          if (overlay == nullptr) return;
          overlay->set_attack_window(start, end, attack, [&exp] {
            std::set<ReplicaId> targets;
            for (ReplicaId id = 0; id < exp.n(); ++id) {
              if (!exp.is_honest(id)) continue;
              targets.insert(core::round_leader(exp.replica(id).current_round(), exp.n(),
                                                exp.config().pcfg.leader_rotation));
            }
            return targets;
          });
        });
        break;
      }
    }
  }

  exp.start();
  bool reached = false;
  for (;;) {
    if (watch->violated) break;
    if (s.commit_target > 0 && exp.min_honest_commits() >= s.commit_target) {
      reached = true;
      break;
    }
    if (exp.sim().now() > s.horizon_us) break;
    bool stepped = false;
    for (int i = 0; i < 512; ++i) {
      if (watch->violated || exp.sim().now() > s.horizon_us) break;
      if (!exp.sim().step()) break;
      stepped = true;
    }
    if (!stepped) break;  // event queue drained
  }

  ChaosResult res;
  res.commits = exp.min_honest_commits();
  res.reached_target = reached;
  const InvariantReport inv = check_invariants(exp);
  res.certified_blocks_unchecked = inv.certified_blocks_unchecked;
  if (watch->violated) {
    res.ok = false;
    res.failure_kind = "invariant";
    res.failure = watch->detail;
    res.failure_time_us = watch->at;
  } else {
    const SafetyReport safety = exp.check_safety();
    if (!inv.ok) {
      res.ok = false;
      res.failure_kind = "invariant";
      res.failure = inv.violations.front();
      res.failure_time_us = exp.sim().now();
    } else if (!safety.ok) {
      res.ok = false;
      res.failure_kind = "safety";
      res.failure = safety.detail;
      res.failure_time_us = exp.sim().now();
    }
  }
  const obs::TraceReport trep = obs::analyze_trace(exp.trace_events());
  res.fallbacks_entered = trep.fallbacks_entered;
  res.fallbacks_won = trep.fallbacks_won;
  res.win_rate = trep.win_rate;
  const std::string ndjson = exp.traces_ndjson();
  const BytesView view{reinterpret_cast<const std::uint8_t*>(ndjson.data()), ndjson.size()};
  res.trace_sha256 = to_hex(crypto::sha256(view));

  if (!res.ok && !forensics_dir.empty()) {
    obs::FlightRecorder::Sources src;
    src.traces = [&exp] { return exp.traces_ndjson(); };
    src.metrics = [&exp] { return exp.registry().snapshot().ndjson(); };
    src.manifest_extra = [&s, &res] {
      return ",\"seed\":" + std::to_string(s.seed) +
             ",\"n\":" + std::to_string(s.n) +
             ",\"failure_time_us\":" + std::to_string(res.failure_time_us) +
             ",\"commits\":" + std::to_string(res.commits) +
             ",\"trace_sha256\":\"" + res.trace_sha256 + "\"";
    };
    // One subdirectory per seed: a fresh recorder restarts its bundle
    // sequence at 0, so dumping straight into `forensics_dir` would make
    // every repro of a sweep overwrite the previous one's bundle.
    obs::FlightRecorder flight(forensics_dir + "/seed-" + std::to_string(s.seed),
                               src);
    res.forensics_path =
        flight.dump(res.failure_kind.empty() ? "failure" : res.failure_kind);
  }
  return res;
}

// ---- shrinking ---------------------------------------------------------

ShrinkOutcome shrink_schedule(const ChaosSchedule& failing, const ChaosResult& failure,
                              std::size_t max_runs) {
  ShrinkOutcome out;
  out.schedule = failing;
  out.result = failure;

  auto try_candidate = [&out, max_runs](ChaosSchedule cand) -> bool {
    if (out.runs >= max_runs) return false;
    ++out.runs;
    ChaosResult r = run_schedule(cand);
    if (r.ok) return false;
    out.schedule = std::move(cand);
    out.result = std::move(r);
    return true;
  };

  // 1. Events after the failure point cannot have caused it.
  if (!out.schedule.events.empty()) {
    ChaosSchedule cand = out.schedule;
    const SimTime cutoff = out.result.failure_time_us;
    cand.events.erase(std::remove_if(cand.events.begin(), cand.events.end(),
                                     [cutoff](const ChaosEvent& e) { return e.at > cutoff; }),
                      cand.events.end());
    if (cand.events.size() < out.schedule.events.size()) try_candidate(std::move(cand));
  }

  // 2. ddmin over the event list: remove chunks, halving the chunk size
  // on every full pass until single events survive.
  for (std::size_t chunk = (out.schedule.events.size() + 1) / 2; chunk >= 1;) {
    for (std::size_t i = 0; i < out.schedule.events.size() && out.runs < max_runs;) {
      ChaosSchedule cand = out.schedule;
      const std::size_t hi = std::min(i + chunk, cand.events.size());
      cand.events.erase(cand.events.begin() + static_cast<long>(i),
                        cand.events.begin() + static_cast<long>(hi));
      if (!try_candidate(std::move(cand))) i = hi;
      // On success the events shrank in place; retry the same index.
    }
    if (chunk == 1 || out.runs >= max_runs) break;
    chunk /= 2;
  }

  // 3. Collapse the network timeline to one synchronous phase.
  {
    const bool trivial = out.schedule.phases.size() == 1 && !out.schedule.phases[0].heavy;
    if (!trivial) {
      ChaosSchedule cand = out.schedule;
      cand.phases = {NetPhase{0, false, 50'000}};
      try_candidate(std::move(cand));
    }
  }

  // 4. Fewer replicas (events re-clamp at run time via replica % n).
  if (out.schedule.n > 4) {
    ChaosSchedule cand = out.schedule;
    cand.n = 4;
    for (auto& ev : cand.events) {
      ev.replica = static_cast<ReplicaId>(ev.replica % cand.n);
      ev.cut = std::min<std::uint32_t>(ev.cut, cand.n - 1);
    }
    try_candidate(std::move(cand));
  }

  // 5. Truncate the horizon to just past the failure.
  {
    const SimTime tight = out.result.failure_time_us + 2 * out.schedule.base_timeout_us;
    if (tight < out.schedule.horizon_us) {
      ChaosSchedule cand = out.schedule;
      cand.horizon_us = tight;
      try_candidate(std::move(cand));
    }
  }
  return out;
}

// ---- JSON artifacts ----------------------------------------------------

namespace {

void append_kv(std::string& o, const char* key, const std::string& val, bool quote,
               bool last = false) {
  o += "  \"";
  o += key;
  o += "\": ";
  if (quote) o += '"';
  o += val;
  if (quote) o += '"';
  if (!last) o += ',';
  o += '\n';
}

/// Minimal JSON document model. Numbers keep their raw token so 64-bit
/// seeds round-trip exactly (a double would lose precision past 2^53).
struct Jv {
  enum class T { kNull, kBool, kNum, kStr, kArr, kObj };
  T t = T::kNull;
  bool b = false;
  std::string num;
  std::string str;
  std::vector<Jv> arr;
  std::vector<std::pair<std::string, Jv>> obj;

  const Jv* get(const char* key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  std::uint64_t u64(std::uint64_t dflt = 0) const {
    return t == T::kNum ? std::strtoull(num.c_str(), nullptr, 10) : dflt;
  }
  bool boolean(bool dflt = false) const { return t == T::kBool ? b : dflt; }
};

/// Recursive-descent parser for the subset our writer emits (objects,
/// arrays, strings with simple escapes, non-negative numbers, booleans).
class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool parse(Jv* out) {
    skip();
    if (!value(out)) return false;
    skip();
    return pos_ == s_.size();
  }

 private:
  void skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool lit(const char* w) {
    const std::size_t n = std::strlen(w);
    if (s_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    return true;
  }
  bool value(Jv* out) {
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out->t = Jv::T::kStr;
      return string(&out->str);
    }
    if (lit("true")) {
      out->t = Jv::T::kBool;
      out->b = true;
      return true;
    }
    if (lit("false")) {
      out->t = Jv::T::kBool;
      out->b = false;
      return true;
    }
    if (lit("null")) return true;
    return number(out);
  }
  bool number(Jv* out) {
    const std::size_t start = pos_;
    auto numchar = [](char c) {
      return std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+' ||
             c == '.' || c == 'e' || c == 'E';
    };
    while (pos_ < s_.size() && numchar(s_[pos_])) ++pos_;
    if (pos_ == start) return false;
    out->t = Jv::T::kNum;
    out->num = s_.substr(start, pos_ - start);
    return true;
  }
  bool string(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        out->push_back(s_[pos_++]);
      } else {
        out->push_back(c);
      }
    }
    return false;
  }
  bool object(Jv* out) {
    out->t = Jv::T::kObj;
    ++pos_;
    skip();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip();
      if (pos_ >= s_.size() || s_[pos_] != '"') return false;
      std::string key;
      if (!string(&key)) return false;
      skip();
      if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
      skip();
      Jv v;
      if (!value(&v)) return false;
      out->obj.emplace_back(std::move(key), std::move(v));
      skip();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array(Jv* out) {
    out->t = Jv::T::kArr;
    ++pos_;
    skip();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip();
      Jv v;
      if (!value(&v)) return false;
      out->arr.push_back(std::move(v));
      skip();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string schedule_to_json(const ChaosSchedule& s) {
  std::string o = "{\n";
  append_kv(o, "version", std::to_string(s.version), false);
  append_kv(o, "seed", std::to_string(s.seed), false);
  append_kv(o, "n", std::to_string(s.n), false);
  append_kv(o, "protocol", protocol_token(s.protocol), true);
  append_kv(o, "horizon_us", std::to_string(s.horizon_us), false);
  append_kv(o, "commit_target", std::to_string(s.commit_target), false);
  append_kv(o, "base_timeout_us", std::to_string(s.base_timeout_us), false);
  append_kv(o, "batch_bytes", std::to_string(s.batch_bytes), false);
  append_kv(o, "batch_announce", s.batch_announce ? "true" : "false", false);
  append_kv(o, "plant_deferred_vote_hole", s.plant_deferred_vote_hole ? "true" : "false",
            false);
  o += "  \"phases\": [\n";
  for (std::size_t i = 0; i < s.phases.size(); ++i) {
    const NetPhase& p = s.phases[i];
    o += "    {\"start_us\": " + std::to_string(p.start) +
         ", \"heavy\": " + (p.heavy ? "true" : "false") +
         ", \"mean_us\": " + std::to_string(p.mean_us) + "}";
    o += i + 1 < s.phases.size() ? ",\n" : "\n";
  }
  o += "  ],\n";
  o += "  \"events\": [\n";
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const ChaosEvent& e = s.events[i];
    o += std::string("    {\"kind\": \"") + kind_token(e.kind) +
         "\", \"at_us\": " + std::to_string(e.at) +
         ", \"replica\": " + std::to_string(e.replica) + ", \"fault\": \"" +
         fault_token(e.fault) + "\", \"cut\": " + std::to_string(e.cut) +
         ", \"duration_us\": " + std::to_string(e.duration) + "}";
    o += i + 1 < s.events.size() ? ",\n" : "\n";
  }
  o += "  ],\n";
  append_kv(o, "expect_trace_sha256", s.expect_trace_sha256, true, /*last=*/true);
  o += "}\n";
  return o;
}

std::optional<ChaosSchedule> schedule_from_json(const std::string& json) {
  Jv root;
  if (!JsonParser(json).parse(&root) || root.t != Jv::T::kObj) return std::nullopt;
  ChaosSchedule s;
  auto u64_field = [&root](const char* key, std::uint64_t dflt) {
    const Jv* v = root.get(key);
    return v != nullptr ? v->u64(dflt) : dflt;
  };
  s.version = static_cast<std::uint32_t>(u64_field("version", 1));
  s.seed = u64_field("seed", 0);
  s.n = static_cast<std::uint32_t>(u64_field("n", 4));
  if (s.n < 1 || s.n > 1'000) return std::nullopt;
  if (const Jv* v = root.get("protocol"); v != nullptr) {
    const auto protocol = v->t == Jv::T::kStr ? parse_protocol(v->str) : std::nullopt;
    if (!protocol) return std::nullopt;
    s.protocol = *protocol;
  }
  s.horizon_us = u64_field("horizon_us", 60'000'000);
  s.commit_target = u64_field("commit_target", 25);
  s.base_timeout_us = u64_field("base_timeout_us", 400'000);
  s.batch_bytes = static_cast<std::uint32_t>(u64_field("batch_bytes", 0));
  if (const Jv* v = root.get("batch_announce"); v != nullptr) s.batch_announce = v->boolean(true);
  if (const Jv* v = root.get("plant_deferred_vote_hole"); v != nullptr) {
    s.plant_deferred_vote_hole = v->boolean(false);
  }
  if (const Jv* v = root.get("phases"); v != nullptr) {
    if (v->t != Jv::T::kArr || v->arr.size() > 64) return std::nullopt;
    for (const Jv& pj : v->arr) {
      if (pj.t != Jv::T::kObj) return std::nullopt;
      NetPhase p;
      if (const Jv* f = pj.get("start_us"); f != nullptr) p.start = f->u64(0);
      if (const Jv* f = pj.get("heavy"); f != nullptr) p.heavy = f->boolean(false);
      if (const Jv* f = pj.get("mean_us"); f != nullptr) p.mean_us = f->u64(50'000);
      s.phases.push_back(p);
    }
  }
  if (const Jv* v = root.get("events"); v != nullptr) {
    if (v->t != Jv::T::kArr || v->arr.size() > 4'096) return std::nullopt;
    for (const Jv& ej : v->arr) {
      if (ej.t != Jv::T::kObj) return std::nullopt;
      ChaosEvent e;
      const Jv* kind = ej.get("kind");
      if (kind == nullptr || kind->t != Jv::T::kStr || !parse_kind(kind->str, &e.kind)) {
        return std::nullopt;
      }
      if (const Jv* f = ej.get("at_us"); f != nullptr) e.at = f->u64(0);
      if (const Jv* f = ej.get("replica"); f != nullptr) {
        e.replica = static_cast<ReplicaId>(f->u64(0));
      }
      if (const Jv* f = ej.get("fault"); f != nullptr) {
        if (f->t != Jv::T::kStr || !parse_fault_token(f->str, &e.fault)) return std::nullopt;
      }
      if (const Jv* f = ej.get("cut"); f != nullptr) e.cut = static_cast<std::uint32_t>(f->u64(1));
      if (const Jv* f = ej.get("duration_us"); f != nullptr) e.duration = f->u64(0);
      s.events.push_back(e);
    }
  }
  if (const Jv* v = root.get("expect_trace_sha256"); v != nullptr) {
    if (v->t != Jv::T::kStr) return std::nullopt;
    s.expect_trace_sha256 = v->str;
  }
  return s;
}

// ---- the sweep ---------------------------------------------------------

FuzzStats ChaosFuzzer::run(const std::function<void(std::uint64_t, const ChaosResult&)>& on_progress) {
  FuzzStats st;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < opt_.seeds; ++i) {
    if (opt_.wall_limit_ms > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
      if (static_cast<std::uint64_t>(elapsed) >= opt_.wall_limit_ms) break;
    }
    const std::uint64_t seed = opt_.seed0 + i;
    const ChaosSchedule sched = generate_schedule(seed, opt_.gen);
    const ChaosResult res = run_schedule(sched);
    ++st.runs;
    st.fallbacks_entered += res.fallbacks_entered;
    st.fallbacks_won += res.fallbacks_won;
    st.certified_blocks_unchecked += res.certified_blocks_unchecked;
    if (res.reached_target) ++st.targets_reached;
    if (!res.ok) {
      ++st.failures;
      FuzzFailure fail;
      fail.seed = seed;
      if (opt_.shrink) {
        ShrinkOutcome shr = shrink_schedule(sched, res, opt_.shrink_budget);
        fail.shrunk = std::move(shr.schedule);
        fail.result = std::move(shr.result);
        fail.shrink_runs = shr.runs;
      } else {
        fail.shrunk = sched;
        fail.result = res;
      }
      fail.shrunk.expect_trace_sha256 = fail.result.trace_sha256;
      if (!opt_.forensics_dir.empty()) {
        // Re-execute the minimal repro: the bundle then captures the
        // failing run's event/metrics window next to the replayable
        // schedule artifact.
        const ChaosResult forensic = run_schedule(fail.shrunk, opt_.forensics_dir);
        fail.forensics_path = forensic.forensics_path;
      }
      st.found.push_back(std::move(fail));
    }
    if (on_progress) on_progress(seed, res);
  }
  return st;
}

}  // namespace repro::harness
