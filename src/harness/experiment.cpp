#include "harness/experiment.h"

#include <algorithm>
#include <cstdio>

#include "common/assert.h"

namespace repro::harness {

Experiment::Experiment(ExperimentConfig cfg) : cfg_(std::move(cfg)), audit_(cfg_.n) {
  crypto_ = crypto::CryptoSystem::deal(QuorumParams::for_n(cfg_.n), cfg_.seed ^ 0xc0ffee);
  ever_faulty_.assign(cfg_.n, 0);
  for (const auto& [id, kind] : cfg_.faults) {
    if (id < cfg_.n && kind != core::FaultKind::kNone) ever_faulty_[id] = 1;
  }
  const auto& crypto = crypto_;
  net_ = std::make_unique<net::Network>(sim_, cfg_.n, build_delay_model(),
                                        Rng(cfg_.seed ^ 0x6e6574));
  // One decode cache for the whole system: every replica observes the same
  // broadcast bytes, so each distinct payload is parsed once — not once per
  // recipient (and not at all when the sender pre-populated at encode).
  decode_cache_ = std::make_shared<smr::DecodeCache>();

  // Observability: latency histograms owned by the registry, every
  // NetStats counter attached in place (the registry reads the same
  // atomics the network increments).
  commit_latency_hist_ = &registry_.histogram("repro_commit_latency_us");
  fallback_duration_hist_ = &registry_.histogram("repro_fallback_duration_us");
  net::register_net_stats(registry_, net_->stats());

  replicas_.reserve(cfg_.n);
  for (ReplicaId id = 0; id < cfg_.n; ++id) {
    core::ReplicaContext ctx;
    ctx.sim = &sim_;
    ctx.net = net_.get();
    ctx.crypto = crypto;
    ctx.id = id;
    ctx.config = cfg_.pcfg;
    if (auto it = cfg_.faults.find(id); it != cfg_.faults.end()) {
      ctx.config.fault.kind = it->second;
    }
    ctx.seed = cfg_.seed * 1'000'003 + id;
    ctx.on_block_born = [this](const smr::BlockId& bid, SimTime t) {
      births_.emplace(bid, t);
    };
    if (cfg_.payload_factory) {
      ctx.payload_source = [this, id]() { return cfg_.payload_factory(id); };
    }
    if (cfg_.enable_wal) {
      wals_.push_back(std::make_unique<storage::MemWal>());
      ctx.wal = wals_.back().get();
    }
    ctx.decode_cache = decode_cache_;
    ctx.audit = &audit_;
    if (cfg_.trace_capacity > 0) {
      traces_.push_back(std::make_shared<obs::TraceRing>(cfg_.trace_capacity));
      ctx.trace = traces_.back();
    }
    ctx.on_commit = [this, id](const smr::CommitRecord& rec) {
      auto it = births_.find(rec.id);
      if (it != births_.end() && rec.commit_time >= it->second) {
        commit_latency_hist_->observe(rec.commit_time - it->second);
      }
      if (cfg_.on_commit) cfg_.on_commit(id, rec);
    };
    ctx.fallback_duration_hist = fallback_duration_hist_;
    ctxs_.push_back(ctx);
    replicas_.push_back(build_replica(cfg_.protocol, ctx));
    core::register_replica_stats(registry_, replicas_[id]->stats(), id);
    const obs::Labels labels{{"replica", std::to_string(id)}};
    // Gauges read through replicas_[id] at snapshot time, so they keep
    // pointing at the live instance across restart_replica.
    registry_.attach_gauge_fn("repro_committed_blocks", labels, [this, id] {
      return static_cast<std::uint64_t>(replicas_[id]->ledger().size());
    });
    registry_.attach_gauge_fn("repro_current_view", labels,
                              [this, id] { return replicas_[id]->current_view(); });
    registry_.attach_gauge_fn("repro_current_round", labels,
                              [this, id] { return replicas_[id]->current_round(); });
    // Memory audit gauges (DESIGN.md §13.4): quorum-assembly state, live
    // block-store entries (bounded by pruning, DESIGN.md §19) and the
    // preallocated trace-ring commitment, per replica.
    registry_.attach_gauge_fn("repro_share_pool_bytes", labels, [this, id] {
      return static_cast<std::uint64_t>(replicas_[id]->share_pool_bytes());
    });
    registry_.attach_gauge_fn("repro_store_live_blocks", labels, [this, id] {
      const auto* base = dynamic_cast<const core::ReplicaBase*>(replicas_[id].get());
      return static_cast<std::uint64_t>(base == nullptr ? 0 : base->store().block_count());
    });
    if (ctx.trace) {
      auto ring = ctx.trace;
      registry_.attach_gauge_fn("repro_trace_ring_bytes", labels, [ring] {
        return static_cast<std::uint64_t>(ring->approx_bytes());
      });
    }
    net_->register_handler(id, [this, id](ReplicaId from, const Bytes& payload) {
      replicas_[id]->on_message(from, payload);
    });
  }

  if (attack_model_ != nullptr) {
    // The adaptive adversary starves the leaders of every round an honest
    // replica is currently in (replicas can straddle a rotation boundary).
    attack_model_->set_targets_fn([this]() {
      std::set<ReplicaId> targets;
      for (ReplicaId id = 0; id < cfg_.n; ++id) {
        if (!is_honest(id)) continue;
        targets.insert(core::round_leader(replicas_[id]->current_round(), cfg_.n,
                                          cfg_.pcfg.leader_rotation));
      }
      return targets;
    });
  }
}

std::unique_ptr<net::DelayModel> Experiment::build_delay_model() {
  if (cfg_.make_delay) return cfg_.make_delay();
  switch (cfg_.scenario) {
    case NetScenario::kSynchronous:
      return std::make_unique<net::SynchronousModel>(cfg_.net_min_delay, cfg_.net_delta);
    case NetScenario::kAsynchronous:
      return std::make_unique<net::AsynchronousModel>(cfg_.async_mean, cfg_.async_max);
    case NetScenario::kPartialSynchrony:
      return std::make_unique<net::PartialSynchronyModel>(
          cfg_.gst, cfg_.net_min_delay, cfg_.net_delta,
          std::make_unique<net::AsynchronousModel>(cfg_.async_mean, cfg_.async_max));
    case NetScenario::kLeaderAttack: {
      auto model = std::make_unique<net::AdaptiveLeaderAttackModel>(
          cfg_.net_min_delay, cfg_.net_delta, cfg_.attack_delay);
      attack_model_ = model.get();
      return model;
    }
  }
  return nullptr;
}

void Experiment::start() {
  for (auto& r : replicas_) r->start();
}

bool Experiment::restart_replica(ReplicaId id) {
  // Recoverable refusals, not asserts: generated churn schedules probe
  // configurations (WAL-off runs, shrunk replica counts) where a restart
  // is meaningless, and the run must fail soft instead of aborting.
  if (id >= replicas_.size()) return false;
  if (!cfg_.enable_wal) return false;
  // The old instance cannot be destroyed immediately: pending simulator
  // callbacks (timers) capture its `this`. Halt it — every entry point
  // becomes a no-op — and park it until the Experiment dies. Network
  // deliveries route through replicas_[id], so they reach the new
  // instance; the WAL-recovered replica rejoins from its durable state.
  // Halting also retires the old store's certified blocks into the audit,
  // so the checker, which reads only live instances, still finds the
  // bodies of the certificates the old one recorded.
  replicas_[id]->halt();
  // Whoever reads the ledger (a client swarm acking commits) keeps reading
  // it through the restart.
  smr::Ledger::CommitCallback on_commit = replicas_[id]->ledger().commit_callback();
  parked_.push_back(std::move(replicas_[id]));
  replicas_[id] = build_replica(cfg_.protocol, ctxs_[id]);
  replicas_[id]->ledger().set_commit_callback(std::move(on_commit));
  // The new instance owns fresh counter storage; re-attach it under the
  // same metric identity (the registry replaces the old pointers).
  core::register_replica_stats(registry_, replicas_[id]->stats(), id);
  replicas_[id]->start();
  return true;
}

std::size_t Experiment::ever_faulty_count() const {
  std::size_t c = 0;
  for (char v : ever_faulty_) c += v != 0;
  return c;
}

bool Experiment::set_fault(ReplicaId id, core::FaultKind kind) {
  if (id >= replicas_.size()) return false;
  if (kind != core::FaultKind::kNone && !ever_faulty_[id]) {
    // ≤f budget over the run's history: corrupting an f+1-th distinct
    // replica would exceed the adversary the protocol is proved against.
    if (ever_faulty_count() >= crypto_->params.f) return false;
    ever_faulty_[id] = 1;
  }
  core::FaultSpec spec;
  spec.kind = kind;
  // Keep the construction context in sync so a later restart_replica
  // rebuilds the instance with its current fault, not the original one.
  ctxs_[id].config.fault = spec;
  replicas_[id]->set_fault(spec);
  return true;
}

void Experiment::set_fault(ReplicaId id, core::FaultKind kind, SimTime at) {
  sim_.schedule_at(at, [this, id, kind] { set_fault(id, kind); });
}

bool Experiment::is_honest(ReplicaId id) const {
  // Judged against history: a replica that was Byzantine for any part of
  // the run stays outside the safety/liveness guarantees even after its
  // fault is cleared (its earlier equivocations are still in the wild).
  return id < ever_faulty_.size() && ever_faulty_[id] == 0;
}

std::size_t Experiment::min_honest_commits() const {
  std::size_t m = SIZE_MAX;
  for (ReplicaId id = 0; id < cfg_.n; ++id) {
    if (is_honest(id)) m = std::min(m, replicas_[id]->ledger().size());
  }
  return m == SIZE_MAX ? 0 : m;
}

std::size_t Experiment::max_honest_commits() const {
  std::size_t m = 0;
  for (ReplicaId id = 0; id < cfg_.n; ++id) {
    if (is_honest(id)) m = std::max(m, replicas_[id]->ledger().size());
  }
  return m;
}

bool Experiment::run_until_commits(std::size_t target, SimTime max_time) {
  // Check the predicate periodically rather than after every event.
  while (sim_.now() <= max_time) {
    if (min_honest_commits() >= target) return true;
    if (sim_.pending() == 0) break;
    for (int i = 0; i < 256 && sim_.now() <= max_time; ++i) {
      if (!sim_.step()) break;
    }
  }
  return min_honest_commits() >= target;
}

void Experiment::run_for(SimTime duration) { sim_.run_until(sim_.now() + duration); }

SafetyReport Experiment::check_safety() const {
  SafetyReport report;
  // Pairwise prefix consistency of honest committed sequences.
  for (ReplicaId a = 0; a < cfg_.n; ++a) {
    if (!is_honest(a)) continue;
    for (ReplicaId b = a + 1; b < cfg_.n; ++b) {
      if (!is_honest(b)) continue;
      const auto& ra = replicas_[a]->ledger().records();
      const auto& rb = replicas_[b]->ledger().records();
      const std::size_t common = std::min(ra.size(), rb.size());
      for (std::size_t i = 0; i < common; ++i) {
        if (ra[i].id != rb[i].id) {
          report.ok = false;
          report.detail = "ledger divergence between replicas " + std::to_string(a) +
                          " and " + std::to_string(b) + " at position " + std::to_string(i);
          return report;
        }
      }
    }
  }
  return report;
}

std::vector<obs::TraceEvent> Experiment::trace_events() const {
  std::vector<std::vector<obs::TraceEvent>> per_replica;
  per_replica.reserve(traces_.size());
  for (const auto& ring : traces_) per_replica.push_back(ring->events());
  return obs::merge_traces(per_replica);
}

std::string Experiment::traces_ndjson() const {
  return obs::to_ndjson(trace_events());
}

namespace {
bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(content.data(), 1, content.size(), f);
  return std::fclose(f) == 0 && n == content.size();
}
}  // namespace

bool Experiment::write_traces(const std::string& path) const {
  return write_file(path, traces_ndjson());
}

bool Experiment::write_metrics(const std::string& path) const {
  return write_file(path, registry_.snapshot().ndjson());
}

std::vector<SimTime> Experiment::commit_latencies(ReplicaId id) const {
  std::vector<SimTime> out;
  for (const auto& rec : replicas_[id]->ledger().records()) {
    auto it = births_.find(rec.id);
    if (it != births_.end() && rec.commit_time >= it->second) {
      out.push_back(rec.commit_time - it->second);
    }
  }
  return out;
}

}  // namespace repro::harness
