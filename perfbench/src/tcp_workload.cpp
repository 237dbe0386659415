// The three TCP workloads: an in-process n=4 loopback cluster of
// transport::TcpNode replicas with the default NodeConfig, bftnode's 300 ms
// round timer and one storage::FileWal per replica, fed by the open-loop
// client pool (client_pool.h).
//
//   steady        Figure 2 (3-chain fallback protocol), no faults.
//   leader_crash  as steady, replica 3 hard-stopped after the first commit.
//   async_storm   the always-fallback baseline: every view runs f-chains,
//                 f-votes, coin shares, a coin-QC and adoption.
#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.h"
#include "client_pool.h"
#include "core/fallback.h"
#include "ladder.h"
#include "layers.h"
#include "obs/metrics.h"
#include "transport/node.h"

namespace perfbench {
namespace {

using namespace repro;

constexpr std::uint32_t kN = 4;
constexpr SimTime kRoundTimeoutUs = 300'000;  // bftnode's default timeout_ms
/// A transaction a replica drained but has not committed this long after
/// goes back into that replica's lane of the pool.
constexpr std::int64_t kResubmitTimeoutUs = 100'000;
/// Clusters set up per untraced run besides the measured ones, half
/// before and half after them; setup_s is the median of all set-ups.
constexpr int kSetups = 27;
/// Seconds of --seconds measured on one cluster before a fresh one takes
/// over. A cluster settles into one of a few timing patterns around its
/// view changes and keeps it (on leader_crash a 15 s window reads either
/// the same block count every time or 5-10 % fewer blocks at 20-30 % more
/// CPU per block), and each coin-QC it learns makes every later WAL record
/// longer; several young clusters per run average the first and bound the
/// second.
constexpr int kSecondsPerCluster = 10;
constexpr std::int64_t kWarmupUs = 1'000'000;
constexpr std::int64_t kDrainLimitUs = 5'000'000;
constexpr std::int64_t kSetupLimitUs = 20'000'000;
/// Consecutive one-second slices without a commit at any live replica that
/// count as a stall. Legitimate gaps (round timeouts plus view changes on
/// leader_crash) stay far below this.
constexpr int kStallSlices = 3;
/// The cluster's key seed (bftnode's default). Keys are deployment
/// configuration, not input: --seed varies the client inputs only, so the
/// coin's leader sequence is the same on every run.
constexpr std::uint64_t kClusterKeySeed = 7;

struct Spec {
  const char* name;
  double rate_per_s;      ///< offered open-loop rate
  bool always_fallback;   ///< async_storm
  bool crash_one;         ///< leader_crash
};

Spec spec_of(TcpMode mode) {
  switch (mode) {
    case TcpMode::kSteady:
      return {"steady", 2000, false, false};
    case TcpMode::kLeaderCrash:
      return {"leader_crash", 1000, false, true};
    case TcpMode::kAsyncStorm:
      return {"async_storm", 1000, true, false};
  }
  return {"steady", 2000, false, false};
}

/// One replica slot. The TcpNode is declared last so it (and the replica
/// it owns) is destroyed before the wrappers the replica points into.
struct Node {
  ReplicaId id = 0;
  std::unique_ptr<storage::FileWal> file_wal;
  std::unique_ptr<TracedWal> traced_wal;
  std::unique_ptr<TracedNetwork> traced_net;
  std::unique_ptr<TracedExecutor> traced_exec;
  core::ReplicaBase* base = nullptr;  // set on the node thread by the factory
  clockid_t cpu_clock{};
  std::atomic<bool> clock_ready{false};
  std::atomic<std::uint64_t> missing_blocks{0};
  /// Process CPU time (µs) when this replica's first commit hook ran.
  std::atomic<std::int64_t> first_commit_cpu_us{-1};
  LayerCounters layers;
  obs::Registry registry;
  bool live = true;
  std::unique_ptr<transport::TcpNode> node;

  std::int64_t thread_cpu_ns_now() const {
    timespec ts{};
    if (!clock_ready.load() || clock_gettime(cpu_clock, &ts) != 0) return 0;
    return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
};

class Cluster {
 public:
  Cluster(const Spec& spec, std::uint64_t key_seed, ClientPool* pool,
          const std::filesystem::path& wal_dir, bool tracing, std::uint64_t plant_ns,
          const std::atomic<bool>* recording) {
    crypto_ = crypto::CryptoSystem::deal(QuorumParams::for_n(kN), key_seed);
    const auto ports = free_loopback_ports(kN);
    core::FallbackParams fb;
    fb.chain_len = 3;
    fb.always_fallback = spec.always_fallback;
    for (ReplicaId id = 0; id < kN; ++id) {
      auto n = std::make_unique<Node>();
      n->id = id;
      const auto wal_path = wal_dir / ("replica" + std::to_string(id) + ".wal");
      std::filesystem::remove(wal_path);
      n->file_wal = std::make_unique<storage::FileWal>(wal_path.string());
      n->layers.recording = recording;
      n->layers.plant_ns = plant_ns;

      transport::NodeConfig cfg;
      cfg.id = id;
      for (std::uint16_t port : ports) cfg.peers.push_back({"127.0.0.1", port});
      cfg.crypto = crypto_;
      cfg.pcfg.base_timeout_us = kRoundTimeoutUs;
      cfg.seed = key_seed * 1'000'003 + id;
      if (tracing) {
        n->traced_wal = std::make_unique<TracedWal>(n->file_wal.get(), &n->layers);
        cfg.wal = n->traced_wal.get();
      } else {
        cfg.wal = n->file_wal.get();
      }
      cfg.registry = &n->registry;
      Node* slot = n.get();
      const bool wrap = tracing || plant_ns > 0;
      auto factory = [slot, pool, fb, tracing, wrap](const core::ReplicaContext& base_ctx)
          -> std::unique_ptr<core::IReplica> {
        // Runs on the node thread: its CPU clock is the one to read.
        pthread_getcpuclockid(pthread_self(), &slot->cpu_clock);
        slot->clock_ready.store(true);
        core::ReplicaContext ctx = base_ctx;
        LayerCounters* lc = &slot->layers;
        if (tracing) {
          slot->traced_net = std::make_unique<TracedNetwork>(ctx.net, lc);
          ctx.net = slot->traced_net.get();
          slot->traced_exec = std::make_unique<TracedExecutor>(ctx.sim, lc);
          ctx.sim = slot->traced_exec.get();
        }
        ctx.payload_source = [pool, slot] { return pool->drain(mono_us(), slot->id); };
        ctx.on_commit = [pool, slot](const smr::CommitRecord& rec) {
          if (slot->first_commit_cpu_us.load(std::memory_order_relaxed) < 0) {
            slot->first_commit_cpu_us.store(process_cpu_us());
          }
          const smr::Block* block = slot->base->store().get(rec.id);
          if (block == nullptr) {
            slot->missing_blocks.fetch_add(1);
          } else {
            pool->on_commit(slot->id, block->txns(), mono_us());
          }
        };
        auto replica = std::make_unique<core::FallbackReplica>(ctx, fb);
        slot->base = replica.get();
        if (wrap) return std::make_unique<TracedReplica>(std::move(replica), lc);
        return replica;
      };
      n->node = std::make_unique<transport::TcpNode>(std::move(cfg), std::move(factory));
      nodes_.push_back(std::move(n));
    }
  }

  ~Cluster() { stop_all(); }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Lower ids first: each node dials lower ids, which are listening by then.
  void start() {
    for (auto& n : nodes_) n->node->start();
  }

  /// Wait until every live replica has committed at least one block;
  /// returns the process CPU time when the last of them did (as its commit
  /// hook read it), or -1 at the wall-clock deadline.
  std::int64_t wait_first_commit(std::int64_t deadline_us) const {
    while (mono_us() < deadline_us) {
      std::int64_t last = 0;
      for (const auto& n : nodes_) {
        const std::int64_t t = n->first_commit_cpu_us.load();
        last = t < 0 ? -1 : std::max(last, t);
        if (last < 0) break;
      }
      if (last >= 0) return last;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1;
  }

  void crash(ReplicaId id) {
    nodes_[id]->node->stop();
    nodes_[id]->live = false;
  }

  void stop_all() {
    for (auto& n : nodes_) n->node->stop();
  }

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  const crypto::CryptoSystem& crypto() const { return *crypto_; }
  std::size_t live_count() const {
    std::size_t c = 0;
    for (const auto& n : nodes_) c += n->live ? 1 : 0;
    return c;
  }

 private:
  std::shared_ptr<const crypto::CryptoSystem> crypto_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// Readings taken at one edge of the measured window.
struct Edge {
  std::int64_t wall_us = 0;
  std::int64_t process_cpu_us = 0;
  std::vector<obs::Snapshot> snaps;
  std::vector<std::int64_t> thread_cpu_ns;
  std::vector<std::uint64_t> committed;
  std::vector<std::uint64_t> txn_copies;
  std::vector<std::uint64_t> txn_duplicates;
};

Edge read_edge(const Cluster& c, const ClientPool& pool) {
  Edge e;
  e.wall_us = mono_us();
  e.process_cpu_us = process_cpu_us();
  for (const auto& n : c.nodes()) {
    e.snaps.push_back(n->registry.snapshot());
    e.thread_cpu_ns.push_back(n->thread_cpu_ns_now());
    e.committed.push_back(n->node->committed());
    e.txn_copies.push_back(pool.committed_copies(n->id));
    e.txn_duplicates.push_back(pool.duplicate_copies(n->id));
  }
  return e;
}

/// Sum over live replicas of a registry counter's growth across the window.
double delta(const Cluster& c, const Edge& a, const Edge& b, const std::string& name) {
  double sum = 0;
  for (std::size_t i = 0; i < c.nodes().size(); ++i) {
    if (!c.nodes()[i]->live) continue;
    sum += double(b.snaps[i].value(name)) - double(a.snaps[i].value(name));
  }
  return sum;
}

double delta_labeled(const Cluster& c, const Edge& a, const Edge& b, const std::string& name,
                     const obs::Labels& labels) {
  double sum = 0;
  for (std::size_t i = 0; i < c.nodes().size(); ++i) {
    if (!c.nodes()[i]->live) continue;
    const obs::Sample* sa = a.snaps[i].find(name, labels);
    const obs::Sample* sb = b.snaps[i].find(name, labels);
    if (sa != nullptr && sb != nullptr) sum += double(sb->value) - double(sa->value);
  }
  return sum;
}

/// Totals over the measured clusters of one run.
struct Pooled {
  std::vector<double> lat_ms;
  std::uint64_t due = 0, failed = 0;
  double blocks = 0, window_s = 0, cpu_us = 0, wire_bytes = 0;
  std::vector<double> setup_s;
};

/// One cluster measured end to end: set-up, warm-up, window, drain, stop,
/// checks. Adds its figures to a Pooled and, when `traced`, sets
/// `result.layers` to its per-layer metrics.
class Measurement {
 public:
  /// `setups_before` and `setups_after` are extra set-ups run before the
  /// measured cluster's own and after it stops.
  Measurement(const Spec& spec, const Options& opt, bool traced, int seconds,
              int setups_before, int setups_after, RunResult& result)
      : spec_(spec),
        opt_(opt),
        traced_(traced),
        seconds_(seconds),
        setups_before_(setups_before),
        setups_after_(setups_after),
        result_(result) {}

  void run(Pooled& p);

 private:
  void layer_metrics(const Edge& a, const Edge& b, double blocks, double window_s,
                     const std::vector<ClientPool::Txn>& txns, std::int64_t ws,
                     std::int64_t we);
  void check_ledgers();
  /// Set up `count` clusters in turn, appending each one's set-up time;
  /// the last stays up. False (and a failed check) if one never commits.
  bool set_up(int count, const std::filesystem::path& wal_dir, std::vector<double>& setup_s);

  const Spec& spec_;
  const Options& opt_;
  bool traced_;
  int seconds_;
  int setups_before_;
  int setups_after_;
  RunResult& result_;
  std::atomic<bool> recording_{false};
  std::unique_ptr<ClientPool> pool_;
  std::unique_ptr<Cluster> cluster_;
};

void Measurement::run(Pooled& p) {
  const std::filesystem::path wal_dir = std::filesystem::path(opt_.work_dir) / "wal";
  std::filesystem::create_directories(wal_dir);

  // Set-up: key dealing to the first commit at every replica. The last
  // cluster set up is the one measured.
  if (!set_up(setups_before_ + 1, wal_dir, p.setup_s)) return;
  if (spec_.crash_one) cluster_->crash(kN - 1);

  std::this_thread::sleep_for(std::chrono::microseconds(kWarmupUs));
  recording_.store(traced_);
  const Edge a = read_edge(*cluster_, *pool_);
  // The window is read in one-second slices to catch a cluster that stops
  // committing. Rates and percentiles are taken over the whole window, not
  // per slice: on leader_crash a slice holds one or two crashed-leader
  // timeouts, so per-slice figures step from run to run.
  std::vector<std::uint64_t> last_committed = a.committed;
  int empty_run = 0, longest_empty_run = 0;
  for (int k = 0; k < seconds_; ++k) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::microseconds(a.wall_us + (k + 1) * 1'000'000)));
    double blocks = 0;
    for (std::size_t i = 0; i < cluster_->nodes().size(); ++i) {
      const Node& n = *cluster_->nodes()[i];
      const std::uint64_t c = n.node->committed();
      if (n.live) blocks += double(c - last_committed[i]);
      last_committed[i] = c;
    }
    empty_run = blocks == 0 ? empty_run + 1 : 0;
    longest_empty_run = std::max(longest_empty_run, empty_run);
  }
  const Edge b = read_edge(*cluster_, *pool_);
  recording_.store(false);
  const std::int64_t ws = a.wall_us;
  const std::int64_t we = b.wall_us;
  pool_->stop_arrivals(we);

  // Drain: everything due in the window gets a chance to confirm.
  while (pool_->unconfirmed_between(ws, we) > 0 && mono_us() < we + kDrainLimitUs) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster_->stop_all();

  // ---- correctness ----------------------------------------------------
  check_ledgers();
  if (pool_->bad_block_sizes() != 0) {
    result_.fail(std::string(spec_.name) + ": committed payload not a whole number of txns");
  }
  if (pool_->bad_txn_bytes() != 0) {
    result_.fail(std::string(spec_.name) + ": committed txn bytes differ from generated bytes");
  }
  if (pool_->unknown_ids() != 0) {
    result_.fail(std::string(spec_.name) + ": committed txn id was never submitted");
  }
  for (const auto& n : cluster_->nodes()) {
    if (n->missing_blocks.load() != 0) {
      result_.fail(std::string(spec_.name) + ": committed block missing from the store");
    }
  }

  // ---- end-to-end ------------------------------------------------------
  const double window_s = (we - ws) / 1e6;
  double blocks = 0;
  for (std::size_t i = 0; i < cluster_->nodes().size(); ++i) {
    if (cluster_->nodes()[i]->live) blocks += double(b.committed[i] - a.committed[i]);
  }
  blocks /= double(cluster_->live_count());
  if (longest_empty_run >= kStallSlices || blocks < 1) {
    // A liveness failure of the cluster, not a slow run: say where each
    // replica stood and whether the transport dropped frames.
    std::string where;
    for (std::size_t i = 0; i < cluster_->nodes().size(); ++i) {
      const Node& n = *cluster_->nodes()[i];
      if (!n.live) continue;
      where += " r" + std::to_string(i) + "@view" + std::to_string(n.node->current_view()) +
               "/round" + std::to_string(n.node->current_round());
    }
    result_.fail(std::string(spec_.name) + ": commit stall, no block committed for " +
                 std::to_string(longest_empty_run) + " s of the window;" + where +
                 "; frames dropped by send queues " +
                 std::to_string(std::uint64_t(
                     delta(*cluster_, a, b, "repro_net_sendq_dropped_frames_total"))));
    blocks = std::max(blocks, 1.0);
  }

  const auto txns = pool_->snapshot();
  // Percentiles pool every transaction due in the window.
  for (const auto& t : txns) {
    if (t.due_us < ws || t.due_us >= we) continue;
    ++p.due;
    if (t.confirm_us < 0) {
      ++p.failed;
    } else {
      p.lat_ms.push_back((t.confirm_us - t.due_us) / 1e3);
    }
  }
  p.blocks += blocks;
  p.window_s += window_s;
  p.cpu_us += double(b.process_cpu_us - a.process_cpu_us);
  p.wire_bytes += delta(*cluster_, a, b, "repro_net_bytes_total");
  result_.notes.push_back(std::string(spec_.name) + ": cluster of " +
                          std::to_string(seconds_) + " s: " + std::to_string(blocks / window_s) +
                          " blocks/s, " +
                          std::to_string(double(b.process_cpu_us - a.process_cpu_us) / blocks) +
                          " us CPU per block");

  if (traced_) layer_metrics(a, b, blocks, window_s, txns, ws, we);
  if (!set_up(setups_after_, wal_dir, p.setup_s)) return;
  cluster_.reset();
  std::filesystem::remove_all(wal_dir);
}

bool Measurement::set_up(int count, const std::filesystem::path& wal_dir,
                         std::vector<double>& setup_s) {
  for (int k = 0; k < count; ++k) {
    cluster_.reset();
    pool_.reset();
    // Set-up cost is process CPU time, not wall time: a set-up lasts about
    // a millisecond of thread wake-ups on loopback, and on a shared host
    // their latency doubled the wall-clock median between two ten-seed
    // sets minutes apart.
    const std::int64_t t0 = mono_us();
    const std::int64_t cpu0 = process_cpu_us();
    pool_ = std::make_unique<ClientPool>(opt_.seed, spec_.rate_per_s * opt_.rate_scale,
                                         kResubmitTimeoutUs, QuorumParams::for_n(kN).f + 1);
    cluster_ = std::make_unique<Cluster>(spec_, kClusterKeySeed, pool_.get(), wal_dir,
                                         traced_, opt_.plant_ns, &recording_);
    pool_->start(mono_us());
    cluster_->start();
    const std::int64_t first_commit_cpu = cluster_->wait_first_commit(t0 + kSetupLimitUs);
    if (first_commit_cpu < 0) {
      result_.fail(std::string(spec_.name) + ": cluster never committed during set-up");
      return false;
    }
    setup_s.push_back((first_commit_cpu - cpu0) / 1e6);
  }
  return true;
}

void Measurement::check_ledgers() {
  const auto& nodes = cluster_->nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& li = nodes[i]->node->replica().ledger().records();
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const auto& lj = nodes[j]->node->replica().ledger().records();
      const std::size_t common = std::min(li.size(), lj.size());
      for (std::size_t k = 0; k < common; ++k) {
        if (li[k].id != lj[k].id) {
          result_.fail(std::string(spec_.name) + ": ledgers of replicas " + std::to_string(i) +
                       " and " + std::to_string(j) + " diverge at height " +
                       std::to_string(k));
          return;
        }
      }
    }
  }
}

void Measurement::layer_metrics(const Edge& a, const Edge& b, double blocks, double window_s,
                                const std::vector<ClientPool::Txn>& txns, std::int64_t ws,
                                std::int64_t we) {
  MetricSet& m = result_.layers;
  const Cluster& c = *cluster_;
  auto d = [&](const char* name) { return delta(c, a, b, name); };

  std::vector<const LayerCounters*> counters;
  double timer_ns = 0, send_ns = 0, node_cpu_ns = 0, wal_appends = 0, wal_bytes = 0;
  double copies = 0, dups = 0, committed = 0;
  std::vector<double> wal_us;
  for (std::size_t i = 0; i < c.nodes().size(); ++i) {
    const Node& n = *c.nodes()[i];
    if (!n.live) continue;
    counters.push_back(&n.layers);
    timer_ns += double(n.layers.timer_ns);
    send_ns += double(n.layers.send_ns);
    node_cpu_ns += double(b.thread_cpu_ns[i] - a.thread_cpu_ns[i]);
    wal_appends += double(n.layers.wal_appends);
    wal_bytes += double(n.layers.wal_bytes);
    for (std::uint32_t ns : n.layers.wal_append_ns) wal_us.push_back(ns / 1e3);
    copies += double(b.txn_copies[i] - a.txn_copies[i]);
    dups += double(b.txn_duplicates[i] - a.txn_duplicates[i]);
    committed += double(b.committed[i] - a.committed[i]);
  }
  const HandlerTally tally = report_common_layers(counters, d, blocks, double(c.live_count()),
                                                  window_s, c.crypto(), kN, result_);

  m.set("transport.self_cpu_us_per_block",
        (node_cpu_ns - tally.handler_ns - timer_ns) / 1e3 / blocks, "us");
  const double batches = d("repro_net_writev_batches_total");
  m.set("transport.frames_per_writev", ratio(d("repro_net_writev_frames_total"), batches),
        "count");
  m.set("transport.writev_per_block", batches / blocks, "count");
  m.set("transport.sendq_dropped_frames", d("repro_net_sendq_dropped_frames_total"), "count");
  for (int t = 1; t <= kNumMsgTypes; ++t) {
    m.set(std::string("transport.msgs_per_block.") + kMsgTypeNames[t],
          delta_labeled(c, a, b, "repro_net_messages_by_type_total",
                        {{"type", std::to_string(t)}}) /
              blocks,
          "count");
  }
  m.set("core.timer_us_per_block", timer_ns / 1e3 / blocks, "us");
  m.set("core.send_us_per_block", send_ns / 1e3 / blocks, "us");

  m.set("storage.wal_appends_per_block", wal_appends / blocks, "count");
  m.set("storage.wal_append_us_p50", quantile(wal_us, 0.5), "us");
  m.set("storage.wal_bytes_per_append", ratio(wal_bytes, wal_appends), "B");

  std::vector<double> wait_ms;
  double resubmits = 0, due = 0;
  for (const auto& t : txns) {
    if (t.due_us < ws || t.due_us >= we) continue;
    ++due;
    resubmits += t.resubmits;
    if (t.first_drain_us >= 0) wait_ms.push_back((t.first_drain_us - t.due_us) / 1e3);
  }
  m.set("client.queue_wait_ms_p50", quantile(wait_ms, 0.5), "ms");
  m.set("client.txns_per_block", ratio(copies, committed), "count");
  m.set("client.resubmits_per_tx", ratio(resubmits, due), "count");
  m.set("client.useful_commit_frac", ratio(copies - dups, copies), "frac");
}

/// Measure `opt.seconds` of windows on fresh clusters of at most
/// kSecondsPerCluster seconds each and set the pooled end-to-end metrics.
/// `extra_setups` more set-ups run half before and half after them.
void measure(const Spec& spec, const Options& opt, bool traced, int extra_setups,
             RunResult& result, MetricSet& e2e) {
  Pooled p;
  for (int done = 0; done < opt.seconds && result.check_failures.empty();
       done += kSecondsPerCluster) {
    const int seconds = std::min(kSecondsPerCluster, opt.seconds - done);
    const bool first = done == 0, last = done + seconds >= opt.seconds;
    Measurement(spec, opt, traced, seconds, first ? extra_setups - extra_setups / 2 : 0,
                last ? extra_setups / 2 : 0, result)
        .run(p);
  }
  if (!result.check_failures.empty()) return;
  result.attempted = p.due;
  result.failed = p.failed;
  result.latency_samples = p.lat_ms.size();
  e2e.set("confirm_p50_ms", quantile(p.lat_ms, 0.50), "ms");
  e2e.set("confirm_p99_ms", quantile(p.lat_ms, 0.99), "ms");
  e2e.set("confirmed_tx_per_s", double(p.due - p.failed) / p.window_s, "1/s");
  e2e.set("failed_tx_frac", ratio(double(p.failed), double(p.due)), "frac");
  e2e.set("blocks_per_s", p.blocks / p.window_s, "1/s");
  e2e.set("cpu_us_per_block", p.cpu_us / p.blocks, "us");
  e2e.set("wire_bytes_per_block", p.wire_bytes / p.blocks, "B");
  e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
  e2e.set("setup_s", median(p.setup_s), "s");
  std::string line = std::string(spec.name) + ": set-up CPU times (ms):";
  for (double v : p.setup_s) line += " " + std::to_string(v * 1e3);
  result.notes.push_back(line);
}

}  // namespace

RunResult run_tcp_workload(TcpMode mode, const Options& opt) {
  const Spec spec = spec_of(mode);
  RunResult result;
  if (!opt.trace) {
    measure(spec, opt, /*traced=*/false, kSetups, result, result.end_to_end);
    return result;
  }
  // Traced run: untraced clusters first (the overhead baseline), then
  // fresh traced clusters of identical run length. The per-layer metrics
  // are those of the last traced cluster.
  MetricSet untraced;
  measure(spec, opt, /*traced=*/false, 0, result, untraced);
  measure(spec, opt, /*traced=*/true, 0, result, result.end_to_end);
  const Metric* base = untraced.find("cpu_us_per_block");
  const Metric* traced = result.end_to_end.find("cpu_us_per_block");
  if (base != nullptr && traced != nullptr) {
    result.layers.set("obs.trace_overhead_frac", ratio(traced->value, base->value) - 1.0, "frac");
  }
  return result;
}

}  // namespace perfbench
