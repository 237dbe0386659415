// bftnode — run one replica of the cluster as a standalone process.
//
//   $ bftnode node0.conf
//
// Config file (key = value; see common/config_file.h):
//
//   id = 0                     # this node's replica id
//   peer = 127.0.0.1:9000      # one line per replica, in id order
//   peer = 127.0.0.1:9001
//   peer = 127.0.0.1:9002
//   peer = 127.0.0.1:9003
//   seed = 7                   # cluster key seed — MUST match on all nodes
//   protocol = fallback3       # diem | fallback3 | fallback3adopt | fallback2 | ace
//   timeout_ms = 300
//   batch_bytes = 256
//   wal = node0.wal            # optional: durable vote state
//   report_ms = 1000           # status line interval (0 = quiet)
//   admin_port = 9100          # optional: serve GET /metrics (Prometheus
//                              # text), /trace (the event stream, NDJSON),
//                              # /healthz (liveness) and /dump (forensics
//                              # bundle) on 127.0.0.1:<port>; 0 = off
//   trace_capacity = 65536     # event ring size (events) when admin_port
//                              # is set; 0 disables recording (and the
//                              # clock-sync ping frames)
//   forensics_dir = ./bundles  # optional: flight-recorder output dir;
//                              # enables GET /dump and watchdog dumps
//   stall_timeout_ms = 0       # commit-stall watchdog: /healthz turns 503
//                              # and (once) dumps a forensics bundle when
//                              # no commit lands for this long; 0 = off
//
// Every node of a cluster must use the same `seed` and the same peer
// list: the trusted-dealer keys are derived deterministically from the
// seed (a real deployment would replace this with a DKG — see DESIGN.md).
// Stop with SIGINT/SIGTERM; the committed count is printed on exit.
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/config_file.h"
#include "harness/protocol.h"
#include "obs/admin.h"
#include "obs/flight.h"
#include "transport/node.h"

using namespace repro;
using namespace repro::transport;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: bftnode <config-file>\n");
    return 2;
  }
  std::string error;
  auto cfg_file = ConfigFile::load(argv[1], &error);
  if (!cfg_file) {
    std::fprintf(stderr, "bftnode: %s\n", error.c_str());
    return 2;
  }

  NodeConfig cfg;
  cfg.id = static_cast<ReplicaId>(cfg_file->get_int("id", 0));
  for (const std::string& peer : cfg_file->get_all("peer")) {
    auto hp = parse_host_port(peer);
    if (!hp) {
      std::fprintf(stderr, "bftnode: bad peer address '%s'\n", peer.c_str());
      return 2;
    }
    cfg.peers.push_back(PeerAddress{hp->host, hp->port});
  }
  if (cfg.peers.size() < 4 || cfg.id >= cfg.peers.size()) {
    std::fprintf(stderr, "bftnode: need >= 4 peers and id < peer count (got %zu peers, id %u)\n",
                 cfg.peers.size(), cfg.id);
    return 2;
  }

  const auto n = static_cast<std::uint32_t>(cfg.peers.size());
  const auto seed = static_cast<std::uint64_t>(cfg_file->get_int("seed", 7));
  cfg.crypto = crypto::CryptoSystem::deal(QuorumParams::for_n(n), seed);
  cfg.seed = seed * 1'000'003 + cfg.id;
  cfg.pcfg.base_timeout_us = static_cast<SimTime>(cfg_file->get_int("timeout_ms", 300)) * 1000;
  cfg.pcfg.batch_bytes = static_cast<std::size_t>(cfg_file->get_int("batch_bytes", 256));

  std::unique_ptr<storage::FileWal> wal;
  if (cfg_file->has("wal")) {
    wal = std::make_unique<storage::FileWal>(cfg_file->get_str("wal", ""));
    cfg.wal = wal.get();
  }

  const std::string protocol = cfg_file->get_str("protocol", "fallback3");
  const auto variant = harness::parse_protocol(protocol);
  if (!variant) {
    std::fprintf(stderr, "bftnode: unknown protocol '%s'\n", protocol.c_str());
    return 2;
  }
  const ReplicaFactory factory = [p = *variant](const core::ReplicaContext& ctx) {
    return harness::build_replica(p, ctx);
  };

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Observability: the registry and event ring outlive the node; the node
  // thread attaches its counters into them at startup and the admin
  // server snapshots them on demand.
  obs::Registry registry;
  const auto admin_port = static_cast<std::uint16_t>(cfg_file->get_int("admin_port", 0));
  const auto trace_capacity =
      static_cast<std::size_t>(cfg_file->get_int("trace_capacity", 65536));
  const std::string forensics_dir = cfg_file->get_str("forensics_dir", "");
  const auto stall_timeout_us =
      static_cast<std::uint64_t>(cfg_file->get_int("stall_timeout_ms", 0)) * 1000;
  std::shared_ptr<obs::TraceRing> trace;
  if (admin_port != 0 && trace_capacity > 0) {
    trace = std::make_shared<obs::TraceRing>(trace_capacity, /*wall_clock=*/true);
  }
  if (admin_port != 0) {
    cfg.registry = &registry;
    cfg.trace = trace;
  }

  TcpNode node(cfg, factory);
  node.start();

  // Flight recorder + commit-stall watchdog. The watchdog arms after the
  // first commit (a cold cluster is "starting", not "stalled") and clears
  // if commits resume.
  std::unique_ptr<obs::FlightRecorder> flight;
  if (!forensics_dir.empty()) {
    obs::FlightRecorder::Sources src;
    if (trace) {
      src.traces = [id = cfg.id, trace] {
        obs::TraceMeta meta;
        meta.replica = id;
        meta.dropped = trace->dropped();
        meta.recorded = trace->recorded();
        return obs::trace_meta_line(meta) + obs::to_ndjson(trace->events());
      };
    }
    src.metrics = [&registry] { return registry.snapshot().ndjson(); };
    src.manifest_extra = [&node, id = cfg.id] {
      return ",\"replica\":" + std::to_string(id) +
             ",\"view\":" + std::to_string(node.current_view()) +
             ",\"round\":" + std::to_string(node.current_round()) +
             ",\"committed\":" + std::to_string(node.committed());
    };
    flight = std::make_unique<obs::FlightRecorder>(forensics_dir, src);
  }
  std::atomic<bool> stalled{false};

  std::unique_ptr<obs::AdminServer> admin;
  if (admin_port != 0) {
    obs::AdminServer::Options aopts;
    aopts.registry = &registry;
    aopts.trace = trace;
    aopts.replica = cfg.id;
    aopts.health_fn = [&node, &stalled, stall_timeout_us] {
      const std::uint64_t last = node.last_commit_wall_us();
      timespec ts{};
      clock_gettime(CLOCK_REALTIME, &ts);
      const std::uint64_t now =
          static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
          static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
      const std::uint64_t age = (last == 0 || now < last) ? 0 : now - last;
      std::string body = std::string(stalled.load(std::memory_order_relaxed)
                                         ? "stalled"
                                         : "ok") +
                         " last_commit_age_us=" + std::to_string(age) +
                         " view=" + std::to_string(node.current_view()) +
                         " round=" + std::to_string(node.current_round()) +
                         " committed=" + std::to_string(node.committed()) + "\n";
      const int code = stalled.load(std::memory_order_relaxed) ? 503 : 200;
      return std::make_pair(code, std::move(body));
    };
    if (flight) {
      aopts.dump_fn = [&flight] { return flight->dump("admin"); };
    }
    admin = std::make_unique<obs::AdminServer>(admin_port, std::move(aopts));
    if (admin->running()) {
      std::printf(
          "bftnode: admin endpoint on 127.0.0.1:%u (/metrics /trace /healthz /dump)\n",
          unsigned(admin->port()));
    }
  }
  std::printf("bftnode: replica %u/%u (%s) listening on %s:%u%s\n", cfg.id, n,
              protocol.c_str(), cfg.peers[cfg.id].host.c_str(), cfg.peers[cfg.id].port,
              wal ? ", WAL enabled" : "");

  const auto report_ms = cfg_file->get_int("report_ms", 1000);
  std::uint64_t last = 0;
  while (!g_stop) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(report_ms > 0 ? report_ms : 250));
    if (stall_timeout_us > 0) {
      const std::uint64_t last_commit = node.last_commit_wall_us();
      timespec ts{};
      clock_gettime(CLOCK_REALTIME, &ts);
      const std::uint64_t now_us =
          static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
          static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
      const bool tripped =
          last_commit != 0 && now_us > last_commit + stall_timeout_us;
      const bool was_stalled = stalled.exchange(tripped, std::memory_order_relaxed);
      if (tripped && !was_stalled) {
        std::printf("bftnode: commit stall detected (%.1fs since last commit)\n",
                    (now_us - last_commit) / 1e6);
        if (flight) {
          const std::string bundle = flight->dump("stall");
          if (!bundle.empty()) {
            std::printf("bftnode: forensics bundle: %s\n", bundle.c_str());
          }
        }
        std::fflush(stdout);
      }
    }
    if (report_ms > 0) {
      const std::uint64_t now = node.committed();
      std::printf("committed=%llu (+%llu)\n", static_cast<unsigned long long>(now),
                  static_cast<unsigned long long>(now - last));
      std::fflush(stdout);
      last = now;
    }
  }

  node.stop();
  std::printf("bftnode: stopped with %llu committed blocks\n",
              static_cast<unsigned long long>(node.committed()));
  return 0;
}
