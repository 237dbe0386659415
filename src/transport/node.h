// Real-network runtime: run one replica over TCP on the wall clock.
//
// The protocol code is transport-agnostic (it sees sim::IExecutor and
// net::INetwork); this module provides the production implementations:
//
//  * RealtimeExecutor — timer heap over the monotonic clock, driven by a
//    single node thread;
//  * TcpNetwork — full-mesh TCP with 4-byte-length-prefixed frames, a
//    peer-id handshake, and automatic reconnect;
//  * TcpNode — one thread per replica: poll() over the listening socket,
//    peer sockets and the next timer deadline; all protocol logic runs on
//    that thread, so the replica needs no locks.
//
// Outbound frames are never written inline: send() appends to a bounded
// per-peer SendQueue (refcounted payloads, no copies) and the node thread
// flushes every queue once per poll iteration with one scatter-gather
// writev per peer — all frames produced in an iteration (protocol bursts
// routinely fan a vote/timeout plus block responses at the same peer)
// coalesce into a single syscall. A full queue drops the newest frame.
//
// Reliability note: the paper assumes reliable channels. TCP gives that
// while a connection lives; frames racing a connection drop are lost and
// NOT retransmitted here — the protocol's own timeout/fallback machinery
// recovers, which is exactly the behaviour the paper prescribes for bad
// networks (backpressure drops from a full send queue land in the same
// bucket). Key distribution still uses the trusted dealer: all nodes of
// a cluster must be built from the same CryptoSystem.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/replica.h"
#include "obs/metrics.h"
#include "sim/executor.h"
#include "sim/simulation.h"
#include "smr/messages.h"

namespace repro::transport {

/// Timers on the monotonic clock. The queue is the simulator's own
/// (sim::Simulation: slab slots, generation ids, so a stale id never
/// cancels a reused slot); this class only adds the steady clock.
/// Single-threaded: every method must be called from the owning node
/// thread.
class RealtimeExecutor final : public sim::IExecutor {
 public:
  RealtimeExecutor();

  SimTime now() const override;
  sim::EventId schedule_at(SimTime t, std::function<void()> cb) override;
  void cancel(sim::EventId id) override { queue_.cancel(id); }

  /// Absolute time of the nearest pending event, or kSimTimeNever.
  /// Cancelled entries at the head of the queue are retired here (the
  /// protocol cancels and re-arms its round timer every round; reporting
  /// the stale deadline would wake the poll loop once per round for
  /// nothing).
  SimTime next_deadline() { return queue_.next_time(); }

  /// Fire everything due at `now()`. Returns events executed.
  std::size_t run_due() { return queue_.run_until(now()); }

 private:
  std::chrono::steady_clock::time_point epoch_;
  /// Its virtual clock trails now(): run_due advances it to each deadline.
  sim::Simulation queue_;
};

struct PeerAddress {
  std::string host;
  std::uint16_t port = 0;
};

/// Bounded outbound frame queue for one peer connection, flushed with
/// scatter-gather vectored writes. Frames are {4-byte LE length header,
/// refcounted payload}; the payload bytes are shared with every other
/// queue holding the same multicast, never copied. Single-threaded (node
/// thread only).
///
/// Backpressure policy: when queued bytes would exceed the bound, the
/// *incoming* frame is dropped (drop-newest) and counted — equivalent to
/// the frame racing a connection drop, which the protocol already
/// tolerates. Older queued frames keep their ordering guarantee.
class SendQueue {
 public:
  static constexpr std::size_t kDefaultMaxBytes = 8u << 20;  // 8 MiB

  SendQueue() : SendQueue(kDefaultMaxBytes) {}
  explicit SendQueue(std::size_t max_bytes) : max_bytes_(max_bytes == 0 ? 1 : max_bytes) {}

  /// Enqueue one frame. Returns false — counting the drop into `stats` —
  /// when the frame would push the queue past its byte bound. `stats` may
  /// be null (transport-internal control frames stay out of the protocol
  /// traffic ledger). A nonzero `wire_key` marks the frame for a
  /// kSendFlush event (queue-wait accounting) when it fully retires.
  bool push(SharedBytes payload, net::NetStats* stats, std::uint64_t wire_key = 0);

  /// Install the event sink for kSendFlush records, stamped by `clock`:
  /// `self` is the sending replica, `peer` the destination this queue
  /// feeds. A null ring disables.
  void set_trace_sink(obs::TraceRing* trace, const sim::IExecutor* clock, ReplicaId self,
                      ReplicaId peer) {
    trace_ = trace;
    clock_ = clock;
    self_ = self;
    peer_ = peer;
  }

  enum class FlushResult {
    kDrained,   ///< queue fully written
    kProgress,  ///< wrote some bytes; socket buffer filled before empty
    kBlocked,   ///< EAGAIN before any byte — peer not draining
    kError,     ///< hard socket error; caller tears the connection down
  };

  /// Write queued frames to `fd` (non-blocking) until drained or the
  /// socket stops accepting. Each vectored write that makes progress
  /// counts one writev_batch in `stats`; frames completed by it count as
  /// writev_frames. Partial frame writes resume at the exact byte offset
  /// on the next flush (never re-sending, never skipping).
  FlushResult flush(int fd, net::NetStats* stats);

  bool empty() const { return frames_.empty(); }
  std::size_t frames() const { return frames_.size(); }
  /// Unwritten bytes queued (headers included, minus partial progress).
  std::size_t bytes() const { return queued_bytes_; }
  std::size_t max_bytes() const { return max_bytes_; }

 private:
  struct Frame {
    std::array<std::uint8_t, 4> header;
    SharedBytes payload;
    std::uint64_t wire_key = 0;     ///< 0 = no kSendFlush event
    std::uint64_t enqueued_us = 0;  ///< executor time at push (keyed frames only)
  };

  std::size_t max_bytes_;
  obs::TraceRing* trace_ = nullptr;  ///< not owned; null = recording off
  const sim::IExecutor* clock_ = nullptr;
  ReplicaId self_ = 0;
  ReplicaId peer_ = 0;
  std::deque<Frame> frames_;
  /// Bytes of the front frame already written (spans header then payload).
  std::size_t head_offset_ = 0;
  std::size_t queued_bytes_ = 0;
};

struct NodeConfig {
  ReplicaId id = 0;
  /// Address of every replica in the cluster, indexed by replica id.
  std::vector<PeerAddress> peers;
  std::shared_ptr<const crypto::CryptoSystem> crypto;
  core::ProtocolConfig pcfg;
  std::uint64_t seed = 0;
  storage::Wal* wal = nullptr;  ///< optional crash-recovery log
  /// Delay between reconnect attempts to a down peer (microseconds).
  SimTime reconnect_interval = 200'000;
  /// How long a peer's send queue may sit blocked (EAGAIN, zero bytes
  /// accepted) before the connection is torn down (microseconds). A full
  /// socket buffer is a transient condition under load — only a stall
  /// spanning several reconnect intervals indicates a dead peer. 0
  /// derives max(1s, 5 * reconnect_interval).
  SimTime write_stall_timeout = 0;
  /// Byte bound of each per-peer send queue; a frame that would exceed it
  /// is dropped (see SendQueue).
  std::size_t send_queue_max_bytes = SendQueue::kDefaultMaxBytes;
  /// Accepted connections must complete the 4-byte hello within this
  /// budget (microseconds) or they are closed; otherwise half-open
  /// connections would hold conns_ slots (and fds) forever.
  SimTime hello_timeout = 2'000'000;
  /// The replica starts once the full peer mesh is connected, or after
  /// this grace period (microseconds) — whichever comes first. Starting
  /// before the mesh is up silently drops the first leader's proposal
  /// (no fd for the peer yet) and every cluster boot then pays a full
  /// round timeout plus a cluster-wide fallback before committing
  /// anything. The grace bound keeps a dead peer from stalling startup.
  SimTime start_grace_us = 500'000;
  /// Optional metrics registry: the node attaches its NetStats and
  /// ReplicaStats counters once the replica exists on the node thread
  /// (Registry::attach is mutex-protected; the counters themselves are
  /// relaxed atomics, so an admin thread may snapshot while the node
  /// runs). Not owned; must outlive the node.
  obs::Registry* registry = nullptr;
  /// Optional event sink shared with the replica (obs/trace.h); an
  /// in-process cluster may share one ring across its nodes. Wall-clock
  /// stamping should be enabled by the creator (real-time runtime). Also
  /// enables the transport milestones (socket read, send-queue flush) and
  /// the tag-0 ping/pong clock-offset estimator; when unset or capacity 0,
  /// neither exists — the wire traffic is byte-identical to a build
  /// without recording.
  std::shared_ptr<obs::TraceRing> trace;
};

/// Builds the protocol instance for a node. Lets the transport host any
/// IReplica without depending on the experiment harness.
using ReplicaFactory =
    std::function<std::unique_ptr<core::IReplica>(const core::ReplicaContext&)>;

class TcpNode {
 public:
  TcpNode(NodeConfig cfg, ReplicaFactory factory);
  ~TcpNode();

  TcpNode(const TcpNode&) = delete;
  TcpNode& operator=(const TcpNode&) = delete;

  /// Binds the listening socket and spawns the node thread (which dials
  /// peers, starts the replica, and runs the event loop).
  void start();

  /// Signals the loop to exit and joins the thread.
  void stop();

  /// Commits observed so far (thread-safe).
  std::uint64_t committed() const { return committed_.load(std::memory_order_relaxed); }

  /// Liveness probes for /healthz (thread-safe, relaxed reads; refreshed
  /// once per poll iteration on the node thread).
  std::uint64_t last_commit_wall_us() const {
    return last_commit_wall_us_.load(std::memory_order_relaxed);
  }
  View current_view() const { return view_.load(std::memory_order_relaxed); }
  Round current_round() const { return round_.load(std::memory_order_relaxed); }

  /// Direct replica access — only safe after stop() (the node thread owns
  /// the replica while running).
  const core::IReplica& replica() const { return *replica_; }

  /// Network counters (traffic, writev batching, send-queue drops) — like
  /// replica(), only safe after stop(). Zero-valued if never started.
  net::NetStats net_stats() const;

  ReplicaId id() const { return cfg_.id; }

 private:
  class TcpNetwork;
  struct Conn;

  void run_loop();
  void try_connect(ReplicaId peer);
  /// Returns the bytes read off the socket (0 on teardown): the poll loop
  /// only spends another zero-timeout sweep when the previous one moved
  /// enough data to suggest more arrived while it was processing.
  std::size_t handle_readable(int fd);
  void close_peer(int fd);
  /// The only way a peer frame reaches the replica: decoded and
  /// signature-checked inline, on the node thread, in arrival order
  /// (IReplica::on_message_uncached).
  void on_frame(ReplicaId from, Bytes payload);
  /// Close accepted connections that have not identified themselves
  /// within cfg_.hello_timeout.
  void sweep_half_open();
  /// Flush every non-empty send queue (once per poll iteration); tears
  /// down connections on hard errors or stalls past write_budget_us().
  void flush_writes();
  /// Max no-progress stall before teardown, microseconds (see NodeConfig).
  SimTime write_budget_us() const;

  NodeConfig cfg_;
  ReplicaFactory factory_;
  RealtimeExecutor executor_;
  std::unique_ptr<TcpNetwork> network_;
  std::unique_ptr<core::IReplica> replica_;
  /// Loopback deliveries queued by TcpNetwork::send(to == self), drained
  /// once per poll iteration — same deferred semantics as the simulator's
  /// self-delivery event, without an executor heap entry and closure
  /// allocation per message.
  std::deque<SharedBytes> self_inbox_;

  /// True when the event ring is installed and live (gates every transport
  /// event site and the clock-sync pings).
  bool tracing() const { return cfg_.trace && cfg_.trace->enabled(); }
  /// Intercepts tag-0 transport control frames (clock-sync ping/pong)
  /// before protocol dispatch; only exists while tracing.
  void handle_control_frame(Conn& conn, const Bytes& payload);
  /// Multicast a clock-sync ping to every identified peer (tracing only).
  void send_pings();

  std::thread thread_;
  std::atomic<bool> stop_flag_{false};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> last_commit_wall_us_{0};
  std::atomic<View> view_{0};
  std::atomic<Round> round_{0};
  /// Clock-offset estimation state (node thread only): best observed RTT
  /// per peer; a pong at or under it refreshes the offset estimate.
  std::map<ReplicaId, std::uint64_t> ping_best_rtt_;
  SimTime next_ping_at_ = 0;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};

  struct Conn {
    ReplicaId peer = UINT32_MAX;  ///< UINT32_MAX until the hello arrives
    Bytes inbox;                  ///< partial-frame read buffer
    SimTime accepted_at = 0;      ///< executor time at accept (hello deadline)
    SendQueue outbox;             ///< bounded outbound frame queue
    /// When the outbox first reported kBlocked with no progress since;
    /// kSimTimeNever while writes are flowing.
    SimTime blocked_since = kSimTimeNever;
  };
  std::map<int, Conn> conns_;               ///< fd -> connection state
  std::map<ReplicaId, int> fd_of_peer_;     ///< established, post-hello
};

}  // namespace repro::transport
