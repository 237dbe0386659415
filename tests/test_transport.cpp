// Real-network integration: the same replica code that runs in the
// simulator runs over localhost TCP on the wall clock — commits blocks,
// stays prefix-consistent, and tolerates a node crash + rejoin.
//
// These tests use real time and real sockets; they are kept short (a few
// hundred milliseconds each) and take their ports from the kernel
// (test_ports.h), so parallel test processes never clash.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "core/fallback.h"
#include "test_ports.h"
#include "transport/node.h"

namespace repro::transport {
namespace {

ReplicaFactory fallback_factory(core::FallbackParams fb = {}) {
  return [fb](const core::ReplicaContext& ctx) {
    return std::make_unique<core::FallbackReplica>(ctx, fb);
  };
}

struct Cluster {
  std::vector<PeerAddress> peers;
  std::shared_ptr<const crypto::CryptoSystem> crypto;
  std::vector<std::unique_ptr<storage::FileWal>> wals;
  std::vector<std::unique_ptr<TcpNode>> nodes;

  /// One node per port in `ports`.
  explicit Cluster(const std::vector<std::uint16_t>& ports, bool with_wal = false) {
    const auto n = static_cast<std::uint32_t>(ports.size());
    crypto = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 99);
    for (const std::uint16_t port : ports) peers.push_back(PeerAddress{"127.0.0.1", port});
    for (ReplicaId i = 0; i < n; ++i) {
      NodeConfig cfg;
      cfg.id = i;
      cfg.peers = peers;
      cfg.crypto = crypto;
      cfg.seed = 1000 + i;
      cfg.pcfg.base_timeout_us = 200'000;
      if (with_wal) {
        wals.push_back(std::make_unique<storage::FileWal>(
            ::testing::TempDir() + "tcp_wal_" + std::to_string(ports[i]) + ".log"));
        cfg.wal = wals.back().get();
      }
      nodes.push_back(std::make_unique<TcpNode>(cfg, fallback_factory()));
    }
  }

  ~Cluster() {
    stop_all();
    for (auto& w : wals) std::remove(w->path().c_str());
  }

  void start_all() {
    for (auto& n : nodes) n->start();
  }

  void stop_all() {
    for (auto& n : nodes) n->stop();
  }

  /// Real-time wait until every node committed >= target (or timeout).
  bool wait_commits(std::uint64_t target, std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    for (;;) {
      bool all = true;
      for (auto& n : nodes) {
        if (n->committed() < target) all = false;
      }
      if (all) return true;
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  /// Prefix-consistency across stopped nodes' ledgers.
  bool ledgers_consistent() {
    for (std::size_t a = 0; a < nodes.size(); ++a) {
      for (std::size_t b = a + 1; b < nodes.size(); ++b) {
        const auto& ra = nodes[a]->replica().ledger().records();
        const auto& rb = nodes[b]->replica().ledger().records();
        for (std::size_t i = 0; i < std::min(ra.size(), rb.size()); ++i) {
          if (ra[i].id != rb[i].id) return false;
        }
      }
    }
    return true;
  }
};

TEST(TcpCluster, FourNodesCommitOverRealSockets) {
  Cluster cluster(kernel_ports(4));
  cluster.start_all();
  ASSERT_TRUE(cluster.wait_commits(10, std::chrono::seconds(20)));
  cluster.stop_all();
  EXPECT_TRUE(cluster.ledgers_consistent());
  // Should have committed via the fast path, not via fallbacks.
  for (auto& n : cluster.nodes) {
    EXPECT_GE(n->replica().ledger().size(), 10u);
  }
}

TEST(TcpCluster, SurvivesSlowStart) {
  // Start nodes staggered: late joiners connect through the reconnect
  // path and the cluster still commits.
  Cluster cluster(kernel_ports(4));
  cluster.nodes[0]->start();
  cluster.nodes[1]->start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  cluster.nodes[2]->start();
  cluster.nodes[3]->start();
  ASSERT_TRUE(cluster.wait_commits(10, std::chrono::seconds(20)));
  cluster.stop_all();
  EXPECT_TRUE(cluster.ledgers_consistent());
}

TEST(TcpCluster, NodeCrashAndWalRecoveryOverTcp) {
  Cluster cluster(kernel_ports(4), /*with_wal=*/true);
  cluster.start_all();
  ASSERT_TRUE(cluster.wait_commits(5, std::chrono::seconds(20)));

  // Hard-stop node 3 (simulated crash), then bring up a fresh process
  // image of it recovering from its on-disk WAL.
  cluster.nodes[3]->stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  NodeConfig cfg;
  cfg.id = 3;
  cfg.peers = cluster.peers;
  cfg.crypto = cluster.crypto;
  cfg.seed = 4242;
  cfg.pcfg.base_timeout_us = 200'000;
  cfg.wal = cluster.wals[3].get();
  cluster.nodes[3] = std::make_unique<TcpNode>(cfg, fallback_factory());
  cluster.nodes[3]->start();

  // The recovered node catches up and the cluster keeps committing.
  ASSERT_TRUE(cluster.wait_commits(20, std::chrono::seconds(30)));
  cluster.stop_all();
  EXPECT_TRUE(cluster.ledgers_consistent());
  EXPECT_TRUE(dynamic_cast<const core::ReplicaBase&>(cluster.nodes[3]->replica()).recovered());
}

// ---- per-peer send queue ----------------------------------------------------

SharedBytes frame_of(std::size_t size, std::uint8_t fill) {
  return make_shared_bytes(Bytes(size, fill));
}

/// AF_UNIX socketpair with a tiny send buffer on the writer side so a few
/// KiB of frames reliably hit EAGAIN; both ends non-blocking.
struct TinyPipe {
  int writer = -1;
  int reader = -1;

  TinyPipe() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    writer = fds[0];
    reader = fds[1];
    const int small = 4096;  // kernel clamps upward, but stays small
    ::setsockopt(writer, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    ::fcntl(writer, F_SETFL, O_NONBLOCK);
    ::fcntl(reader, F_SETFL, O_NONBLOCK);
  }
  ~TinyPipe() {
    if (writer >= 0) ::close(writer);
    if (reader >= 0) ::close(reader);
  }

  /// Read everything currently buffered on the reader side.
  void drain_into(Bytes& out) {
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::read(reader, buf, sizeof(buf));
      if (n <= 0) return;
      out.insert(out.end(), buf, buf + n);
    }
  }
};

TEST(SendQueue, DropsNewestFrameAtByteBoundAndCountsIt) {
  net::NetStats stats;
  SendQueue q(100);
  EXPECT_TRUE(q.push(frame_of(40, 1), &stats));   // 44 bytes with header
  EXPECT_TRUE(q.push(frame_of(40, 2), &stats));   // 88
  EXPECT_FALSE(q.push(frame_of(40, 3), &stats));  // 132 > 100: dropped
  EXPECT_EQ(q.frames(), 2u);
  EXPECT_EQ(q.bytes(), 88u);
  EXPECT_EQ(stats.sendq_dropped_frames, 1u);
  EXPECT_EQ(stats.sendq_dropped_bytes, 44u);  // header counted too
  // A smaller frame that fits is still accepted after a drop.
  EXPECT_TRUE(q.push(frame_of(8, 4), &stats));
  EXPECT_EQ(stats.sendq_dropped_frames, 1u);
}

TEST(SendQueue, PartialWritesResumeWithoutLossOrDuplication) {
  TinyPipe pipe;
  net::NetStats stats;
  SendQueue q;
  // Far more data than the writer's socket buffer: flushes will stop
  // mid-frame and must resume at the exact byte offset.
  constexpr std::size_t kFrames = 8;
  constexpr std::size_t kSize = 8 * 1024;
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(q.push(frame_of(kSize, static_cast<std::uint8_t>(i + 1)), &stats));
  }

  Bytes received;
  int spins = 0;
  for (;;) {
    const auto r = q.flush(pipe.writer, &stats);
    ASSERT_NE(r, SendQueue::FlushResult::kError);
    if (r == SendQueue::FlushResult::kDrained) break;
    pipe.drain_into(received);  // the peer consumes; the queue recovers
    ASSERT_LT(++spins, 10'000) << "flush never drained — stalled queue";
  }
  pipe.drain_into(received);

  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_EQ(stats.writev_frames, kFrames);
  EXPECT_EQ(stats.writev_bytes, kFrames * (4 + kSize));
  EXPECT_GE(stats.writev_batches, 2u);  // tiny buffer forces multiple writes

  // The byte stream must contain each frame exactly once, in order.
  ASSERT_EQ(received.size(), kFrames * (4 + kSize));
  std::size_t off = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const std::uint32_t len = static_cast<std::uint32_t>(received[off]) |
                              (static_cast<std::uint32_t>(received[off + 1]) << 8) |
                              (static_cast<std::uint32_t>(received[off + 2]) << 16) |
                              (static_cast<std::uint32_t>(received[off + 3]) << 24);
    ASSERT_EQ(len, kSize) << "frame " << i;
    off += 4;
    for (std::size_t b = 0; b < kSize; ++b) {
      ASSERT_EQ(received[off + b], static_cast<std::uint8_t>(i + 1))
          << "frame " << i << " byte " << b;
    }
    off += kSize;
  }
}

TEST(SendQueue, BlockedSocketLeavesQueueIntact) {
  TinyPipe pipe;
  net::NetStats stats;
  SendQueue q;
  ASSERT_TRUE(q.push(frame_of(64 * 1024, 7), &stats));

  // Nobody drains the reader: the first flush makes progress until the
  // socket buffer fills, later flushes are blocked outright.
  ASSERT_EQ(q.flush(pipe.writer, &stats), SendQueue::FlushResult::kProgress);
  const std::size_t left = q.bytes();
  ASSERT_GT(left, 0u);
  EXPECT_EQ(q.flush(pipe.writer, &stats), SendQueue::FlushResult::kBlocked);
  EXPECT_EQ(q.bytes(), left);  // blocked flush consumed nothing
  EXPECT_EQ(q.frames(), 1u);

  // Once the peer drains, the same queue finishes the frame.
  Bytes received;
  int spins = 0;
  while (q.flush(pipe.writer, &stats) != SendQueue::FlushResult::kDrained) {
    pipe.drain_into(received);
    ASSERT_LT(++spins, 10'000);
  }
  pipe.drain_into(received);
  EXPECT_EQ(received.size(), 4u + 64 * 1024);
  EXPECT_EQ(stats.writev_frames, 1u);
}

TEST(SendQueue, PeerResetSurfacesErrorNotSignal) {
  TinyPipe pipe;
  net::NetStats stats;
  SendQueue q;
  ::close(pipe.reader);
  pipe.reader = -1;
  ASSERT_TRUE(q.push(frame_of(128, 9), &stats));
  // MSG_NOSIGNAL: a reset peer yields EPIPE for the caller to tear the
  // connection down — it must not kill the test process with SIGPIPE.
  EXPECT_EQ(q.flush(pipe.writer, &stats), SendQueue::FlushResult::kError);
}

TEST(RealtimeExecutor, TimersFireInOrder) {
  RealtimeExecutor exec;
  std::vector<int> order;
  exec.schedule_after(2'000, [&] { order.push_back(2); });
  exec.schedule_after(500, [&] { order.push_back(1); });
  const auto id = exec.schedule_after(1'000, [&] { order.push_back(99); });
  exec.cancel(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  exec.run_due();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(exec.next_deadline(), kSimTimeNever);
}

TEST(RealtimeExecutor, DueEventsOnlyFireWhenDue) {
  RealtimeExecutor exec;
  bool fired = false;
  exec.schedule_after(200'000, [&] { fired = true; });
  exec.run_due();
  EXPECT_FALSE(fired);
  EXPECT_NE(exec.next_deadline(), kSimTimeNever);
}

}  // namespace
}  // namespace repro::transport
