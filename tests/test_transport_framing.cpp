// TCP framing edge cases: a raw test socket speaks directly to a live
// TcpNode — fragmented frames, oversized frames, bad hellos and abrupt
// disconnects must all be handled without wedging the node.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "core/fallback.h"
#include "test_ports.h"
#include "transport/node.h"

namespace repro::transport {
namespace {

struct NodeRig {
  std::shared_ptr<const crypto::CryptoSystem> crypto_sys;
  std::unique_ptr<TcpNode> node;
  std::uint16_t port = 0;  // node 0's listen port

  explicit NodeRig(SimTime hello_timeout = 2'000'000) {
    // A 4-peer cluster where only replica 0 actually runs; the test
    // socket impersonates replica 3 (3 > 0, so it dials us — matching the
    // connection convention).
    crypto_sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 5);
    NodeConfig cfg;
    cfg.id = 0;
    for (const std::uint16_t p : kernel_ports(4)) cfg.peers.push_back(PeerAddress{"127.0.0.1", p});
    port = cfg.peers[0].port;
    cfg.crypto = crypto_sys;
    cfg.seed = 1;
    cfg.pcfg.base_timeout_us = 200'000;
    cfg.hello_timeout = hello_timeout;
    node = std::make_unique<TcpNode>(cfg, [](const core::ReplicaContext& ctx) {
      return std::make_unique<core::FallbackReplica>(ctx, core::FallbackParams{});
    });
    node->start();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  ~NodeRig() { node->stop(); }

  int connect_raw() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);  // node 0's listen port
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  static void send_all(int fd, const Bytes& data) {
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      done += static_cast<std::size_t>(n);
    }
  }

  static Bytes le32(std::uint32_t v) {
    return Bytes{std::uint8_t(v), std::uint8_t(v >> 8), std::uint8_t(v >> 16),
                 std::uint8_t(v >> 24)};
  }

  /// A validly framed (hello + message) byte stream from "replica 3".
  Bytes hello_and_message() const {
    smr::Message msg = smr::BlockRequestMsg{smr::genesis_id(), 4};
    const Bytes wire = smr::encode_message(msg);
    Bytes out = le32(3);  // hello: peer id 3
    const Bytes len = le32(static_cast<std::uint32_t>(wire.size()));
    out.insert(out.end(), len.begin(), len.end());
    out.insert(out.end(), wire.begin(), wire.end());
    return out;
  }

  /// Wait (bounded) for a reply frame on fd; true if one arrives.
  static bool reply_arrives(int fd) {
    std::uint8_t buf[256];
    timeval tv{1, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return ::recv(fd, buf, sizeof(buf), 0) > 0;
  }
};

TEST(TcpFraming, WholeStreamAtOnce) {
  NodeRig rig;
  const int fd = rig.connect_raw();
  NodeRig::send_all(fd, rig.hello_and_message());
  // A BlockRequest for genesis earns a BlockResponse.
  EXPECT_TRUE(NodeRig::reply_arrives(fd));
  ::close(fd);
}

TEST(TcpFraming, ByteByByteFragmentation) {
  NodeRig rig;
  const int fd = rig.connect_raw();
  const Bytes stream = rig.hello_and_message();
  for (std::uint8_t b : stream) {
    NodeRig::send_all(fd, Bytes{b});
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_TRUE(NodeRig::reply_arrives(fd));
  ::close(fd);
}

TEST(TcpFraming, OversizedFrameClosesConnection) {
  NodeRig rig;
  const int fd = rig.connect_raw();
  Bytes stream = NodeRig::le32(3);                  // hello
  const Bytes huge = NodeRig::le32(64u << 20);      // 64 MiB claim > 16 MiB cap
  stream.insert(stream.end(), huge.begin(), huge.end());
  NodeRig::send_all(fd, stream);
  // The node must close on us (recv sees EOF), not wedge.
  std::uint8_t buf[16];
  timeval tv{2, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
}

TEST(TcpFraming, BogusHelloClosesConnection) {
  NodeRig rig;
  const int fd = rig.connect_raw();
  NodeRig::send_all(fd, NodeRig::le32(999));  // peer id out of range
  std::uint8_t buf[16];
  timeval tv{2, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
}

TEST(TcpFraming, AbruptDisconnectDoesNotWedgeNode) {
  NodeRig rig;
  for (int i = 0; i < 5; ++i) {
    const int fd = rig.connect_raw();
    NodeRig::send_all(fd, NodeRig::le32(3));
    ::close(fd);  // vanish mid-session
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Node still accepts and serves a well-behaved session afterwards.
  const int fd = rig.connect_raw();
  NodeRig::send_all(fd, rig.hello_and_message());
  EXPECT_TRUE(NodeRig::reply_arrives(fd));
  ::close(fd);
}

TEST(TcpFraming, HalfOpenConnectionIsReapedAfterHelloDeadline) {
  // A connection that never completes the 4-byte hello must not hold a
  // conns_ slot forever: the node closes it once hello_timeout passes.
  NodeRig rig(/*hello_timeout=*/200'000);  // 200 ms
  const int fd = rig.connect_raw();
  NodeRig::send_all(fd, Bytes{3});  // one byte of hello, then stall
  std::uint8_t buf[16];
  timeval tv{2, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // EOF: node reaped us
  ::close(fd);

  // A well-behaved session that completes the hello promptly still works.
  const int good = rig.connect_raw();
  NodeRig::send_all(good, rig.hello_and_message());
  EXPECT_TRUE(NodeRig::reply_arrives(good));
  ::close(good);
}

TEST(TcpFraming, PromptHelloIsNotReaped) {
  // The deadline applies only to unidentified connections: an identified
  // peer idling past hello_timeout stays connected.
  NodeRig rig(/*hello_timeout=*/200'000);
  const int fd = rig.connect_raw();
  NodeRig::send_all(fd, NodeRig::le32(3));  // complete hello immediately
  std::this_thread::sleep_for(std::chrono::milliseconds(400));  // idle past deadline
  smr::Message msg = smr::BlockRequestMsg{smr::genesis_id(), 4};
  const Bytes wire = smr::encode_message(msg);
  Bytes follow = NodeRig::le32(static_cast<std::uint32_t>(wire.size()));
  follow.insert(follow.end(), wire.begin(), wire.end());
  NodeRig::send_all(fd, follow);
  EXPECT_TRUE(NodeRig::reply_arrives(fd));
  ::close(fd);
}

TEST(TcpFraming, GarbagePayloadInsideValidFrameIsDropped) {
  NodeRig rig;
  const int fd = rig.connect_raw();
  Bytes stream = NodeRig::le32(3);
  const Bytes junk = {0xde, 0xad, 0xbe, 0xef, 0x01};
  const Bytes len = NodeRig::le32(static_cast<std::uint32_t>(junk.size()));
  stream.insert(stream.end(), len.begin(), len.end());
  stream.insert(stream.end(), junk.begin(), junk.end());
  NodeRig::send_all(fd, stream);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Connection survives (undecodable payloads are a replica-level drop,
  // not a transport error) and a valid request still works.
  smr::Message msg = smr::BlockRequestMsg{smr::genesis_id(), 4};
  const Bytes wire = smr::encode_message(msg);
  Bytes follow = NodeRig::le32(static_cast<std::uint32_t>(wire.size()));
  follow.insert(follow.end(), wire.begin(), wire.end());
  NodeRig::send_all(fd, follow);
  EXPECT_TRUE(NodeRig::reply_arrives(fd));
  ::close(fd);
}

}  // namespace
}  // namespace repro::transport
