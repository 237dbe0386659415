#include "ladder.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "crypto/sha256.h"
#include "smr/messages.h"
#include "transport/node.h"

namespace perfbench {
namespace {

using namespace repro;

/// Median over `reps` repetitions of the mean cost of one call, in ns.
template <typename Fn>
double time_ns(Fn&& fn, int iters, int reps = 5) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = mono_ns();
    for (int i = 0; i < iters; ++i) fn(i);
    per_call.push_back(double(mono_ns() - t0) / iters);
  }
  return median(per_call);
}

std::uint64_t g_sink = 0;  // keeps timed results observable

void crypto_rungs(std::uint32_t n, const char* suffix, RunResult& result, RungCosts& costs) {
  const auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 0x6c6164646572ull + n);
  const crypto::ThresholdScheme& ts = sys->quorum_sigs;
  Bytes msg(64);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 7 + n);
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId id = 0; id < ts.threshold(); ++id) shares.push_back(ts.sign_share(id, msg));
  const auto sig = ts.combine(shares, msg);
  if (!sig || !ts.verify(*sig, msg) || !ts.verify_share(shares[0], msg)) {
    result.fail(std::string("ladder: threshold signature round trip failed at ") + suffix);
    return;
  }
  const double sign_ns = time_ns(
      [&](int i) { g_sink += ts.sign_share(ReplicaId(i % ts.n()), msg).value; }, 2000);
  const double share_ns = time_ns(
      [&](int i) { g_sink += ts.verify_share(shares[i % shares.size()], msg); }, 2000);
  costs.combine_ns = time_ns([&](int) { g_sink += ts.combine(shares, msg)->value; }, 500);
  costs.cert_verify_ns = time_ns([&](int) { g_sink += ts.verify(*sig, msg); }, 2000);
  result.layers.set(std::string("crypto.sign_share_us.") + suffix, sign_ns / 1e3, "us");
  result.layers.set(std::string("crypto.share_verify_us.") + suffix, share_ns / 1e3, "us");
  result.layers.set(std::string("crypto.combine_us.") + suffix, costs.combine_ns / 1e3, "us");
  result.layers.set(std::string("crypto.cert_verify_us.") + suffix, costs.cert_verify_ns / 1e3,
                    "us");
}

// ---- transport echo rung ---------------------------------------------------

constexpr std::uint8_t kEchoTag = 0xEE;

/// Bench-defined replica for the loopback round-trip rung. The initiator
/// (replica 1) sends one frame at a time and times its echo; replica 0
/// bounces every frame back. A frame lost to connection set-up is resent
/// by a 50 ms retry timer.
class EchoReplica final : public core::IReplica {
 public:
  struct Plan {
    std::size_t small_frames = 4000;
    std::size_t large_frames = 800;
    std::vector<double> small_us, large_us;
    std::atomic<bool> done{false};
  };

  EchoReplica(const core::ReplicaContext& ctx, Plan* plan)
      : net_(ctx.net), sim_(ctx.sim), id_(ctx.id), plan_(plan) {}

  void start() override {
    if (id_ != 1) return;
    send_next();
    arm_retry();
  }

  void on_message(ReplicaId from, const Bytes& payload) override {
    if (payload.size() < 9 || payload[0] != kEchoTag) return;
    if (id_ == 0) {
      net_->send(id_, from, payload);
      return;
    }
    std::uint64_t seq = 0;
    for (int b = 0; b < 8; ++b) seq |= std::uint64_t(payload[1 + b]) << (8 * b);
    if (seq != seq_) return;  // stale duplicate of a retried frame
    const double rtt = (mono_ns() - sent_ns_) / 1e3;
    (seq_ <= plan_->small_frames ? plan_->small_us : plan_->large_us).push_back(rtt);
    if (seq_ == plan_->small_frames + plan_->large_frames) {
      plan_->done.store(true);
      return;
    }
    send_next();
  }
  void on_message_keyed(ReplicaId from, const Bytes& payload, const crypto::Digest&) override {
    on_message(from, payload);
  }
  void on_message_uncached(ReplicaId from, const Bytes& payload) override {
    on_message(from, payload);
  }
  void halt() override {}
  ReplicaId id() const override { return id_; }
  const smr::Ledger& ledger() const override { return ledger_; }
  smr::Ledger& ledger() override { return ledger_; }
  Round current_round() const override { return 0; }
  View current_view() const override { return 0; }
  bool in_fallback() const override { return false; }
  const core::ReplicaStats& stats() const override { return stats_; }

 private:
  void send_next() {
    ++seq_;
    resend();
  }
  void resend() {
    const std::size_t size = seq_ <= plan_->small_frames ? 64 : 16 * 1024;
    Bytes frame(size, 0x5a);
    frame[0] = kEchoTag;
    for (int b = 0; b < 8; ++b) frame[1 + b] = static_cast<std::uint8_t>(seq_ >> (8 * b));
    sent_ns_ = mono_ns();
    net_->send(id_, 0, std::move(frame));
  }
  void arm_retry() {
    sim_->schedule_after(50'000, [this] {
      if (plan_->done.load()) return;
      if (mono_ns() - sent_ns_ > 50'000'000) resend();
      arm_retry();
    });
  }

  net::INetwork* net_;
  sim::IExecutor* sim_;
  ReplicaId id_;
  Plan* plan_;
  std::uint64_t seq_ = 0;
  std::int64_t sent_ns_ = 0;
  smr::Ledger ledger_;
  core::ReplicaStats stats_;
};

}  // namespace

bool is_signed_tag(int tag) {
  switch (static_cast<smr::MsgType>(tag)) {
    case smr::MsgType::kProposal:
    case smr::MsgType::kDiemTimeout:
    case smr::MsgType::kFbTimeout:
    case smr::MsgType::kFbProposal:
    case smr::MsgType::kFbQc:
      return true;
    default:
      return false;
  }
}

bool carries_block_body(int tag) {
  switch (static_cast<smr::MsgType>(tag)) {
    case smr::MsgType::kProposal:
    case smr::MsgType::kFbProposal:
    case smr::MsgType::kBlockResponse:
    case smr::MsgType::kBatch:
    case smr::MsgType::kBatchPush:
      return true;
    default:
      return false;
  }
}

void ladder_codec(const PayloadSamples& samples, const crypto::CryptoSystem& crypto,
                  RunResult& result, RungCosts& costs) {
  std::vector<double> envelope_ns;
  for (int t = 1; t <= kNumMsgTypes; ++t) {
    std::vector<double> dec_ns, enc_ns;
    for (const auto& [from, payload] : samples[t]) {
      const auto msg = smr::decode_message(payload);
      if (!msg) {
        result.fail(std::string("ladder: captured ") + kMsgTypeNames[t] +
                    " payload does not decode");
        continue;
      }
      dec_ns.push_back(time_ns([&](int) { g_sink += smr::decode_message(payload).has_value(); },
                               200, 3));
      enc_ns.push_back(
          time_ns([&](int) { g_sink += smr::encode_message(*msg).size(); }, 200, 3));
      if (smr::encode_message(*msg) != payload) {
        result.fail(std::string("ladder: ") + kMsgTypeNames[t] +
                    " payload does not re-encode to its wire bytes");
      }
      if (is_signed_tag(t)) {
        if (!smr::verify_message_signature_wire(crypto, from, *msg, payload)) {
          result.fail(std::string("ladder: captured ") + kMsgTypeNames[t] +
                      " envelope does not verify");
        }
        envelope_ns.push_back(time_ns(
            [&](int) {
              g_sink += smr::verify_message_signature_wire(crypto, from, *msg, payload);
            },
            200, 3));
      }
    }
    costs.decode_ns[t] = median(dec_ns);
    result.layers.set(std::string("smr.decode_ns.") + kMsgTypeNames[t], median(dec_ns), "ns");
    result.layers.set(std::string("smr.encode_ns.") + kMsgTypeNames[t], median(enc_ns), "ns");
  }
  costs.envelope_ns = median(envelope_ns);
  result.layers.set("crypto.envelope_verify_us", costs.envelope_ns / 1e3, "us");
}

void ladder_crypto(RunResult& result, RungCosts& n4, RungCosts& n16) {
  crypto_rungs(4, "n4", result, n4);
  crypto_rungs(16, "n16", result, n16);
  Bytes buf(16 * 1024);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(i * 13);
  const double ns = time_ns([&](int) { g_sink += crypto::sha256(buf)[0]; }, 200);
  result.layers.set("crypto.sha256_ns_per_kib", ns / 16, "ns");
  n4.sha256_ns_per_byte = n16.sha256_ns_per_byte = ns / double(buf.size());
}

void ladder_transport(RunResult& result) {
  const auto ports = free_loopback_ports(2);
  EchoReplica::Plan plan;
  const auto keys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 0xec40);
  std::vector<std::unique_ptr<transport::TcpNode>> nodes;
  for (ReplicaId id = 0; id < 2; ++id) {
    transport::NodeConfig cfg;
    cfg.id = id;
    for (std::uint16_t p : ports) cfg.peers.push_back({"127.0.0.1", p});
    cfg.crypto = keys;
    nodes.push_back(std::make_unique<transport::TcpNode>(
        std::move(cfg), [&plan](const core::ReplicaContext& ctx) {
          return std::make_unique<EchoReplica>(ctx, &plan);
        }));
  }
  for (auto& n : nodes) n->start();
  const std::int64_t deadline = mono_us() + 20'000'000;
  while (!plan.done.load() && mono_us() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& n : nodes) n->stop();
  if (!plan.done.load()) {
    result.fail("ladder: loopback echo did not complete");
    return;
  }
  result.layers.set("transport.rtt_us_p50", median(plan.small_us), "us");
  result.layers.set("transport.rtt_16k_us_p50", median(plan.large_us), "us");
}

double handler_coverage(const HandlerTally& tally, const RungCosts& costs) {
  double explained = double(tally.combines) * (costs.combine_ns + costs.cert_verify_ns) +
                     tally.wal_ns;
  for (int t = 1; t <= kNumMsgTypes; ++t) {
    explained += double(tally.calls[t]) *
                 (costs.decode_ns[t] + (is_signed_tag(t) ? costs.envelope_ns : 0));
    if (carries_block_body(t)) explained += double(tally.bytes[t]) * costs.sha256_ns_per_byte;
  }
  return ratio(explained, tally.handler_ns);
}

}  // namespace perfbench
