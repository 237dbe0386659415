// Experiment µ — microbenchmarks (google-benchmark) for the cryptographic
// substrate, serialization and the simulator's event loop: these set the
// constant factors behind every protocol message the macro benches count.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "crypto/dealer.h"
#include "crypto/sha256_kernels.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "smr/block.h"
#include "smr/certificates.h"
#include "smr/messages.h"

using namespace repro;

namespace {

void BM_Sha256(benchmark::State& state) {
  const std::size_t size = state.range(0);
  Bytes data(size, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// The same digests through the portable kernel: BM_Sha256 / this is the
// SHA-NI gain on a CPU that has the extensions (DESIGN.md §16).
void BM_Sha256Portable(benchmark::State& state) {
  const std::size_t size = state.range(0);
  Bytes data(size, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::kernels::sha256_with(crypto::kernels::compress_portable, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * size));
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(1024)->Arg(65536);

void BM_FieldMul(benchmark::State& state) {
  Rng rng(1);
  crypto::Fp a(rng.next()), b(rng.next());
  for (auto _ : state) {
    a = a * b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldInverse(benchmark::State& state) {
  crypto::Fp a(123456789);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.inverse());
  }
}
BENCHMARK(BM_FieldInverse);

void BM_ThresholdSignShare(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 7);
  const Bytes msg = {1, 2, 3, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->quorum_sigs.sign_share(0, msg));
  }
}
BENCHMARK(BM_ThresholdSignShare)->Arg(4)->Arg(31);

void BM_ThresholdCombine(benchmark::State& state) {
  // Real Lagrange interpolation over 2f+1 shares — the QC formation cost.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 7);
  const Bytes msg = {1, 2, 3, 4};
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId i = 0; i < sys->params.quorum(); ++i) {
    shares.push_back(sys->quorum_sigs.sign_share(i, msg));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->quorum_sigs.combine(shares, msg));
  }
}
BENCHMARK(BM_ThresholdCombine)->Arg(4)->Arg(10)->Arg(31)->Arg(100);

void BM_ShareVerifyEach(benchmark::State& state) {
  // Eager quorum assembly: every arriving share pays one verify_share
  // (point memoized). Cost of collecting one certificate = t of these.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 7);
  const Bytes msg = {1, 2, 3, 4};
  const crypto::Fp point = sys->quorum_sigs.message_point(msg);
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId i = 0; i < sys->params.quorum(); ++i) {
    shares.push_back(sys->quorum_sigs.sign_share(i, msg));
  }
  for (auto _ : state) {
    for (const auto& s : shares) {
      benchmark::DoNotOptimize(sys->quorum_sigs.verify_share_at(s, point));
    }
  }
  state.counters["shares"] = static_cast<double>(shares.size());
}
BENCHMARK(BM_ShareVerifyEach)->Arg(4)->Arg(31);

void BM_CombineThenVerify(benchmark::State& state) {
  // Lazy (optimistic) quorum assembly: one Lagrange combine over cached
  // coefficients plus ONE combined verification — the per-certificate
  // cost that replaces the t per-share checks of BM_ShareVerifyEach.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 7);
  const Bytes msg = {1, 2, 3, 4};
  const crypto::Fp point = sys->quorum_sigs.message_point(msg);
  std::vector<crypto::PartialSig> shares;
  std::vector<ReplicaId> ids;
  for (ReplicaId i = 0; i < sys->params.quorum(); ++i) {
    shares.push_back(sys->quorum_sigs.sign_share(i, msg));
    ids.push_back(i);
  }
  crypto::LagrangeCache cache;
  for (auto _ : state) {
    const auto& coeffs = cache.coefficients(ids);
    const auto sig = sys->quorum_sigs.combine_with_coefficients(shares, coeffs);
    benchmark::DoNotOptimize(sys->quorum_sigs.verify_at(sig, point));
  }
  state.counters["lagrange_hits"] = static_cast<double>(cache.hits());
}
BENCHMARK(BM_CombineThenVerify)->Arg(4)->Arg(31);

void BM_LagrangeBatchCoefficients(benchmark::State& state) {
  // Cold-path coefficient derivation: prefix/suffix products + ONE field
  // inversion for all t denominators (Montgomery batch inversion),
  // instead of t independent ~60-squaring inverses.
  const auto t = static_cast<std::uint32_t>(state.range(0));
  std::vector<ReplicaId> ids;
  for (ReplicaId i = 0; i < t; ++i) ids.push_back(i * 3 + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::lagrange_coefficients_at_zero(ids));
  }
}
BENCHMARK(BM_LagrangeBatchCoefficients)->Arg(3)->Arg(21)->Arg(67);

void BM_LagrangeCachedCoefficients(benchmark::State& state) {
  // Steady state: the same 2f+1 signer set recurs round after round, so
  // the coefficient vector is an LRU hit — one hash of the id vector.
  const auto t = static_cast<std::uint32_t>(state.range(0));
  std::vector<ReplicaId> ids;
  for (ReplicaId i = 0; i < t; ++i) ids.push_back(i * 3 + 1);
  crypto::LagrangeCache cache;
  cache.coefficients(ids);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.coefficients(ids));
  }
}
BENCHMARK(BM_LagrangeCachedCoefficients)->Arg(3)->Arg(21)->Arg(67);

void BM_ThresholdVerify(benchmark::State& state) {
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 7);
  const Bytes msg = {1, 2, 3, 4};
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId i = 0; i < 3; ++i) shares.push_back(sys->quorum_sigs.sign_share(i, msg));
  const auto sig = *sys->quorum_sigs.combine(shares, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->quorum_sigs.verify(sig, msg));
  }
}
BENCHMARK(BM_ThresholdVerify);

smr::Certificate bench_certificate(const crypto::CryptoSystem& sys) {
  const smr::BlockId id = crypto::sha256(Bytes{1, 2, 3});
  const Bytes msg = smr::cert_signing_message(smr::CertKind::kQuorum, id, 3, 0, 0, 0);
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId i = 0; i < sys.params.quorum(); ++i) {
    shares.push_back(sys.quorum_sigs.sign_share(i, msg));
  }
  return *smr::combine_certificate(sys, smr::CertKind::kQuorum, id, 3, 0, 0, 0, shares);
}

void BM_CertVerifyFull(benchmark::State& state) {
  // What every delivered certificate pays: one SHA-256 of the ~60-byte
  // signing message and one field multiply in the GF(2^61-1) model
  // scheme. A lookup keyed on a hash of the same bytes cannot beat it,
  // which is why replicas verify every copy (docs/PROTOCOL.md §7).
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 7);
  const smr::Certificate cert = bench_certificate(*sys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(smr::verify_certificate(*sys, cert));
  }
}
BENCHMARK(BM_CertVerifyFull);

void BM_CoinElection(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(n), 7);
  std::vector<crypto::PartialSig> shares;
  for (ReplicaId i = 0; i < sys->params.coin_quorum(); ++i) {
    shares.push_back(sys->coin.coin_share(i, 5));
  }
  for (auto _ : state) {
    auto qc = sys->coin.combine(shares, 5);
    benchmark::DoNotOptimize(sys->coin.leader_from(*qc));
  }
}
BENCHMARK(BM_CoinElection)->Arg(4)->Arg(31);

void BM_SignatureSign(benchmark::State& state) {
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 7);
  const Bytes msg(256, 0x11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->signatures.sign(1, msg));
  }
}
BENCHMARK(BM_SignatureSign);

void BM_BlockIdCompute(benchmark::State& state) {
  const std::size_t payload = state.range(0);
  const Bytes txn(payload, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        smr::Block::compute_id(smr::genesis_certificate(), 1, 0, 0, 0, txn));
  }
}
BENCHMARK(BM_BlockIdCompute)->Arg(0)->Arg(1024);

// The id check BlockStore::insert asserts on every stored block. A block
// from Block::make or Block::decode answers from its id memo; the same
// fields with the payload in a fresh buffer miss the memo and rehash,
// which is what every check cost before the memo.
void BM_BlockIdCheck(benchmark::State& state, bool memoized) {
  const Bytes txn(static_cast<std::size_t>(state.range(0)), 0x22);
  smr::Block block = smr::Block::make(smr::genesis_certificate(), 1, 0, 0, 0, txn);
  if (!memoized) block.payload = make_shared_bytes(Bytes(txn));
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.id_consistent());
  }
}
BENCHMARK_CAPTURE(BM_BlockIdCheck, memoized, true)->Arg(1024);
BENCHMARK_CAPTURE(BM_BlockIdCheck, rehash, false)->Arg(1024);

void BM_ProposalEncodeDecode(benchmark::State& state) {
  auto sys = crypto::CryptoSystem::deal(QuorumParams::for_n(4), 7);
  smr::Message msg = smr::ProposalMsg{
      smr::Block::make(smr::genesis_certificate(), 1, 0, 0, 0, Bytes(256, 0x33)),
      std::nullopt,
      {},
      {}};
  smr::encode_signed(*sys, 0, msg);  // sets msg.sig
  for (auto _ : state) {
    const Bytes wire = smr::encode_message(msg);
    benchmark::DoNotOptimize(smr::decode_message(wire));
  }
}
BENCHMARK(BM_ProposalEncodeDecode);

// ---- sim event loop ----------------------------------------------------------

// One simulated event's bookkeeping: schedule state.range(0) events at
// spread-out times, cancel every fourth (timers superseded before they
// fire), drain. Per item = per event scheduled.
void BM_SimScheduleFire(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<SimTime> delays(count);
  for (auto& d : delays) d = rng.uniform_range(0, 10'000);
  std::vector<sim::EventId> ids(count);
  sim::Simulation sim;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < count; ++i) {
      ids[i] = sim.schedule_after(delays[i], [&fired] { ++fired; });
    }
    for (std::size_t i = 0; i < count; i += 4) sim.cancel(ids[i]);
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * count));
}
BENCHMARK(BM_SimScheduleFire)->Arg(64)->Arg(4096);

// One simulated multicast at n=16: 15 network sends plus the loopback,
// each a heap entry and a delivery of the one shared buffer to a handler.
// Per item = per delivery.
void BM_NetworkMulticastDeliver(benchmark::State& state) {
  constexpr std::uint32_t kN = 16;
  sim::Simulation sim;
  net::Network net(sim, kN, std::make_unique<net::AsynchronousModel>(1'000, 50'000), Rng(3));
  std::uint64_t delivered_bytes = 0;
  for (ReplicaId id = 0; id < kN; ++id) {
    net.register_handler(id, [&delivered_bytes](ReplicaId, const Bytes& payload) {
      delivered_bytes += payload.size();
    });
  }
  const Bytes body(static_cast<std::size_t>(state.range(0)), 0x5c);
  ReplicaId from = 0;
  for (auto _ : state) {
    net.multicast(from, make_shared_bytes(Bytes(body)));
    from = (from + 1) % kN;
    sim.run();
    benchmark::DoNotOptimize(delivered_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_NetworkMulticastDeliver)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
