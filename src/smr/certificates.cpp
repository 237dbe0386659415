#include "smr/certificates.h"

namespace repro::smr {

const BlockId& genesis_id() {
  // Hashed once: Block::is_genesis() compares against it on every chain walk.
  static const BlockId id = crypto::sha256_tagged("repro/genesis", BytesView{});
  return id;
}

Certificate genesis_certificate() {
  Certificate c;
  c.kind = CertKind::kGenesis;
  c.block_id = genesis_id();
  c.round = 0;
  c.view = 0;
  return c;
}

void Certificate::encode(Encoder& enc) const {
  enc.u8(static_cast<std::uint8_t>(kind));
  enc.raw(BytesView(block_id.data(), block_id.size()));
  enc.u64(round);
  enc.u64(view);
  enc.u32(height);
  enc.u32(proposer);
  enc.u64(sig.value);
}

std::optional<Certificate> Certificate::decode(Decoder& dec) {
  Certificate c;
  auto kind = dec.u8();
  auto id = dec.raw(32);
  auto round = dec.u64();
  auto view = dec.u64();
  auto height = dec.u32();
  auto proposer = dec.u32();
  auto sig = dec.u64();
  if (!kind || !id || !round || !view || !height || !proposer || !sig) return std::nullopt;
  if (*kind > static_cast<std::uint8_t>(CertKind::kFallback)) return std::nullopt;
  c.kind = static_cast<CertKind>(*kind);
  std::copy(id->begin(), id->end(), c.block_id.begin());
  c.round = *round;
  c.view = *view;
  c.height = *height;
  c.proposer = *proposer;
  c.sig.value = *sig;
  return c;
}

Bytes cert_signing_message(CertKind kind, const BlockId& id, Round round, View view,
                           FallbackHeight height, ReplicaId proposer) {
  Encoder enc;
  enc.str(kind == CertKind::kFallback ? "repro/fqc" : "repro/qc");
  enc.raw(BytesView(id.data(), id.size()));
  enc.u64(round);
  enc.u64(view);
  if (kind == CertKind::kFallback) {
    enc.u32(height);
    enc.u32(proposer);
  }
  return std::move(enc).result();
}

bool verify_certificate(const crypto::CryptoSystem& crypto, const Certificate& cert) {
  switch (cert.kind) {
    case CertKind::kGenesis:
      return cert == genesis_certificate();
    case CertKind::kQuorum:
      if (cert.height != 0) return false;
      break;
    case CertKind::kFallback:
      if (cert.height < 1 || cert.height > 3) return false;
      if (cert.proposer >= crypto.params.n) return false;
      break;
  }
  const Bytes msg = cert_signing_message(cert.kind, cert.block_id, cert.round, cert.view,
                                         cert.height, cert.proposer);
  return crypto.quorum_sigs.verify(cert.sig, msg);
}

std::optional<Certificate> combine_certificate(const crypto::CryptoSystem& crypto,
                                               CertKind kind, const BlockId& id, Round round,
                                               View view, FallbackHeight height,
                                               ReplicaId proposer,
                                               std::span<const crypto::PartialSig> shares) {
  const Bytes msg = cert_signing_message(kind, id, round, view, height, proposer);
  auto sig = crypto.quorum_sigs.combine(shares, msg);
  if (!sig) return std::nullopt;
  Certificate c;
  c.kind = kind;
  c.block_id = id;
  c.round = round;
  c.view = view;
  c.height = height;
  c.proposer = proposer;
  c.sig = *sig;
  return c;
}

void TimeoutCert::encode(Encoder& enc) const {
  enc.u64(round);
  enc.u64(sig.value);
}

std::optional<TimeoutCert> TimeoutCert::decode(Decoder& dec) {
  auto round = dec.u64();
  auto sig = dec.u64();
  if (!round || !sig) return std::nullopt;
  return TimeoutCert{*round, crypto::ThresholdSig{*sig}};
}

Bytes tc_signing_message(Round round) {
  Encoder enc;
  enc.str("repro/tc");
  enc.u64(round);
  return std::move(enc).result();
}

bool verify_tc(const crypto::CryptoSystem& crypto, const TimeoutCert& tc) {
  return crypto.quorum_sigs.verify(tc.sig, tc_signing_message(tc.round));
}

std::optional<TimeoutCert> combine_tc(const crypto::CryptoSystem& crypto, Round round,
                                      std::span<const crypto::PartialSig> shares) {
  auto sig = crypto.quorum_sigs.combine(shares, tc_signing_message(round));
  if (!sig) return std::nullopt;
  return TimeoutCert{round, *sig};
}

void FallbackTC::encode(Encoder& enc) const {
  enc.u64(view);
  enc.u64(sig.value);
}

std::optional<FallbackTC> FallbackTC::decode(Decoder& dec) {
  auto view = dec.u64();
  auto sig = dec.u64();
  if (!view || !sig) return std::nullopt;
  return FallbackTC{*view, crypto::ThresholdSig{*sig}};
}

Bytes ftc_signing_message(View view) {
  Encoder enc;
  enc.str("repro/ftc");
  enc.u64(view);
  return std::move(enc).result();
}

bool verify_ftc(const crypto::CryptoSystem& crypto, const FallbackTC& ftc) {
  return crypto.quorum_sigs.verify(ftc.sig, ftc_signing_message(ftc.view));
}

std::optional<FallbackTC> combine_ftc(const crypto::CryptoSystem& crypto, View view,
                                      std::span<const crypto::PartialSig> shares) {
  auto sig = crypto.quorum_sigs.combine(shares, ftc_signing_message(view));
  if (!sig) return std::nullopt;
  return FallbackTC{view, *sig};
}

void CoinQC::encode(Encoder& enc) const {
  enc.u64(view);
  enc.u64(sig.value);
}

std::optional<CoinQC> CoinQC::decode(Decoder& dec) {
  auto view = dec.u64();
  auto sig = dec.u64();
  if (!view || !sig) return std::nullopt;
  return CoinQC{*view, crypto::ThresholdSig{*sig}};
}

bool verify_coin_qc(const crypto::CryptoSystem& crypto, const CoinQC& qc) {
  return crypto.coin.verify(qc.sig, qc.view);
}

std::optional<CoinQC> combine_coin_qc(const crypto::CryptoSystem& crypto, View view,
                                      std::span<const crypto::PartialSig> shares) {
  auto sig = crypto.coin.combine(shares, view);
  if (!sig) return std::nullopt;
  return CoinQC{view, *sig};
}

}  // namespace repro::smr
