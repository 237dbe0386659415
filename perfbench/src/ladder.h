// Ladder rungs: public functions timed on their own, so per-message costs
// can be multiplied by the message counts of a traced run and compared
// with the handler time that run measured (ladder.handler_coverage).
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/bytes.h"
#include "crypto/dealer.h"

namespace perfbench {

using PayloadSamples = std::array<std::vector<std::pair<repro::ReplicaId, repro::Bytes>>, 16>;

/// Per-message costs of one committee size, nanoseconds.
struct RungCosts {
  std::array<double, 16> decode_ns{};
  double envelope_ns = 0;      ///< verify_message_signature_wire, signed types
  double combine_ns = 0;       ///< ThresholdScheme::combine of a quorum
  double cert_verify_ns = 0;   ///< ThresholdScheme::verify of a certificate
  double sha256_ns_per_byte = 0;
};

/// What a traced run measured at the handler boundary.
struct HandlerTally {
  std::array<std::uint64_t, 16> calls{};
  std::array<std::uint64_t, 16> bytes{};
  double handler_ns = 0;        ///< total time inside IReplica::on_message*
  std::uint64_t combines = 0;   ///< certificates assembled (combine + verify)
  double wal_ns = 0;            ///< WAL appends (they run inside handlers)
};

/// smr.decode_ns.<type>, smr.encode_ns.<type> and crypto.envelope_verify_us
/// on captured payloads. Payloads that fail to decode or whose envelope
/// fails to verify are reported through `result`.
void ladder_codec(const PayloadSamples& samples, const repro::crypto::CryptoSystem& crypto,
                  RunResult& result, RungCosts& costs);

/// crypto.{sign_share,share_verify,combine,cert_verify}_us.{n4,n16} and
/// crypto.sha256_ns_per_kib. Fills combine/verify/hash costs of both sizes.
void ladder_crypto(RunResult& result, RungCosts& n4, RungCosts& n16);

/// transport.rtt_us_p50 and transport.rtt_16k_us_p50: a TcpNode pair on
/// loopback, one hosting a bench echo replica, bouncing frames.
void ladder_transport(RunResult& result);

/// The accounting line: handler time the rungs explain, divided by the
/// handler time measured. Explained = Σ_type calls × (decode + envelope if
/// signed) + bytes of block-carrying types × SHA-256 per byte (the block
/// id / batch id is recomputed over the body) + combines × (combine +
/// verify) + measured WAL append time.
double handler_coverage(const HandlerTally& tally, const RungCosts& costs);

/// Whether messages of this tag carry an outer envelope signature.
bool is_signed_tag(int tag);
/// Whether messages of this tag carry block or batch bodies whose content
/// id the receiver recomputes.
bool carries_block_body(int tag);

}  // namespace perfbench
