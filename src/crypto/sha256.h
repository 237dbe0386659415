// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the collision-resistant hash H(.) the paper assumes: block ids,
// threshold-signature message points, the common coin, Merkle batch proofs
// and the decode/verifier cache keys all derive from it. The compression
// function has two kernels (DESIGN.md §16): the x86 SHA extensions where
// the CPU has them, picked once at run time, and a portable loop
// everywhere else. Both give bit-identical digests; the unit tests check
// them against the official FIPS test vectors and against each other.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"

namespace repro::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(BytesView data);
  /// Finalizes and returns the digest. The context must be reset() before
  /// reuse.
  Digest finalize();

 private:
  std::array<std::uint32_t, 8> state_{};
  std::uint64_t bit_len_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience.
Digest sha256(BytesView data);

/// Domain-separated hash: sha256(tag_len || tag || data). Used so block
/// ids, vote messages, coin inputs etc. can never collide across domains.
Digest sha256_tagged(std::string_view tag, BytesView data);

/// First 8 bytes of a digest as a little-endian integer (for hash maps
/// and field-element derivation). The same value on every host.
inline std::uint64_t digest_prefix_u64(const Digest& d) {
  std::uint64_t v;
  std::memcpy(&v, d.data(), sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

}  // namespace repro::crypto
