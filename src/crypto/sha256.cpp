#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_kernels.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace repro::crypto {
namespace {

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void compress(std::uint32_t state[8], const std::uint8_t* data, std::size_t nblocks) {
  kernels::active_kernel()(state, data, nblocks);
}

/// Writes the padded tail of a message — its last `rem_len` (< 64) bytes,
/// 0x80, zeros and the 64-bit big-endian bit length — into `out` and
/// returns how many 64-byte blocks that is (1 or 2).
std::size_t pad_tail(std::uint8_t out[128], const std::uint8_t* rem, std::size_t rem_len,
                     std::uint64_t bit_len) {
  const std::size_t nblocks = rem_len < 56 ? 1 : 2;
  const std::size_t end = nblocks * 64;
  if (rem_len > 0) std::memcpy(out, rem, rem_len);
  out[rem_len] = 0x80;
  std::memset(out + rem_len + 1, 0, end - 8 - rem_len - 1);
  for (int i = 0; i < 8; ++i) {
    out[end - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  return nblocks;
}

Digest state_to_digest(const std::uint32_t state[8]) {
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return out;
}

}  // namespace

namespace kernels {

void compress_portable(std::uint32_t state[8], const std::uint8_t* data, std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(data[i * 4]) << 24) | (std::uint32_t(data[i * 4 + 1]) << 16) |
             (std::uint32_t(data[i * 4 + 2]) << 8) | std::uint32_t(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
namespace {

// sha256rnds2 keeps the working variables as two vectors, ABEF and CDGH,
// and runs two rounds per call from the low 64 bits of a W+K vector; a
// 64-byte block is sixteen groups of four rounds. msg1/msg2 extend the
// message schedule four words at a time in a ring of four vectors.
__attribute__((target("sha,sse4.1"))) void compress_shani(std::uint32_t state[8],
                                                           const std::uint8_t* data,
                                                           std::size_t nblocks) {
  // Byte order within each 32-bit word: the block is big-endian.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), bswap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i cur = w[g & 3];
      const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g]));
      __m128i wk = _mm_add_epi32(cur, k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      if (g >= 3 && g < 15) {
        // W[4(g+1) .. 4(g+1)+3] from the four groups before it.
        __m128i& next = w[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(g + 3) & 3], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
      if (g >= 1 && g < 13) {
        __m128i& prev = w[(g + 3) & 3];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

}  // namespace

CompressFn shani_kernel() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) return compress_shani;
  return nullptr;
}

#else

CompressFn shani_kernel() { return nullptr; }

#endif

CompressFn active_kernel() {
  // Function-local so the choice is made on first use, which may be
  // during another translation unit's static initialisation.
  static const CompressFn kernel = [] {
    const CompressFn shani = shani_kernel();
    return shani != nullptr ? shani : compress_portable;
  }();
  return kernel;
}

Digest sha256_with(CompressFn kernel, BytesView data) {
  std::array<std::uint32_t, 8> state = kInitialState;
  const std::size_t full = data.size() / 64;
  if (full > 0) kernel(state.data(), data.data(), full);
  std::uint8_t tail[128];
  const std::size_t tail_blocks = pad_tail(tail, data.data() + full * 64, data.size() % 64,
                                           static_cast<std::uint64_t>(data.size()) * 8);
  kernel(state.data(), tail, tail_blocks);
  return state_to_digest(state.data());
}

}  // namespace kernels

void Sha256::reset() {
  state_ = kInitialState;
  bit_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::update(BytesView data) {
  if (data.empty()) return;
  bit_len_ += static_cast<std::uint64_t>(data.size()) * 8;
  const std::uint8_t* p = data.data();
  std::size_t len = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ < 64) return;
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Every whole block in one kernel call: the SHA-NI kernel keeps the
  // state in registers across them.
  if (const std::size_t nblocks = len / 64; nblocks > 0) {
    compress(state_.data(), p, nblocks);
    p += nblocks * 64;
    len -= nblocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffer_len_ = len;
  }
}

Digest Sha256::finalize() {
  std::uint8_t tail[128];
  compress(state_.data(), tail, pad_tail(tail, buffer_.data(), buffer_len_, bit_len_));
  return state_to_digest(state_.data());
}

Digest sha256(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Digest sha256_tagged(std::string_view tag, BytesView data) {
  Sha256 ctx;
  const std::uint8_t tag_len = static_cast<std::uint8_t>(tag.size());
  ctx.update(BytesView(&tag_len, 1));
  ctx.update(BytesView(reinterpret_cast<const std::uint8_t*>(tag.data()), tag.size()));
  ctx.update(data);
  return ctx.finalize();
}

}  // namespace repro::crypto
