// SHA-256 compression kernels (DESIGN.md §16). Internal: only sha256.cpp,
// the unit tests and the microbenchmarks include this header; protocol
// code hashes through crypto::Sha256 / sha256() / sha256_tagged().
//
// Both kernels compress `nblocks` consecutive 64-byte blocks into `state`
// (the eight 32-bit chaining values a..h) and give bit-identical
// results. Sha256 picks one of them once per process.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/sha256.h"

namespace repro::crypto::kernels {

using CompressFn = void (*)(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks);

/// Textbook FIPS 180-4 loop: the path on CPUs without SHA extensions and
/// the oracle the SHA-NI kernel is tested against.
void compress_portable(std::uint32_t state[8], const std::uint8_t* data, std::size_t nblocks);

/// The x86 SHA-extensions kernel (sha256rnds2/msg1/msg2) if this CPU has
/// them, else nullptr. Only reachable through here, so it never runs on a
/// CPU that would fault on its instructions.
CompressFn shani_kernel();

/// The kernel Sha256 dispatches to: shani_kernel() when present,
/// otherwise compress_portable.
CompressFn active_kernel();

/// Whole-message SHA-256 through `kernel`, with the same padding Sha256
/// applies. Lets tests compare kernels on complete digests.
Digest sha256_with(CompressFn kernel, BytesView data);

}  // namespace repro::crypto::kernels
