// SHA-256 compression kernels behind Sha256. Not part of the crypto API:
// Sha256 picks one kernel per process, and tests include this header to run
// both kernels over the same inputs.
#ifndef SRC_CRYPTO_SHA256_KERNEL_H_
#define SRC_CRYPTO_SHA256_KERNEL_H_

#include <cstddef>

#include "src/common/types.h"

namespace guillotine {

// Compresses `nblocks` consecutive 64-byte blocks at `data` into the eight
// state words. Kernels do not touch Sha256::compressions(); Sha256 counts.
using Sha256CompressFn = void (*)(u32* state, const u8* data, size_t nblocks);

// FIPS 180-4 scalar loop: the only kernel on CPUs without SHA extensions,
// and the reference the SHA-NI kernel is tested against.
void Sha256CompressPortable(u32* state, const u8* data, size_t nblocks);

// The x86 SHA extensions kernel, or nullptr when the CPU (or the build
// target) has none.
Sha256CompressFn Sha256ShaNiKernel();

// The kernel every Sha256 calls, chosen from CPUID on first use. Tests may
// repoint it to run a given kernel and must restore it afterwards.
Sha256CompressFn& Sha256ActiveKernel();

}  // namespace guillotine

#endif  // SRC_CRYPTO_SHA256_KERNEL_H_
