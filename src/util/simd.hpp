// Vector building blocks for row kernels whose results must not change by
// one bit: the turbulence mode sum and the moment and covariance learn
// passes.
#pragma once

namespace hia {

// HIA_CLONE_AVX2 compiles a function twice, for AVX2 and for the baseline
// ISA, and the loader picks one per CPU. AVX2 alone: the "avx512f" and
// "arch=x86-64-v3" targets also enable FMA, into which GCC contracts
// products and sums such as ca * cb - sa * sb, and that changes the
// results' bits. Not under ThreadSanitizer: GCC instruments a clone's
// ifunc resolver with __tsan_func_entry, and the loader runs the resolver
// before the TSan runtime starts, so the program would crash at load.
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define HIA_CLONE_AVX2 __attribute__((target_clones("avx2", "default")))
#else
#define HIA_CLONE_AVX2
#endif

/// Two double lanes in one SSE2 register, the baseline ISA's width. The
/// learn passes hold their four lanes as two of these in one build: vector
/// arithmetic is lane by lane, so the sums keep the bits of four scalar
/// lanes.
using DoubleX2 = double __attribute__((vector_size(2 * sizeof(double))));

}  // namespace hia
