// Width-agnostic SIMD kernel layer under the hot tensor ops.
//
// PR 3-5 kernels leaned on -march=native autovectorization: fast where the
// compiler cooperated, scalar where it did not, and impossible to force one
// way or the other at runtime. This layer makes the instruction set an
// explicit, testable dimension:
//
//   * SimdKernelTable is a function-pointer table of the hot primitives
//     (float GEMMs — the forward one with its bias and ELU epilogue —
//     dual mat-vec, per-feature read-out dots, FastExpf, ELU and the fused
//     backward accumulators).
//   * Four implementations exist behind compile-time guards: a scalar
//     reference that always builds, an AVX2+FMA table (x86), an AVX-512F
//     table (elementwise kernels at 16 lanes, zmm column tiles for matmul
//     and matmul_trans_a, matmul_trans_b's dots 16 outputs at a time), and
//     a NEON table (aarch64) for the bandwidth-bound kernels.
//   * ActiveKernels() picks a table once per process via runtime CPUID
//     detection (__builtin_cpu_supports), honoring DQUAG_FORCE_SCALAR=1 as
//     an environment override so the fallback is continuously provable on
//     hardware that would otherwise never run it.
//
// Bit-identity contract: for every kernel, the scalar and vector variants
// execute the SAME per-element IEEE operation sequence — explicit
// FusedMulAdd (one rounding) wherever a lane would use vfmadd, and
// horizontal dot products defined as eight strided partial sums folded by a
// fixed binary tree (the vector reduction order), implemented identically
// in scalar code. A fused epilogue keeps the sequence of the passes it
// replaces: matmul's seed comes first and its ELU is the table's own `elu`
// lane for lane, so C = elu(bias + A B) in one kernel has the bits of a
// bias broadcast, an accumulating GEMM and an ELU pass. Switching tables
// therefore changes nothing, not even the low bits: the engine/streaming equivalence suites pass under any table,
// and tests/simd_kernel_test.cc asserts memcmp-equality kernel by kernel.
// Every kernel is also row-position independent (each output element
// accumulates in the same order regardless of batch size or row offset),
// preserving the streaming-validation chunking contract.

#ifndef DQUAG_TENSOR_SIMD_H_
#define DQUAG_TENSOR_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dquag {
namespace simd {

/// The hot-kernel dispatch table. All pointers are non-null in every table.
struct SimdKernelTable {
  /// Display name ("scalar", "avx2", "avx512", "neon") for logs / bench
  /// JSON.
  const char* name;

  /// C[m,n] = act(seed + A[m,k] * B[k,n]), row-major, overwriting C: the
  /// forward GEMM with its epilogue. Each output element starts from its
  /// seed (bias[j], or 0.0f when bias is null), adds its products with one
  /// FusedMulAdd per kk, ascending (n == 1 keeps the dot contract: seed +
  /// the 8-lane dot), and, when `elu`, passes through this table's `elu`
  /// (alpha 1) before the store.
  void (*matmul)(const float* a, const float* b, const float* bias, float* c,
                 int64_t m, int64_t k, int64_t n, bool elu);

  /// C[k,n] += A[m,k]^T * B[m,n] (outer-product order over i, then kk).
  void (*matmul_trans_a)(const float* a, const float* b, float* c, int64_t m,
                         int64_t k, int64_t n);

  /// C[m,kb] += A[m,n] * B[kb,n]^T (rows of A dotted with rows of B).
  void (*matmul_trans_b)(const float* a, const float* b, float* c, int64_t m,
                         int64_t n, int64_t kb);

  /// Per row r of x[rows,k]: o1[r] = x_r . w1, o2[r] = x_r . w2.
  void (*dual_matvec)(const float* x, const float* w1, const float* w2,
                      float* o1, float* o2, int64_t rows, int64_t k);

  /// Per-feature read-out: out[r,f] = z[r,f,:] . w[f,:] + bias[f]
  /// (z is [rows,d,h], w is [d,h], bias is [d]).
  void (*readout_dot)(const float* z, const float* w, const float* bias,
                      float* out, int64_t rows, int64_t d, int64_t h);

  /// In-place p[i] = FastExpf(p[i]).
  void (*exp_inplace)(float* p, int64_t n);

  /// y[i] = x[i] > 0 ? x[i] : alpha * (FastExpf(x[i]) - 1). In-place safe
  /// (x == y).
  void (*elu)(const float* x, float* y, int64_t n, float alpha);

  /// out[i] += s * x[i].
  void (*axpy)(const float* x, float s, float* out, int64_t n);

  /// out[i] += (s * a[i]) * b[i] (two roundings: mul, then FMA).
  void (*add_product)(const float* a, const float* b, float s, float* out,
                      int64_t n);

  /// CSR segment softmax over one batch row of `num_entries` scores,
  /// scattered through `order` (FeatureGraph::csr_by_dst order). FastExpf
  /// inside; sums accumulate in CSR index order.
  void (*segment_softmax_csr)(float* row, const int64_t* offsets,
                              size_t num_segments, const int32_t* order);
};

/// The portable reference table (always available).
const SimdKernelTable& ScalarKernels();

/// The table selected for this process: DQUAG_FORCE_SCALAR=1 forces scalar;
/// otherwise the best table the CPU supports (AVX-512F, then AVX2+FMA,
/// via CPUID on x86; NEON on aarch64; scalar elsewhere). Resolved once, then
/// cached.
const SimdKernelTable& ActiveKernels();

/// Testing/bench hook: overrides ActiveKernels() process-wide until reset
/// with nullptr. Not for concurrent use with in-flight inference.
void SetKernelTableOverride(const SimdKernelTable* table);

/// The vector table this build/CPU would pick ignoring any override or
/// DQUAG_FORCE_SCALAR (scalar when the CPU or build lacks vector support).
/// Lets benches compare scalar vs vector explicitly.
const SimdKernelTable& BestSupportedKernels();

/// Every table this build has and this CPU can run, scalar (the reference)
/// first and BestSupportedKernels() last. Lets tests hold each vector
/// table, not only the best one, to the bit-identity contract.
std::vector<const SimdKernelTable*> SupportedKernelTables();

}  // namespace simd
}  // namespace dquag

#endif  // DQUAG_TENSOR_SIMD_H_
