#pragma once
// Runtime-selectable kernel backend plus the blocked, SIMD-friendly
// compute kernels behind the `tuned` backend.
//
// Dispatch rule: every numerics-heavy layer (arnoldi orthogonalization,
// the Hamiltonian operators, the batched LU applies) takes a
// KernelBackend and routes through exactly one of two code paths:
//
//   kReference  the original straight-line loops, preserved verbatim —
//               results are bit-identical to the pre-kernel-layer code;
//   kTuned      register-blocked kernels with split real/imag planes,
//               multiple accumulators, and precomputed reciprocal
//               tables.  Same math, different floating-point summation
//               order, so results may differ from reference at
//               rounding level.  For a fixed backend, a serial solve
//               (threads = 1) is bit-identical from run to run;
//               multi-threaded solves agree on the crossings only to
//               rounding (the dynamic scheduler's shift plan follows
//               completion order).
//
// The kernels here are deliberately free-standing (raw pointers +
// strides) so the operators can point them at matrix rows, locked
// Ritz vectors, and scratch planes without adapter copies.

#include <cstddef>
#include <string>

#include "phes/la/types.hpp"

namespace phes::la {

/// Which compute substrate the solve path runs on.
enum class KernelBackend {
  kTuned = 0,      ///< blocked/vectorized kernels (default)
  kReference = 1,  ///< pre-kernel-layer loops, bit-for-bit
};

/// Parse "tuned" / "reference".  Throws std::invalid_argument on
/// anything else (the CLI surfaces the message as a usage error).
[[nodiscard]] KernelBackend parse_kernel_backend(const std::string& name);

/// Canonical name, the inverse of parse_kernel_backend.
[[nodiscard]] const char* kernel_backend_name(KernelBackend backend) noexcept;

namespace kernels {

// ---- blocked complex row kernels (tuned Gram-Schmidt) -----------------
//
// `rows` is the first row of a row-major pack with leading dimension
// `stride`; row j is rows + j * stride.  The *_ptrs variants take an
// array of row pointers instead (locked Ritz vectors live in separate
// allocations).

/// proj[j] = sum_i conj(row_j[i]) * w[i]  for j in [0, count).
/// Blocked over rows so each load of w feeds several dot products, with
/// split re/im accumulators to break the serial addition chain.
void dotc_rows(const Complex* rows, std::size_t stride, std::size_t count,
               const Complex* w, std::size_t dim, Complex* proj);

/// Same reduction over an array of row pointers.
void dotc_ptrs(const Complex* const* rows, std::size_t count,
               const Complex* w, std::size_t dim, Complex* proj);

/// w -= sum_j coeffs[j] * row_j  for j in [0, count), blocked so each
/// store of w absorbs several rank-1 updates.
void axpy_rows(const Complex* rows, std::size_t stride, std::size_t count,
               const Complex* coeffs, Complex* w, std::size_t dim);

/// Same update over an array of row pointers.
void axpy_ptrs(const Complex* const* rows, std::size_t count,
               const Complex* coeffs, Complex* w, std::size_t dim);

// ---- split-plane real-matrix kernels ----------------------------------
//
// A real m x n matrix times a complex vector, carried as two real
// planes (re, im).  The planes keep the inner loops contiguous over
// doubles — the interleaved-complex layout defeats vectorization of
// the real-matrix products in apply_c / apply_ct.

/// yre/yim = A xre/xim (A row-major m x n; y has length m).
void gemv_planes(const double* a, std::size_t m, std::size_t n,
                 const double* xre, const double* xim, double* yre,
                 double* yim);

/// yre/yim = A^T xre/xim (y has length n).  Rows are blocked so each
/// pass over y absorbs several rows' updates.
void gemv_t_planes(const double* a, std::size_t m, std::size_t n,
                   const double* xre, const double* xim, double* yre,
                   double* yim);

/// Split an interleaved complex span into planes.
void split_planes(const Complex* x, std::size_t n, double* re, double* im);

/// Merge planes back into an interleaved complex span.
void merge_planes(const double* re, const double* im, std::size_t n,
                  Complex* x);

}  // namespace kernels

}  // namespace phes::la
