#pragma once
// Complex eigensolvers.
//
// The Arnoldi process projects the shifted-and-inverted Hamiltonian onto
// a d-dimensional Krylov basis, giving a small complex upper-Hessenberg
// matrix (d <= 60 in the paper).  Its eigenpairs (Ritz pairs) are
// computed here with a shifted QR iteration using complex Givens
// rotations, plus triangular back-substitution for eigenvectors.
//
// When eigenvectors are wanted, hessenberg_eig accumulates the Schur
// vectors as contiguous ROWS of a work matrix (Z transposed), so every
// rotation and the back-transform v = Z y sweep unit-stride memory.
// The floating-point operations and their order are those of the
// column-wise formulation, and the triangular factor never reads Z, so
// the eigenvalues are bit-identical with or without vectors.

#include <vector>

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"

namespace phes::la {

/// Eigen-decomposition of a complex matrix.
struct ComplexEigResult {
  ComplexVector values;  ///< eigenvalues (unordered)
  ComplexMatrix vectors;  ///< columns are unit-norm eigenvectors (may be empty)
};

/// Eigenpairs of an upper-Hessenberg complex matrix.
/// Entries below the first subdiagonal are ignored.
[[nodiscard]] ComplexEigResult hessenberg_eig(ComplexMatrix h,
                                              bool want_vectors);

/// Eigenpairs of a general complex matrix (Householder reduction to
/// Hessenberg form followed by hessenberg_eig).
[[nodiscard]] ComplexEigResult complex_eig(ComplexMatrix a,
                                           bool want_vectors);

/// Eigenvalues of a general complex matrix.
[[nodiscard]] ComplexVector complex_eigenvalues(ComplexMatrix a);

}  // namespace phes::la
