#include "phes/la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "phes/la/blas.hpp"
#include "phes/la/hessenberg.hpp"
#include "phes/util/check.hpp"

namespace phes::la {

namespace {

// Complex Givens rotation (LAPACK zrotg convention):
// [ c        s ] [f]   [r]
// [-conj(s)  c ] [g] = [0],  c real >= 0.
struct Givens {
  double c = 1.0;
  Complex s{};
};

Givens make_givens(Complex f, Complex g) {
  Givens rot;
  const double af = std::abs(f), ag = std::abs(g);
  if (ag == 0.0) {
    rot.c = 1.0;
    rot.s = Complex{};
    return rot;
  }
  if (af == 0.0) {
    rot.c = 0.0;
    rot.s = std::conj(g) / ag;
    return rot;
  }
  const double d = std::hypot(af, ag);
  rot.c = af / d;
  rot.s = (f / af) * (std::conj(g) / d);
  return rot;
}

// Wilkinson shift: eigenvalue of the trailing 2x2 closest to t(m,m).
Complex wilkinson_shift(const ComplexMatrix& t, std::size_t m) {
  const Complex a = t(m - 1, m - 1), b = t(m - 1, m);
  const Complex c = t(m, m - 1), d = t(m, m);
  const Complex tr2 = 0.5 * (a + d);
  const Complex disc = std::sqrt(tr2 * tr2 - (a * d - b * c));
  const Complex l1 = tr2 + disc, l2 = tr2 - disc;
  return std::abs(l1 - d) < std::abs(l2 - d) ? l1 : l2;
}

}  // namespace

ComplexEigResult hessenberg_eig(ComplexMatrix t, bool want_vectors) {
  util::check(t.is_square(), "hessenberg_eig: matrix must be square");
  const std::size_t n = t.rows();
  ComplexEigResult result;
  if (n == 0) return result;

  // Clear below-subdiagonal garbage so the iteration invariant holds.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j + 1 < i; ++j) t(i, j) = Complex{};
  }

  // Schur vectors stored transposed: row k of zt is Schur vector k, so
  // each rotation and the back-transform sweep contiguous rows.  T's
  // updates never read zt, so the eigenvalues do not depend on it.
  ComplexMatrix zt =
      want_vectors ? ComplexMatrix::identity(n) : ComplexMatrix();
  const double norm_scale = std::max(frobenius_norm(t), 1e-300);

  if (n > 1) {
    std::size_t m = n - 1;
    std::size_t iter = 0, total_iter = 0;
    const std::size_t max_total = 60 * n;
    while (true) {
      // Deflation scan.
      std::size_t l = m;
      while (l > 0) {
        const double sub = std::abs(t(l, l - 1));
        double ref = std::abs(t(l - 1, l - 1)) + std::abs(t(l, l));
        if (ref == 0.0) ref = norm_scale;
        if (sub <= kEps * ref) {
          t(l, l - 1) = Complex{};
          break;
        }
        --l;
      }
      if (l == m) {
        if (m == 0) break;
        --m;
        iter = 0;
        continue;
      }

      ++iter;
      ++total_iter;
      util::require(total_iter < max_total,
                    "hessenberg_eig: QR iteration failed to converge");

      Complex mu;
      if (iter % 11 == 10) {
        // Exceptional shift.
        mu = t(m, m) + Complex(1.5 * std::abs(t(m, m - 1)), 0.0);
      } else {
        mu = wilkinson_shift(t, m);
      }

      // Implicit single-shift QR sweep on block [l, m] via Givens chase.
      Complex x = t(l, l) - mu;
      Complex y = t(l + 1, l);
      for (std::size_t k = l; k <= m - 1; ++k) {
        const Givens g = make_givens(x, y);
        // Left rotation on rows k, k+1.
        const std::size_t c0 = (k > l) ? k - 1 : l;
        for (std::size_t j = c0; j < n; ++j) {
          const Complex t1 = t(k, j), t2 = t(k + 1, j);
          t(k, j) = g.c * t1 + g.s * t2;
          t(k + 1, j) = -std::conj(g.s) * t1 + g.c * t2;
        }
        // Right rotation on columns k, k+1.
        const std::size_t r1 = std::min(k + 2, m);
        for (std::size_t i = 0; i <= r1; ++i) {
          const Complex t1 = t(i, k), t2 = t(i, k + 1);
          t(i, k) = g.c * t1 + std::conj(g.s) * t2;
          t(i, k + 1) = -g.s * t1 + g.c * t2;
        }
        if (want_vectors) {
          // Z <- Z G on Schur vectors k, k+1: two contiguous rows of zt.
          Complex* zk = zt.row_ptr(k);
          Complex* zk1 = zt.row_ptr(k + 1);
          for (std::size_t i = 0; i < n; ++i) {
            const Complex t1 = zk[i], t2 = zk1[i];
            zk[i] = g.c * t1 + std::conj(g.s) * t2;
            zk1[i] = -g.s * t1 + g.c * t2;
          }
        }
        if (k > l) t(k + 1, k - 1) = Complex{};  // clear chased bulge residue
        if (k + 1 <= m - 1) {
          x = t(k + 1, k);
          y = t(k + 2, k);
        }
      }
    }
  }

  result.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.values[i] = t(i, i);

  if (want_vectors) {
    // Back-substitution for eigenvectors of the triangular factor, then
    // rotate back through the accumulated Schur vectors.
    result.vectors = ComplexMatrix(n, n);
    const double small = kEps * norm_scale;
    for (std::size_t j = 0; j < n; ++j) {
      ComplexVector y_vec(n, Complex{});
      y_vec[j] = Complex(1.0, 0.0);
      const Complex lambda = t(j, j);
      for (std::size_t ii = j; ii-- > 0;) {
        Complex acc{};
        for (std::size_t k = ii + 1; k <= j; ++k) acc += t(ii, k) * y_vec[k];
        Complex denom = t(ii, ii) - lambda;
        if (std::abs(denom) < small) {
          denom = Complex(small, small);  // perturb repeated eigenvalue
        }
        y_vec[ii] = -acc / denom;
      }
      // v = Z y, normalized.  Each v[i] sums its terms in k = 0..j
      // order starting from zero, as a per-element dot product would.
      ComplexVector v(n, Complex{});
      for (std::size_t k = 0; k <= j; ++k) {
        const Complex yk = y_vec[k];
        const Complex* zk = zt.row_ptr(k);
        for (std::size_t i = 0; i < n; ++i) v[i] += zk[i] * yk;
      }
      const double nv = nrm2<Complex>(v);
      if (nv > 0.0) {
        for (auto& vi : v) vi /= nv;
      }
      result.vectors.set_col(j, v);
    }
  }
  return result;
}

ComplexEigResult complex_eig(ComplexMatrix a, bool want_vectors) {
  util::check(a.is_square(), "complex_eig: matrix must be square");
  if (!want_vectors) {
    auto [h, q] = hessenberg_reduce(std::move(a), false);
    return hessenberg_eig(std::move(h), false);
  }
  auto [h, q] = hessenberg_reduce(std::move(a), true);
  ComplexEigResult res = hessenberg_eig(std::move(h), true);
  // Map eigenvectors back through the Hessenberg similarity: v = Q v_h.
  ComplexMatrix mapped = gemm(q, res.vectors);
  // Renormalize columns.
  for (std::size_t j = 0; j < mapped.cols(); ++j) {
    auto v = mapped.col(j);
    const double nv = nrm2<Complex>(v);
    if (nv > 0.0) {
      for (auto& vi : v) vi /= nv;
    }
    mapped.set_col(j, v);
  }
  res.vectors = std::move(mapped);
  return res;
}

ComplexVector complex_eigenvalues(ComplexMatrix a) {
  return complex_eig(std::move(a), false).values;
}

}  // namespace phes::la
