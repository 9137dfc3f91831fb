#include "kernels/hpl.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "kernels/blas.h"
#include "util/error.h"

namespace tgi::kernels {

namespace {

constexpr double kResidualThreshold = 16.0;  // HPL acceptance bound

double now_seconds() {
  // Native kernels time real execution, not the simulated timeline —
  // kernels' sanctioned wall-clock read.
  using wall = std::chrono::steady_clock;  // tgi-lint: allow(wall-clock-in-deterministic-path)
  return std::chrono::duration<double>(wall::now().time_since_epoch())
      .count();
}

/// Applies the recorded interchanges piv[first..last) to vector b.
void apply_pivots(std::vector<double>& b, const std::vector<std::size_t>& piv,
                  std::size_t first, std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    if (piv[i] != i) std::swap(b[i], b[piv[i]]);
  }
}

}  // namespace

util::FlopCount hpl_flop_count(std::size_t n) {
  const auto nd = static_cast<double>(n);
  return util::flops(2.0 / 3.0 * nd * nd * nd + 2.0 * nd * nd);
}

std::vector<std::size_t> lu_factor(Matrix& a, std::size_t block_size) {
  TGI_REQUIRE(a.rows() == a.cols(), "LU of non-square matrix");
  TGI_REQUIRE(block_size >= 1, "block size must be >= 1");
  const std::size_t n = a.rows();
  std::vector<std::size_t> piv(n);

  for (std::size_t kk = 0; kk < n; kk += block_size) {
    const std::size_t cb = std::min(block_size, n - kk);

    // --- Panel factorization with partial pivoting (full-row swaps) ------
    for (std::size_t j = kk; j < kk + cb; ++j) {
      double* colj = a.col(j);
      const std::size_t pr =
          j + idamax({colj + j, n - j});
      piv[j] = pr;
      if (pr != j) {
        for (std::size_t c = 0; c < n; ++c) {
          std::swap(a.at(j, c), a.at(pr, c));
        }
      }
      const double diag = a.at(j, j);
      TGI_CHECK(diag != 0.0, "exactly singular matrix at column " << j);
      dscal(1.0 / diag, {colj + j + 1, n - j - 1});
      // Rank-1 update restricted to the rest of the panel.
      for (std::size_t c = j + 1; c < kk + cb; ++c) {
        daxpy(-a.at(j, c), {colj + j + 1, n - j - 1},
              {a.col(c) + j + 1, n - j - 1});
      }
    }

    const std::size_t trailing = n - kk - cb;
    if (trailing == 0) continue;
    // --- U12 := L11^{-1} · A12 -------------------------------------------
    dtrsm_unit_lower(cb, trailing, a.col(kk) + kk, n, a.col(kk + cb) + kk,
                     n);
    // --- A22 -= L21 · U12 --------------------------------------------------
    dgemm_minus(trailing, trailing, cb, a.col(kk) + kk + cb, n,
                a.col(kk + cb) + kk, n, a.col(kk + cb) + kk + cb, n);
  }
  return piv;
}

std::vector<double> lu_solve(const Matrix& lu,
                             const std::vector<std::size_t>& piv,
                             std::vector<double> b) {
  const std::size_t n = lu.rows();
  TGI_REQUIRE(lu.cols() == n && piv.size() == n && b.size() == n,
              "lu_solve dimension mismatch");
  apply_pivots(b, piv, 0, n);
  // Forward: L y = P b (unit diagonal).
  for (std::size_t j = 0; j < n; ++j) {
    const double yj = b[j];
    const double* colj = lu.col(j);
    for (std::size_t i = j + 1; i < n; ++i) b[i] -= colj[i] * yj;
  }
  // Backward: U x = y.
  for (std::size_t jj = n; jj-- > 0;) {
    const double* colj = lu.col(jj);
    b[jj] /= colj[jj];
    const double xj = b[jj];
    for (std::size_t i = 0; i < jj; ++i) b[i] -= colj[i] * xj;
  }
  return b;
}

HplResult run_hpl_serial(std::size_t n, std::size_t block_size,
                         std::uint64_t seed) {
  HplProblem problem = make_hpl_problem(n, seed);
  Matrix original = problem.a;  // kept for the residual check

  HplResult result;
  result.n = n;
  result.block_size = block_size;
  result.flop_count = hpl_flop_count(n);

  const double t0 = now_seconds();
  const std::vector<std::size_t> piv = lu_factor(problem.a, block_size);
  result.x = lu_solve(problem.a, piv, problem.b);
  result.elapsed = util::seconds(std::max(now_seconds() - t0, 1e-9));

  result.residual = scaled_residual(original, result.x, problem.b);
  result.passed = result.residual < kResidualThreshold;
  return result;
}

}  // namespace tgi::kernels
