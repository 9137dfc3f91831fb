// HPL-like benchmark: solve a dense linear system Ax = b of order N via LU
// factorization with row partial pivoting, exactly the computation the
// paper's CPU benchmark performs (Section IV-A).
//
// This is the serial blocked factorization (right-looking, LAPACK-style),
// the reference the distributed 2D solver (hpl2d.h) validates against. It
// reports the HPL operation count 2/3·N³ + 2·N² and the standard scaled
// residual acceptance test.
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/matrix.h"
#include "util/units.h"

namespace tgi::kernels {

/// Outcome of one HPL run.
struct HplResult {
  std::size_t n = 0;
  std::size_t block_size = 0;
  int processes = 1;
  util::Seconds elapsed{0.0};
  util::FlopCount flop_count{0.0};
  double residual = 0.0;
  bool passed = false;
  std::vector<double> x;

  /// Sustained factor+solve rate.
  [[nodiscard]] util::FlopRate rate() const { return flop_count / elapsed; }
};

/// The HPL operation count for order-n LU + solve: 2/3·n³ + 2·n².
[[nodiscard]] util::FlopCount hpl_flop_count(std::size_t n);

/// In-place blocked LU with partial pivoting and full-row interchanges.
/// Returns piv where row i was swapped with piv[i] at step i.
/// Precondition: a square, block_size >= 1.
std::vector<std::size_t> lu_factor(Matrix& a, std::size_t block_size);

/// Solves LU·x = P·b given the output of lu_factor.
[[nodiscard]] std::vector<double> lu_solve(
    const Matrix& lu, const std::vector<std::size_t>& piv,
    std::vector<double> b);

/// Generates, factors, solves, and verifies an order-n problem serially.
[[nodiscard]] HplResult run_hpl_serial(std::size_t n, std::size_t block_size,
                                       std::uint64_t seed);

}  // namespace tgi::kernels
