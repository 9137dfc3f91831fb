// 2D block-cyclic distributed HPL — the real HPL's data decomposition.
//
// It runs the serial solver's algorithm (hpl.h) with HPL's scalability
// structure: the matrix is distributed over a P×Q process grid exactly as HPL/ScaLAPACK do ("the data is distributed
// on a two-dimensional grid using a cyclic scheme for better load balance
// and scalability" — paper Section IV-A):
//
//   - panel factorization down one process COLUMN, with the pivot search
//     as a maxloc reduction over that column's ranks,
//   - pivot application as pairwise row exchanges between process rows,
//   - panel broadcast along process ROWS,
//   - U12 triangular solves on the block row's owners, broadcast down
//     process columns,
//   - rank-nb trailing update fully local.
//
// Verified against the serial factorization to 1e-9 on the same
// deterministic problem.
#pragma once

#include <cstdint>

#include "kernels/hpl.h"

namespace tgi::kernels {

struct Hpl2dConfig {
  std::size_t n = 64;
  std::size_t block_size = 8;
  /// Process grid: prows × pcols ranks (column-major rank placement,
  /// rank = pr + pc·prows, as in ScaLAPACK's default).
  int prows = 2;
  int pcols = 2;
  std::uint64_t seed = 1;
};

/// Runs the 2D block-cyclic factor + solve. Preconditions: n divisible by
/// block_size; prows, pcols >= 1.
[[nodiscard]] HplResult run_hpl_mpisim_2d(const Hpl2dConfig& config);

/// Block-cyclic index bookkeeping for one dimension (rows or columns).
/// Exposed for tests.
class BlockCyclicMap {
 public:
  /// Distributes `n` indices in blocks of `nb` over `nprocs` processes;
  /// this map answers for process `me`. Precondition: n % nb == 0.
  BlockCyclicMap(std::size_t n, std::size_t nb, std::size_t nprocs,
                 std::size_t me);

  /// Process owning global index `g`.
  [[nodiscard]] std::size_t owner(std::size_t g) const {
    return (g / nb_) % nprocs_;
  }
  [[nodiscard]] bool mine(std::size_t g) const { return owner(g) == me_; }
  /// Local position of global index `g`. Precondition: mine(g).
  [[nodiscard]] std::size_t local(std::size_t g) const;
  /// Global index of local position `l`. Precondition: l < count().
  [[nodiscard]] std::size_t global(std::size_t l) const;
  /// Number of indices this process owns.
  [[nodiscard]] std::size_t count() const { return count_; }
  /// First local position whose global index is >= g (local indices are
  /// globally monotone, so locals [result, count()) are exactly the owned
  /// indices >= g).
  [[nodiscard]] std::size_t first_local_at_or_after(std::size_t g) const;

 private:
  std::size_t n_;
  std::size_t nb_;
  std::size_t nprocs_;
  std::size_t me_;
  std::size_t count_;
};

}  // namespace tgi::kernels
