// Analytic cost models for MPI collective operations.
//
// These are the textbook LogP/Hockney-style closed forms for the standard
// collective algorithms (binomial-tree broadcast, ring allreduce,
// recursive-doubling barrier); they stand in for the paper's MPI runs, so
// the simulator charges each collective the asymptotic cost a real MPI
// library incurs.
#pragma once

#include "net/interconnect.h"
#include "util/units.h"

namespace tgi::net {

/// Broadcast of `bytes` to `procs` ranks. Mirrors the MPICH algorithm
/// switch: binomial tree (ceil(log2 p) point-to-point rounds) for small
/// messages, scatter+allgather (van de Geijn) for large ones, whose
/// bandwidth term is ~2·(p-1)/p·n·β independent of log p.
[[nodiscard]] util::Seconds bcast_time(const InterconnectSpec& link,
                                       std::size_t procs,
                                       util::ByteCount bytes);

/// Message size at which bcast_time switches algorithms (MPICH uses 12 KiB).
inline constexpr double kBcastLargeMessageBytes = 12.0 * 1024.0;

/// Ring allreduce of `bytes` per rank:
/// 2(p-1) steps moving n/p bytes each (reduce-scatter + allgather).
[[nodiscard]] util::Seconds allreduce_time(const InterconnectSpec& link,
                                           std::size_t procs,
                                           util::ByteCount bytes);

/// Recursive-doubling barrier: ceil(log2 p) empty-message rounds.
[[nodiscard]] util::Seconds barrier_time(const InterconnectSpec& link,
                                         std::size_t procs);

/// Flat gather to a root: (p-1) point-to-point receives of `bytes` each,
/// serialized at the root's NIC.
[[nodiscard]] util::Seconds gather_time(const InterconnectSpec& link,
                                        std::size_t procs,
                                        util::ByteCount bytes_per_rank);

/// Number of binomial rounds = ceil(log2(p)); 0 for p == 1.
[[nodiscard]] std::size_t log2_ceil(std::size_t p);

}  // namespace tgi::net
