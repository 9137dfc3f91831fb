// The phase-level execution simulator.
//
// Pricing model per phase (a BSP/roofline hybrid):
//   compute  = flops / (peak · fraction-of-cores · compute_efficiency)
//   memory   = bytes / (node bandwidth · memory_efficiency), with the
//              delivered bandwidth saturating in the number of cores used
//   io       = aggregate bytes / shared-storage bandwidth at n clients
//   comm     = closed-form collective costs on the cluster's interconnect
//   duration = max(compute, memory, io) + comm     (BSP: communication is
//              a separate super-step, compute overlaps memory)
// Component utilizations for the power model follow as busy-fraction ratios
// of the phase duration.
#pragma once

#include <vector>

#include "power/timeline.h"
#include "sim/machine.h"
#include "sim/workload.h"
#include "util/units.h"

namespace tgi::sim {

/// Efficiency knobs separating peak from attainable.
struct SimTuning {
  /// Fraction of peak FLOPs a tuned dense kernel sustains (HPL-class).
  double compute_efficiency = 0.85;
  /// Fraction of nominal memory bandwidth a tuned streaming kernel sees.
  double memory_efficiency = 0.85;
  /// STREAM-style bandwidth saturation: cores needed to reach half of the
  /// node's deliverable bandwidth (memory controllers saturate with very
  /// few streaming cores).
  double bandwidth_half_cores = 0.3;
  /// Fraction of streaming bandwidth a latency-bound random-access
  /// pattern (GUPS-class) sustains, counting full-line transfers.
  double random_access_efficiency = 0.08;
  /// DVFS operating point in GHz for every phase; 0 = nominal clock.
  /// Compute rate scales linearly, dynamic CPU power cubically.
  double cpu_clock_ghz = 0.0;
  /// When true, the power timeline covers only the nodes the workload uses
  /// (a meter on the participating subset, as on the paper's reference
  /// system); when false, the whole cluster including idle nodes is behind
  /// the meter (the Figure 1 setup on the system under test).
  bool meter_active_nodes_only = false;
};

/// Per-phase cost breakdown (diagnostics and tests).
struct PhaseBreakdown {
  std::string label;
  util::Seconds compute{0.0};
  util::Seconds memory{0.0};
  util::Seconds io{0.0};
  util::Seconds comm{0.0};
  util::Seconds duration{0.0};
  power::ComponentUtilization utilization;
  std::size_t active_nodes = 1;
};

/// Result of simulating one workload on one cluster.
struct SimulatedRun {
  util::Seconds elapsed{0.0};
  std::vector<PhaseBreakdown> phases;
  /// Wall-power timeline a plug meter on the cluster would see.
  power::PowerTimeline timeline;
};

/// Prices workloads on a cluster.
class ExecutionSimulator {
 public:
  explicit ExecutionSimulator(ClusterSpec cluster, SimTuning tuning = {});

  /// Simulates `workload`; throws on phases that exceed the machine
  /// (more nodes/cores than exist).
  [[nodiscard]] SimulatedRun run(const Workload& workload) const;

  /// Delivered per-node memory bandwidth with `cores` active ranks
  /// (saturating). Exposed for the STREAM workload builder and tests.
  [[nodiscard]] util::ByteRate delivered_memory_bandwidth(
      std::size_t cores) const;

  [[nodiscard]] const ClusterSpec& cluster() const { return cluster_; }
  [[nodiscard]] const SimTuning& tuning() const { return tuning_; }

 private:
  /// Validates `phase` against the machine and prices it: roofline
  /// terms, comm, BSP duration, and power-model utilizations.
  [[nodiscard]] PhaseBreakdown price_phase(const Phase& phase) const;
  [[nodiscard]] util::Seconds comm_time(const Phase& phase) const;

  ClusterSpec cluster_;
  SimTuning tuning_;
};

}  // namespace tgi::sim
