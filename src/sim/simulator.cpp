#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "net/collectives.h"
#include "util/error.h"

namespace tgi::sim {

util::FlopCount Workload::total_flops() const {
  util::FlopCount total{0.0};
  for (const auto& ph : phases) {
    total += ph.flops_per_node * static_cast<double>(ph.active_nodes);
  }
  return total;
}

util::ByteCount Workload::total_memory_bytes() const {
  util::ByteCount total{0.0};
  for (const auto& ph : phases) {
    total += ph.memory_bytes_per_node * static_cast<double>(ph.active_nodes);
  }
  return total;
}

util::ByteCount Workload::total_io_bytes() const {
  util::ByteCount total{0.0};
  for (const auto& ph : phases) {
    total += ph.io_bytes_per_node * static_cast<double>(ph.active_nodes);
  }
  return total;
}

ExecutionSimulator::ExecutionSimulator(ClusterSpec cluster, SimTuning tuning)
    : cluster_(std::move(cluster)), tuning_(tuning) {
  TGI_REQUIRE(tuning_.compute_efficiency > 0.0 &&
                  tuning_.compute_efficiency <= 1.0,
              "compute efficiency must be in (0, 1]");
  TGI_REQUIRE(tuning_.memory_efficiency > 0.0 &&
                  tuning_.memory_efficiency <= 1.0,
              "memory efficiency must be in (0, 1]");
  TGI_REQUIRE(tuning_.bandwidth_half_cores > 0.0,
              "bandwidth_half_cores must be positive");
  TGI_REQUIRE(tuning_.random_access_efficiency > 0.0 &&
                  tuning_.random_access_efficiency <= 1.0,
              "random_access_efficiency must be in (0, 1]");
  TGI_REQUIRE(tuning_.cpu_clock_ghz >= 0.0,
              "cpu_clock_ghz must be non-negative (0 = nominal)");
}

util::ByteRate ExecutionSimulator::delivered_memory_bandwidth(
    std::size_t cores) const {
  TGI_REQUIRE(cores >= 1, "need at least one core");
  const double c = static_cast<double>(cores);
  const double saturation =
      c / (c + tuning_.bandwidth_half_cores);
  return cluster_.node.memory_bandwidth *
         (tuning_.memory_efficiency * saturation);
}

util::Seconds ExecutionSimulator::comm_time(const Phase& phase) const {
  util::Seconds total{0.0};
  const std::size_t procs = phase.active_nodes * phase.cores_per_node;
  for (const auto& op : phase.comms) {
    TGI_REQUIRE(op.repeat >= 0.0, "negative comm repeat");
    util::Seconds once{0.0};
    switch (op.kind) {
      case CommOp::Kind::kPointToPoint:
        once = net::ptp_time(cluster_.interconnect, op.bytes);
        break;
      case CommOp::Kind::kBroadcast:
        once = net::bcast_time(cluster_.interconnect, procs, op.bytes);
        break;
      case CommOp::Kind::kAllreduce:
        once = net::allreduce_time(cluster_.interconnect, procs, op.bytes);
        break;
      case CommOp::Kind::kBarrier:
        once = net::barrier_time(cluster_.interconnect, procs);
        break;
      case CommOp::Kind::kGather:
        once = net::gather_time(cluster_.interconnect, procs, op.bytes);
        break;
    }
    total += once * op.repeat;
  }
  return total;
}

PhaseBreakdown ExecutionSimulator::price_phase(const Phase& phase) const {
  TGI_REQUIRE(phase.active_nodes >= 1 && phase.active_nodes <= cluster_.nodes,
              "phase '" << phase.label << "' uses " << phase.active_nodes
                        << " nodes; cluster has " << cluster_.nodes);
  TGI_REQUIRE(phase.cores_per_node >= 1 &&
                  phase.cores_per_node <= cluster_.node.total_cores(),
              "phase '" << phase.label << "' uses " << phase.cores_per_node
                        << " cores/node; node has "
                        << cluster_.node.total_cores());
  PhaseBreakdown out;
  out.label = phase.label;
  out.active_nodes = phase.active_nodes;

  const double core_fraction =
      static_cast<double>(phase.cores_per_node) /
      static_cast<double>(cluster_.node.total_cores());
  const double nominal_ghz = cluster_.node.cpu.ghz;
  const double clock_ghz =
      tuning_.cpu_clock_ghz > 0.0 ? tuning_.cpu_clock_ghz : nominal_ghz;

  // Roofline terms; a zero numerator prices to +0.0 seconds.
  const double clock_ratio = clock_ghz / nominal_ghz;
  out.compute = phase.flops_per_node /
                (cluster_.node.peak_flops() *
                 (core_fraction * tuning_.compute_efficiency * clock_ratio));
  util::ByteRate delivered = delivered_memory_bandwidth(phase.cores_per_node);
  if (phase.memory_random) delivered *= tuning_.random_access_efficiency;
  out.memory = phase.memory_bytes_per_node / delivered;
  out.io = (phase.io_bytes_per_node * static_cast<double>(phase.active_nodes)) /
           cluster_.storage.aggregate_bandwidth(phase.active_nodes);
  out.comm = comm_time(phase);

  TGI_REQUIRE(phase.comm_overlap >= 0.0 && phase.comm_overlap <= 1.0,
              "comm_overlap must be in [0, 1]");
  const util::Seconds work = std::max({out.compute, out.memory, out.io});
  // The overlapped share of communication hides under the work term (but
  // can still dominate it); the rest is an exposed super-step.
  const util::Seconds hidden = out.comm * phase.comm_overlap;
  const util::Seconds exposed = out.comm * (1.0 - phase.comm_overlap);
  out.duration = std::max(work, hidden) + exposed;
  TGI_CHECK(out.duration.value() > 0.0,
            "phase '" << phase.label << "' has zero duration");

  // Busy fractions for the power model. A core stalled on DRAM is not
  // idle — it draws close to full power while spinning on loads — so
  // memory-bound time contributes ~0.7 of compute-equivalent CPU power;
  // communication wait contributes less (blocked in the NIC driver).
  const double d = out.duration.value();
  auto frac = [d](util::Seconds t) {
    return std::clamp(t.value() / d, 0.0, 1.0);
  };
  out.utilization.cpu =
      core_fraction * std::clamp(frac(out.compute) + 0.4 * frac(out.memory) +
                                     0.2 * frac(out.comm),
                                 0.0, 1.0);
  out.utilization.memory =
      std::max(frac(out.memory), 0.35 * frac(out.compute));
  if (clock_ghz != nominal_ghz) out.utilization.dvfs_ghz = clock_ghz;
  out.utilization.disk = frac(out.io);
  out.utilization.network =
      std::max(frac(out.comm),
               phase.io_bytes_per_node.value() > 0.0 ? frac(out.io) * 0.8
                                                     : 0.0);
  return out;
}

SimulatedRun ExecutionSimulator::run(const Workload& workload) const {
  TGI_REQUIRE(!workload.phases.empty(),
              "workload '" << workload.benchmark << "' has no phases");
  std::vector<PhaseBreakdown> breakdowns;
  breakdowns.reserve(workload.phases.size());
  std::vector<power::UtilizationSegment> segments;
  segments.reserve(workload.phases.size());
  util::Seconds elapsed{0.0};
  std::size_t max_active = 1;
  for (const Phase& phase : workload.phases) {
    PhaseBreakdown pb = price_phase(phase);
    elapsed += pb.duration;
    max_active = std::max(max_active, pb.active_nodes);
    segments.push_back({pb.duration, pb.utilization, pb.active_nodes});
    breakdowns.push_back(std::move(pb));
  }
  power::ClusterPowerModel metered = cluster_.power_model();
  if (tuning_.meter_active_nodes_only) {
    // Meter only the participating subset; it carries its share of the
    // shared switch draw.
    const double share = static_cast<double>(max_active) /
                         static_cast<double>(cluster_.nodes);
    metered = power::ClusterPowerModel(
        power::NodePowerModel(cluster_.node.power), max_active,
        cluster_.switch_power * share);
  }
  return SimulatedRun{elapsed, std::move(breakdowns),
                      power::PowerTimeline(std::move(metered),
                                           std::move(segments))};
}

}  // namespace tgi::sim
