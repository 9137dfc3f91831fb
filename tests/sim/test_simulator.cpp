// Execution simulator: pricing closed forms, roofline max, utilizations.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "generated_cluster.h"
#include "kernels/extended_models.h"
#include "kernels/gups_model.h"
#include "kernels/hpl_model.h"
#include "kernels/iozone_model.h"
#include "kernels/stream_model.h"
#include "net/collectives.h"
#include "sim/catalog.h"
#include "util/error.h"
#include "util/rng.h"

namespace tgi::sim {
namespace {

ClusterSpec tiny_cluster() {
  ClusterSpec c = departmental_cluster();
  c.nodes = 2;
  return c;
}

TEST(Simulator, ComputeBoundPhase) {
  const ClusterSpec c = tiny_cluster();
  SimTuning tuning;
  const ExecutionSimulator sim(c, tuning);
  Workload wl;
  wl.benchmark = "t";
  Phase ph;
  ph.flops_per_node = util::flops(1e11);
  ph.active_nodes = 1;
  ph.cores_per_node = c.node.total_cores();
  wl.phases.push_back(ph);
  const SimulatedRun run = sim.run(wl);
  const double attainable =
      c.node.peak_flops().value() * tuning.compute_efficiency;
  EXPECT_NEAR(run.elapsed.value(), 1e11 / attainable, 1e-9);
  EXPECT_GT(run.phases[0].utilization.cpu, 0.9);
}

TEST(Simulator, PartialCoresScaleComputeRate) {
  const ClusterSpec c = tiny_cluster();
  const ExecutionSimulator sim(c);
  Workload full;
  Phase ph;
  ph.flops_per_node = util::flops(1e10);
  ph.active_nodes = 1;
  ph.cores_per_node = c.node.total_cores();
  full.phases.push_back(ph);
  Workload half = full;
  half.phases[0].cores_per_node = c.node.total_cores() / 2;
  EXPECT_NEAR(sim.run(half).elapsed.value(),
              2.0 * sim.run(full).elapsed.value(), 1e-9);
}

TEST(Simulator, MemoryBoundPhase) {
  const ClusterSpec c = tiny_cluster();
  SimTuning tuning;
  const ExecutionSimulator sim(c, tuning);
  Workload wl;
  Phase ph;
  ph.memory_bytes_per_node = util::gibibytes(10.0);
  ph.active_nodes = 1;
  ph.cores_per_node = 4;
  wl.phases.push_back(ph);
  const SimulatedRun run = sim.run(wl);
  EXPECT_NEAR(
      run.elapsed.value(),
      util::gibibytes(10.0).value() /
          sim.delivered_memory_bandwidth(4).value(),
      1e-9);
  EXPECT_GT(run.phases[0].utilization.memory, 0.99);
}

TEST(Simulator, DeliveredBandwidthSaturates) {
  const ExecutionSimulator sim(tiny_cluster());
  double prev = 0.0;
  for (std::size_t cores = 1; cores <= 8; ++cores) {
    const double bw = sim.delivered_memory_bandwidth(cores).value();
    EXPECT_GT(bw, prev);  // monotone increasing...
    prev = bw;
  }
  // ...but with diminishing returns: 8 cores deliver < 8× one core.
  EXPECT_LT(prev, 8.0 * sim.delivered_memory_bandwidth(1).value());
  // And never above the derated node bandwidth.
  EXPECT_LE(prev, tiny_cluster().node.memory_bandwidth.value());
}

TEST(Simulator, IoPhaseUsesSharedStorage) {
  const ClusterSpec c = tiny_cluster();
  const ExecutionSimulator sim(c);
  Workload wl;
  Phase ph;
  ph.io_bytes_per_node = util::gibibytes(1.0);
  ph.active_nodes = 2;
  ph.cores_per_node = 1;
  wl.phases.push_back(ph);
  const SimulatedRun run = sim.run(wl);
  const double aggregate = 2.0 * util::gibibytes(1.0).value();
  EXPECT_NEAR(run.elapsed.value(),
              aggregate / c.storage.aggregate_bandwidth(2).value(), 1e-9);
  EXPECT_GT(run.phases[0].utilization.disk, 0.99);
}

TEST(Simulator, RooflineTakesMaxThenAddsComm) {
  const ClusterSpec c = tiny_cluster();
  const ExecutionSimulator sim(c);
  Workload wl;
  Phase ph;
  ph.flops_per_node = util::flops(5e10);
  ph.memory_bytes_per_node = util::gibibytes(2.0);
  ph.active_nodes = 2;
  ph.cores_per_node = c.node.total_cores();
  ph.comms.push_back({CommOp::Kind::kBroadcast, util::mebibytes(8.0), 3.0});
  wl.phases.push_back(ph);
  const SimulatedRun run = sim.run(wl);
  const auto& pb = run.phases[0];
  EXPECT_NEAR(pb.duration.value(),
              std::max(pb.compute.value(), pb.memory.value()) +
                  pb.comm.value(),
              1e-12);
  const std::size_t procs = 2 * c.node.total_cores();
  EXPECT_NEAR(
      pb.comm.value(),
      3.0 * net::bcast_time(c.interconnect, procs, util::mebibytes(8.0))
                .value(),
      1e-12);
}

TEST(Simulator, CommOverlapSemantics) {
  const ClusterSpec c = tiny_cluster();
  const ExecutionSimulator sim(c);
  Workload wl;
  Phase ph;
  ph.flops_per_node = util::flops(5e10);
  ph.active_nodes = 2;
  ph.cores_per_node = c.node.total_cores();
  // Sized so comm < work: full overlap then hides communication entirely
  // and every overlap level is strictly distinct.
  ph.comms.push_back({CommOp::Kind::kBroadcast, util::mebibytes(8.0), 4.0});
  wl.phases.push_back(ph);

  const auto exposed = sim.run(wl);
  wl.phases[0].comm_overlap = 1.0;
  const auto overlapped = sim.run(wl);
  wl.phases[0].comm_overlap = 0.5;
  const auto half = sim.run(wl);

  const double work = exposed.phases[0].compute.value();
  const double comm = exposed.phases[0].comm.value();
  ASSERT_LT(comm, work);  // precondition of the strict ordering below
  EXPECT_NEAR(exposed.elapsed.value(), work + comm, 1e-12);
  EXPECT_NEAR(overlapped.elapsed.value(), std::max(work, comm), 1e-12);
  EXPECT_NEAR(half.elapsed.value(),
              std::max(work, 0.5 * comm) + 0.5 * comm, 1e-12);
  EXPECT_LT(overlapped.elapsed.value(), half.elapsed.value());
  EXPECT_LT(half.elapsed.value(), exposed.elapsed.value());
}

TEST(Simulator, CommOverlapValidation) {
  const ExecutionSimulator sim(tiny_cluster());
  Workload wl;
  Phase ph;
  ph.flops_per_node = util::flops(1.0);
  ph.comm_overlap = 1.5;
  wl.phases.push_back(ph);
  EXPECT_THROW(sim.run(wl), util::PreconditionError);
}

TEST(Simulator, UtilizationsAreFractions) {
  const ExecutionSimulator sim(fire_cluster());
  Workload wl;
  Phase ph;
  ph.flops_per_node = util::flops(1e12);
  ph.memory_bytes_per_node = util::gibibytes(5.0);
  ph.io_bytes_per_node = util::mebibytes(100.0);
  ph.comms.push_back({CommOp::Kind::kAllreduce, util::mebibytes(1.0), 10.0});
  ph.active_nodes = 8;
  ph.cores_per_node = 16;
  wl.phases.push_back(ph);
  const SimulatedRun run = sim.run(wl);
  const auto& u = run.phases[0].utilization;
  for (double v : {u.cpu, u.memory, u.disk, u.network}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Simulator, MeterScopeShrinksTimelineCluster) {
  ClusterSpec c = fire_cluster();
  Workload wl;
  Phase ph;
  ph.flops_per_node = util::flops(1e12);
  ph.active_nodes = 2;  // 6 of 8 nodes idle
  ph.cores_per_node = 16;
  wl.phases.push_back(ph);

  SimTuning whole;
  SimTuning subset;
  subset.meter_active_nodes_only = true;
  const auto run_whole = ExecutionSimulator(c, whole).run(wl);
  const auto run_subset = ExecutionSimulator(c, subset).run(wl);
  EXPECT_DOUBLE_EQ(run_whole.elapsed.value(), run_subset.elapsed.value());
  // The subset meter excludes six idle nodes' draw.
  EXPECT_GT(run_whole.timeline.exact_average_power().value(),
            run_subset.timeline.exact_average_power().value() + 500.0);
}

TEST(Simulator, MultiPhaseTimelineConcatenates) {
  const ExecutionSimulator sim(tiny_cluster());
  Workload wl;
  Phase a;
  a.flops_per_node = util::flops(1e10);
  a.active_nodes = 1;
  a.cores_per_node = 2;
  Phase b = a;
  b.memory_bytes_per_node = util::gibibytes(1.0);
  wl.phases = {a, b};
  const SimulatedRun run = sim.run(wl);
  EXPECT_EQ(run.phases.size(), 2u);
  EXPECT_NEAR(run.elapsed.value(),
              run.phases[0].duration.value() + run.phases[1].duration.value(),
              1e-12);
  EXPECT_NEAR(run.timeline.duration().value(), run.elapsed.value(), 1e-12);
}

TEST(Simulator, Validation) {
  const ExecutionSimulator sim(tiny_cluster());
  Workload empty;
  empty.benchmark = "none";
  EXPECT_THROW(sim.run(empty), util::PreconditionError);

  Workload too_many_nodes;
  Phase ph;
  ph.flops_per_node = util::flops(1.0);
  ph.active_nodes = 99;
  ph.cores_per_node = 1;
  too_many_nodes.phases.push_back(ph);
  EXPECT_THROW(sim.run(too_many_nodes), util::PreconditionError);

  SimTuning bad;
  bad.compute_efficiency = 0.0;
  EXPECT_THROW(ExecutionSimulator(tiny_cluster(), bad),
               util::PreconditionError);
}

/// FNV-1a over the hexfloat text of every double a SimulatedRun carries:
/// elapsed, each phase's terms and utilizations, each timeline segment,
/// and the timeline's exact energy.
class RunDigest {
 public:
  void add(double v) {
    char text[64];
    const int len = std::snprintf(text, sizeof text, "%a;", v);
    for (int i = 0; i < len; ++i) {
      hash_ = (hash_ ^ static_cast<unsigned char>(text[i])) *
              0x100000001b3ULL;
    }
  }
  void add(const power::ComponentUtilization& u) {
    for (double v : {u.cpu, u.memory, u.disk, u.network, u.dvfs_ghz}) add(v);
  }
  void add(const SimulatedRun& run) {
    add(run.elapsed.value());
    for (const PhaseBreakdown& ph : run.phases) {
      for (util::Seconds t :
           {ph.compute, ph.memory, ph.io, ph.comm, ph.duration}) {
        add(t.value());
      }
      add(ph.utilization);
      add(static_cast<double>(ph.active_nodes));
    }
    for (const power::UtilizationSegment& seg : run.timeline.segments()) {
      add(seg.duration.value());
      add(seg.utilization);
      add(static_cast<double>(seg.active_nodes));
    }
    add(run.timeline.exact_energy().value());
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Every bit the simulator prices, pinned over generated clusters: HPL at
/// three process counts, STREAM, IOzone, GUPS (a random-access phase),
/// PTRANS and FFT, each at the nominal clock and below it. The goldens
/// cover only the Fire/SystemG sweep; this covers random access and DVFS.
TEST(Simulator, RunBitsArePinnedOverGeneratedClusters) {
  util::Xoshiro256 rng(0x51D1);
  RunDigest digest;
  for (int k = 0; k < 32; ++k) {
    const ClusterSpec cluster = generated::generated_cluster(rng);
    SCOPED_TRACE(cluster_to_config(cluster));
    const std::size_t cores = cluster.total_cores();
    std::vector<Workload> workloads;
    for (std::size_t procs :
         {std::size_t{1}, std::max<std::size_t>(1, cores / 2), cores}) {
      kernels::HplModelParams hpl;
      hpl.processes = procs;
      workloads.push_back(kernels::make_hpl_workload(cluster, hpl));
    }
    kernels::StreamModelParams stream;
    stream.processes = cores;
    workloads.push_back(kernels::make_stream_workload(cluster, stream));
    kernels::IozoneModelParams iozone;
    iozone.nodes = cluster.nodes;
    workloads.push_back(kernels::make_iozone_workload(cluster, iozone));
    kernels::GupsModelParams gups;
    gups.processes = std::max<std::size_t>(1, cores / 2);
    workloads.push_back(kernels::make_gups_workload(cluster, gups));
    kernels::PtransModelParams ptrans;
    ptrans.processes = cores;
    workloads.push_back(kernels::make_ptrans_workload(cluster, ptrans));
    kernels::FftModelParams fft;
    fft.processes = cores;
    workloads.push_back(kernels::make_fft_workload(cluster, fft));
    SimTuning slowed;
    slowed.cpu_clock_ghz = 0.75 * cluster.node.cpu.ghz;
    for (const SimTuning& tuning : {SimTuning{}, slowed}) {
      const ExecutionSimulator sim(cluster, tuning);
      for (const Workload& wl : workloads) digest.add(sim.run(wl));
    }
  }
  EXPECT_EQ(digest.value(), 0x06d45dfee454faddULL) << std::hex << digest.value();
}

TEST(Workload, Totals) {
  Workload wl;
  Phase ph;
  ph.flops_per_node = util::flops(100.0);
  ph.memory_bytes_per_node = util::bytes(10.0);
  ph.io_bytes_per_node = util::bytes(5.0);
  ph.active_nodes = 4;
  wl.phases.push_back(ph);
  ph.active_nodes = 2;
  wl.phases.push_back(ph);
  EXPECT_DOUBLE_EQ(wl.total_flops().value(), 600.0);
  EXPECT_DOUBLE_EQ(wl.total_memory_bytes().value(), 60.0);
  EXPECT_DOUBLE_EQ(wl.total_io_bytes().value(), 30.0);
}

}  // namespace
}  // namespace tgi::sim
