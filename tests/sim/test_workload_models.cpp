// Analytic workload builders for the three paper benchmarks.
#include <gtest/gtest.h>

#include <cmath>

#include "kernels/hpl.h"
#include "kernels/hpl_model.h"
#include "kernels/iozone_model.h"
#include "kernels/stream.h"
#include "kernels/stream_model.h"
#include "sim/catalog.h"
#include "util/error.h"

namespace tgi::kernels {
namespace {

TEST(Layout, ScatterSpreadsAcrossAllNodes) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  const RankLayout small = layout_for(fire, 16, Placement::kScatter);
  EXPECT_EQ(small.nodes, 8u);
  EXPECT_EQ(small.cores_per_node, 2u);
  const RankLayout tiny = layout_for(fire, 3, Placement::kScatter);
  EXPECT_EQ(tiny.nodes, 3u);
  EXPECT_EQ(tiny.cores_per_node, 1u);
}

TEST(Layout, PackFillsNodes) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  const RankLayout l = layout_for(fire, 16, Placement::kPack);
  EXPECT_EQ(l.nodes, 1u);
  EXPECT_EQ(l.cores_per_node, 16u);
  const RankLayout l2 = layout_for(fire, 24, Placement::kPack);
  EXPECT_EQ(l2.nodes, 2u);
  EXPECT_EQ(l2.cores_per_node, 12u);
}

TEST(HplModel, ProblemSizeFollowsMemoryRule) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  const std::size_t n = hpl_problem_size(fire, 8, 0.25, 128);
  // N = sqrt(0.25 · 8 · 32 GiB / 8 B), rounded down to a multiple of 128.
  const double exact = std::sqrt(0.25 * 8.0 * 32.0 * 1073741824.0 / 8.0);
  EXPECT_LE(static_cast<double>(n), exact);
  EXPECT_GT(static_cast<double>(n), exact - 128.0);
  EXPECT_EQ(n % 128, 0u);
}

TEST(HplModel, FlopsMatchHplCount) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  HplModelParams params;
  params.processes = 128;
  const sim::Workload wl = make_hpl_workload(fire, params);
  const std::size_t n = hpl_problem_size(fire, 8, params.memory_fraction,
                                         params.block_size);
  EXPECT_NEAR(wl.total_flops().value(), hpl_flop_count(n).value(),
              hpl_flop_count(n).value() * 1e-9);
  EXPECT_EQ(wl.benchmark, "HPL");
  EXPECT_EQ(wl.phases.size(), params.segments);
}

TEST(HplModel, SegmentsCarryDecliningWork) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  HplModelParams params;
  params.processes = 64;
  params.segments = 6;
  const sim::Workload wl = make_hpl_workload(fire, params);
  for (std::size_t s = 1; s < wl.phases.size(); ++s) {
    EXPECT_LT(wl.phases[s].flops_per_node.value(),
              wl.phases[s - 1].flops_per_node.value());
  }
}

TEST(HplModel, CommVolumeGrowsWithProblem) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  HplModelParams small;
  small.processes = 64;
  small.n_override = 12800;
  HplModelParams big = small;
  big.n_override = 25600;
  const auto wl_small = make_hpl_workload(fire, small);
  const auto wl_big = make_hpl_workload(fire, big);
  EXPECT_GT(wl_big.phases[0].comms[0].bytes.value(),
            wl_small.phases[0].comms[0].bytes.value());
}

TEST(HplModel, Validation) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  HplModelParams params;
  params.processes = 4096;  // more than the cluster has
  EXPECT_THROW(make_hpl_workload(fire, params), util::PreconditionError);
  EXPECT_THROW((void)hpl_problem_size(fire, 8, 0.0, 128),
               util::PreconditionError);
  EXPECT_THROW((void)hpl_problem_size(fire, 99, 0.3, 128),
               util::PreconditionError);
}

TEST(StreamModel, TriadByteAccounting) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  StreamModelParams params;
  params.processes = 128;
  params.iterations = 10;
  params.memory_fraction = 0.3;
  const sim::Workload wl = make_stream_workload(fire, params);
  const double elements =
      fire.node.memory.value() * 0.3 / (3.0 * 8.0);
  // 24.0 = the reference double-precision Triad's bytes/element.
  EXPECT_NEAR(wl.phases[0].memory_bytes_per_node.value(),
              elements * 24.0 * 10.0, 1.0);
  EXPECT_EQ(wl.benchmark, "STREAM");
}

TEST(StreamModel, ScatterUsesAllNodes) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  StreamModelParams params;
  params.processes = 16;
  const sim::Workload wl = make_stream_workload(fire, params);
  EXPECT_EQ(wl.phases[0].active_nodes, 8u);
  EXPECT_EQ(wl.phases[0].cores_per_node, 2u);
}

TEST(IozoneModel, PerNodeFileThroughSharedStorage) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  IozoneModelParams params;
  params.nodes = 4;
  params.file_size = util::gibibytes(2.0);
  const sim::Workload wl = make_iozone_workload(fire, params);
  EXPECT_EQ(wl.phases.size(), 1u);
  EXPECT_EQ(wl.phases[0].active_nodes, 4u);
  EXPECT_DOUBLE_EQ(wl.phases[0].io_bytes_per_node.value(),
                   util::gibibytes(2.0).value());
  EXPECT_DOUBLE_EQ(wl.total_io_bytes().value(),
                   4.0 * util::gibibytes(2.0).value());
  // Buffered writes drive DRAM traffic too.
  EXPECT_GE(wl.phases[0].memory_bytes_per_node.value(),
            wl.phases[0].io_bytes_per_node.value());
}

TEST(IozoneModel, Validation) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  IozoneModelParams params;
  params.nodes = 99;
  EXPECT_THROW(make_iozone_workload(fire, params), util::PreconditionError);
  params.nodes = 1;
  params.file_size = util::bytes(0.0);
  EXPECT_THROW(make_iozone_workload(fire, params), util::PreconditionError);
}

}  // namespace
}  // namespace tgi::kernels
