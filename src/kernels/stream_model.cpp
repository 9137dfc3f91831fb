#include "kernels/stream_model.h"

#include "util/error.h"

namespace tgi::kernels {

namespace {

// The *modeled* machine runs the reference double-precision STREAM
// (8-byte words; Triad reads b and c and writes a = 24 bytes/element),
// spelled out here rather than borrowed from kernels/stream.h's native
// byte constants, so the simulated workload the goldens pin never follows
// the native kernel.
constexpr double kModelWordBytes = 8.0;
constexpr double kModelTriadBytesPerElement = 3.0 * kModelWordBytes;

}  // namespace

sim::Workload make_stream_workload(const sim::ClusterSpec& cluster,
                                   const StreamModelParams& params) {
  TGI_REQUIRE(params.processes >= 1 &&
                  params.processes <= cluster.total_cores(),
              "process count out of range");
  TGI_REQUIRE(params.memory_fraction > 0.0 && params.memory_fraction <= 0.8,
              "memory fraction must be in (0, 0.8]");
  TGI_REQUIRE(params.iterations >= 1, "need at least one iteration");

  const RankLayout layout =
      layout_for(cluster, params.processes, params.placement);
  const std::size_t nodes = layout.nodes;
  const std::size_t cores_per_node = layout.cores_per_node;

  // Three arrays fill the memory fraction; Triad moves 24 bytes per
  // element per iteration (read b, read c, write a).
  const double array_bytes_total =
      cluster.node.memory.value() * params.memory_fraction;
  const double elements = array_bytes_total / (3.0 * kModelWordBytes);
  const double triad_bytes_per_iter = elements * kModelTriadBytesPerElement;

  sim::Workload wl;
  wl.benchmark = "STREAM";
  sim::Phase ph;
  ph.label = "triad";
  ph.active_nodes = nodes;
  ph.cores_per_node = cores_per_node;
  ph.memory_bytes_per_node = util::bytes(
      triad_bytes_per_iter * static_cast<double>(params.iterations));
  // Triad does 2 flops per element per iteration — negligible next to the
  // bandwidth demand, but the power model should see non-zero FP activity.
  ph.flops_per_node = util::flops(
      elements * 2.0 * static_cast<double>(params.iterations));
  ph.comms.push_back({sim::CommOp::Kind::kBarrier, util::bytes(0.0), 2.0});
  wl.phases.push_back(std::move(ph));
  return wl;
}

}  // namespace tgi::kernels
