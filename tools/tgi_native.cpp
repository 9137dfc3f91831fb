// tgi_native — run the real benchmark kernels on THIS machine and emit a
// measurement CSV that tgi_calc / tgi_rank consume.
//
//   tgi_native out=host.csv [hpl_n=384] [hpl_block=48]
//              [stream_elements=2000000] [stream_threads=2]
//              [iozone_mib=64] [gups=0|1] [seed=N]
//
// Every kernel verifies itself (HPL residual, STREAM closed form, IOzone
// read-back, GUPS involution); power is modeled for a Fire-class node
// since laptops lack plug meters — swap the node model in code if you
// know your machine's envelope. Unknown keys are rejected.
#include <iostream>

#include "harness/measurement_io.h"
#include "harness/native.h"
#include "sim/catalog.h"
#include "util/config.h"
#include "util/format.h"

namespace {

using namespace tgi;

int run(int argc, const char* const* argv) {
  const util::Config cfg = util::Config::from_args(argc, argv);
  util::require_known_keys(cfg,
                           {"out", "hpl_n", "hpl_block", "stream_elements",
                            "stream_threads", "iozone_mib", "gups", "seed"},
                           "tgi_native");
  const std::string out = cfg.get_string("out", "native_measurements.csv");

  harness::NativeSuiteConfig native;
  native.hpl_n = static_cast<std::size_t>(cfg.get_int("hpl_n", 384));
  native.hpl_block =
      static_cast<std::size_t>(cfg.get_int("hpl_block", 48));
  native.stream_elements = static_cast<std::size_t>(
      cfg.get_int("stream_elements", 2'000'000));
  native.stream_threads =
      static_cast<int>(cfg.get_int("stream_threads", 2));
  native.iozone_file = util::mebibytes(
      static_cast<double>(cfg.get_int("iozone_mib", 64)));
  native.include_gups = cfg.get_bool("gups", false);
  native.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 2026));

  const power::NodePowerModel node(sim::fire_cluster().node.power);
  std::cout << "running the native suite (HPL n=" << native.hpl_n
            << ")...\n";
  const auto suite = harness::run_native_suite(native, node);
  for (const auto& m : suite) {
    std::cout << "  " << m.benchmark << ": " << util::fixed(m.performance, 2)
              << " " << m.metric_unit << " @ "
              << util::format(m.average_power) << "\n";
  }
  harness::write_measurements_file(out, suite);
  std::cout << "wrote " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& ex) {
    std::cerr << "tgi_native: error: " << ex.what() << "\n";
    return 1;
  }
}
