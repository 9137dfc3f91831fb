// Microbench: the substrates only the native path (tgi_native) runs on —
// the simulated filesystem's write path and the page cache. The meter and
// the cluster simulator are timed by perfbench's power.* and sim.* spans
// instead.
//
// Each operation runs in a repeat loop doubled until one pass takes >= 2 ms;
// the best of `trials` passes gives its time per call.
#include "bench_common.h"

#include <cstdint>
#include <functional>
#include <vector>

#include "fs/filesystem.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Microbench",
                          "substrates: filesystem, page cache");
    const auto trials =
        static_cast<std::size_t>(e.config.get_int("trials", 5));
    util::TextTable table({"substrate", "arg", "reps", "ns per call"});
    const auto time = [&](const std::string& name, std::uint64_t arg,
                          const std::function<void()>& op) {
      std::size_t reps = 1;
      const auto pass = [&op, &reps] {
        for (std::size_t r = 0; r < reps; ++r) op();
      };
      for (; reps < (std::size_t{1} << 24); reps *= 2) {
        const double t0 = bench::now_seconds();
        pass();
        if (bench::now_seconds() - t0 >= 2e-3) break;
      }
      const std::string ns = util::fixed(
          bench::best_seconds(trials, pass) * 1e9 / static_cast<double>(reps),
          1);
      table.add_row({name, std::to_string(arg), std::to_string(reps), ns});
    };
    using Args = std::vector<std::uint64_t>;

    // Filesystem write path: `bytes` of 64 KiB records into a fresh file.
    const std::vector<std::uint8_t> record(64 * 1024, 0xAB);
    for (const std::uint64_t bytes : Args{1 << 20, 16 << 20}) {
      time("fs_sequential_write", bytes, [&] {
        fs::SimFilesystem filesystem;
        const auto fd = filesystem.open("bench");
        for (std::uint64_t off = 0; off < bytes; off += record.size()) {
          filesystem.write(fd, off, record);
        }
        filesystem.fsync(fd);
        auto now = filesystem.now();
        bench::keep(now);
      });
    }
    // Page cache: one access, cycling over twice its 1024-page capacity.
    fs::PageCache cache(1024, util::bytes(4096.0));
    std::uint64_t page = 0;
    time("page_cache_access", 1024, [&] {
      auto hit = cache.access({1, page++ % 2048}, true);
      bench::keep(hit);
    });

    std::cout << table << "\nbest of " << trials << " passes\n";
  }, {"trials"});
}
