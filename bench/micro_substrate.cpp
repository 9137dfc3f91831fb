// Microbench: the substrates under every sweep point — meter sampling, the
// simulated filesystem's write path, the page cache, the cluster
// simulator's pricing loop, and mpisim collectives.
//
// Each operation runs in a repeat loop doubled until one pass takes >= 2 ms;
// the best of `trials` passes gives its time per call. Results land in
// BENCH_substrate.json (out=PATH to move it), written via util::AtomicFile
// — part of the BENCH_*.json perf trajectory ci.sh collects.
#include "bench_common.h"

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "fs/filesystem.h"
#include "kernels/hpl_model.h"
#include "mpisim/runtime.h"
#include "power/meter.h"
#include "sim/catalog.h"
#include "sim/simulator.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Microbench",
                          "substrates: meter, filesystem, simulator, mpisim");
    const auto trials =
        static_cast<std::size_t>(e.config.get_int("trials", 5));
    const std::string out_path =
        e.config.get_string("out", "BENCH_substrate.json");
    util::TextTable table({"substrate", "arg", "reps", "ns per call"});
    std::string json_rows;
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
      json_rows += std::string(json_rows.empty() ? "" : ",\n") +
                   "    {\"name\": \"" + name + "\", \"arg\": " +
                   std::to_string(arg) + ", \"reps\": " +
                   std::to_string(reps) + ", \"ns_per_call\": " + ns + "}";
    };
    using Args = std::vector<std::uint64_t>;

    // Meter sampling: one measure() of a `length`-second run at 1 Hz.
    power::WattsUpMeter meter;
    const power::PowerSource source = [](util::Seconds t) {
      return util::watts(t.value() > 10.0 ? 1050.0 : 1000.0);
    };
    for (const std::uint64_t length : Args{60, 600, 3600}) {
      time("wattsup_measure", length, [&] {
        auto reading =
            meter.measure(source, util::seconds(static_cast<double>(length)));
        bench::keep(reading);
      });
    }
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
    // Simulator pricing loop: one HPL workload on Fire.
    const sim::ClusterSpec fire = sim::fire_cluster();
    const sim::ExecutionSimulator simulator(fire);
    for (const std::uint64_t processes : Args{16, 128}) {
      kernels::HplModelParams params;
      params.processes = processes;
      const sim::Workload wl = kernels::make_hpl_workload(fire, params);
      time("simulate_hpl", processes, [&] {
        auto run = simulator.run(wl);
        bench::keep(run);
      });
    }
    // mpisim: an allreduce of 1024 doubles, and a two-rank ping-pong.
    for (const std::uint64_t procs : Args{2, 4, 8}) {
      time("mpisim_allreduce", procs, [procs] {
        mpisim::run(static_cast<int>(procs), [](mpisim::Rank& rank) {
          std::vector<double> v(1024, 1.0);
          rank.allreduce_sum(std::span<double>(v));
        });
      });
    }
    for (const std::uint64_t bytes : Args{64, 65536}) {
      time("mpisim_pingpong", bytes, [bytes] {
        mpisim::run(2, [bytes](mpisim::Rank& rank) {
          std::vector<std::uint8_t> buf(bytes, 1);
          const int peer = 1 - rank.rank();
          if (rank.rank() == 0) rank.send_bytes(peer, 0, buf);
          auto got = rank.recv_bytes(peer, rank.rank() == 0 ? 1 : 0);
          bench::keep(got);
          if (rank.rank() == 1) rank.send_bytes(peer, 1, buf);
        });
      });
    }

    std::cout << table << "\nbest of " << trials << " passes\n";
    util::AtomicFile json(out_path);
    json.stream() << "{\n  \"bench\": \"micro_substrate\",\n  \"trials\": "
                  << trials << ",\n  \"timings\": [\n"
                  << json_rows << "\n  ]\n}\n";
    json.commit();
    std::cout << "wrote " << out_path << "\n";
  }, {"trials", "out"});
}
