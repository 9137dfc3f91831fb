// Microbench: the deterministic parallel sweep engine.
//
// Times the paper's Figure 5/6 suite sweep three ways — the legacy serial
// path (one SuiteRunner, one shared meter), ParallelSweep with threads=1,
// and ParallelSweep with threads=N — and proves the engine's contract on
// the spot: all three produce bit-identical SuitePoint vectors, and the
// threaded run is just faster. The speedup check needs real cores, so it
// reports "skipped" unless a spin probe (bench::effective_cores) measures
// at least 4 — nproc alone overstates what a shared VM delivers.
//
// Results land in BENCH_parallel_sweep.json (out=PATH to move it),
// written via util::AtomicFile — part of the recorded perf trajectory
// (BENCH_*.json series) that ci.sh collects into build/bench_trajectory/.
#include "bench_common.h"

#include <algorithm>
#include <thread>

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Microbench",
                          "serial vs parallel suite sweep");
    // Repeat the grid to give the pool enough points to chew on.
    const auto repeat =
        static_cast<std::size_t>(e.config.get_int("repeat", 4));
    std::vector<std::size_t> grid;
    for (std::size_t r = 0; r < repeat; ++r) {
      for (const std::size_t p : e.sweep) grid.push_back(p);
    }
    std::size_t threads = e.threads;
    if (threads == 0) threads = util::ThreadPool::default_thread_count();

    // Legacy serial path: one runner, one meter shared across all points.
    const double t0 = bench::now_seconds();
    std::vector<harness::SuitePoint> serial;
    {
      power::WattsUpConfig cfg;
      cfg.seed = e.seed;
      power::WattsUpMeter meter(cfg);
      harness::SuiteRunner runner(e.system_under_test, meter);
      serial = runner.sweep(grid);
    }
    const double t_serial = bench::now_seconds() - t0;

    harness::SuiteConfig suite;
    power::WattsUpConfig base;
    base.seed = e.seed;
    const auto factory = harness::wattsup_meter_factory(
        base, bench::suite_measurements(suite));

    harness::ParallelSweepConfig one;
    one.threads = 1;
    const double t1 = bench::now_seconds();
    const auto points_1 =
        harness::ParallelSweep(e.system_under_test, factory, one).run(grid);
    const double t_one = bench::now_seconds() - t1;

    harness::ParallelSweepConfig many;
    many.threads = threads;
    const double t2 = bench::now_seconds();
    const auto points_n =
        harness::ParallelSweep(e.system_under_test, factory, many).run(grid);
    const double t_many = bench::now_seconds() - t2;

    util::TextTable table({"path", "threads", "wall (s)", "points/s"});
    auto rate = [&](double secs) {
      return util::fixed(static_cast<double>(grid.size()) /
                             std::max(secs, 1e-9),
                         1);
    };
    table.add_row({"serial SuiteRunner::sweep", "1",
                   util::fixed(t_serial, 3), rate(t_serial)});
    table.add_row({"ParallelSweep", "1", util::fixed(t_one, 3),
                   rate(t_one)});
    table.add_row({"ParallelSweep", std::to_string(threads),
                   util::fixed(t_many, 3), rate(t_many)});
    std::cout << table;
    const double speedup = t_serial / std::max(t_many, 1e-9);
    std::cout << "\n" << grid.size() << " sweep points; speedup vs serial: "
              << util::fixed(speedup, 2) << "x with " << threads
              << " threads\n";

    const bool identical_1 = bench::same_points(serial, points_1);
    const bool identical_n = bench::same_points(serial, points_n);
    bench::print_check("ParallelSweep(threads=1) output identical to serial",
                       identical_1);
    bench::print_check("ParallelSweep(threads=N) output identical to serial",
                       identical_n);
    const unsigned cores =
        std::thread::hardware_concurrency();  // tgi-lint: allow(raw-thread)
    const double effective = bench::effective_cores(threads);
    std::cout << "effective cores (spin probe, up to " << threads
              << " threads): " << util::fixed(effective, 2) << " of "
              << cores << " visible\n";
    const bool speedup_checked = effective >= 4.0 && threads >= 4;
    if (speedup_checked) {
      bench::print_check("speedup >= 2x on >= 4 effective cores",
                         speedup >= 2.0);
    } else {
      std::cout << "[check] speedup >= 2x on >= 4 effective cores: skipped ("
                << util::fixed(effective, 2) << " measured)\n";
    }

    const std::string out_path =
        e.config.get_string("out", "BENCH_parallel_sweep.json");
    util::AtomicFile json(out_path);
    json.stream() << "{\n"
                  << "  \"bench\": \"micro_parallel_sweep\",\n"
                  << "  \"threads\": " << threads << ",\n"
                  << "  \"cores\": " << cores << ",\n"
                  << "  \"effective_cores\": " << util::fixed(effective, 2)
                  << ",\n"
                  << "  \"points\": " << grid.size() << ",\n"
                  << "  \"serial_s\": " << util::fixed(t_serial, 6) << ",\n"
                  << "  \"parallel_1_s\": " << util::fixed(t_one, 6) << ",\n"
                  << "  \"parallel_n_s\": " << util::fixed(t_many, 6)
                  << ",\n"
                  << "  \"speedup\": " << util::fixed(speedup, 3) << ",\n"
                  << "  \"speedup_checked\": "
                  << (speedup_checked ? "true" : "false") << ",\n"
                  << "  \"identical\": "
                  << (identical_1 && identical_n ? "true" : "false") << "\n"
                  << "}\n";
    json.commit();
    std::cout << "wrote " << out_path << "\n";
  }, {"repeat", "out"});
}
