#include "host.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "tracer.h"

namespace perfbench {

namespace {

double timeval_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

/// Spin-loop iterations per second summed over `threads` threads.
double spin_throughput(unsigned threads) {
  constexpr std::int64_t kWindowNs = 40'000'000;
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> done(threads, 0);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&go, &done, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      const std::int64_t end = now_ns() + kWindowNs;
      std::uint64_t iterations = 0;
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + t;
      while (now_ns() < end) {
        for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ULL + 1;
        ++iterations;
      }
      done[t] = iterations + (x == 0 ? 1 : 0);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  std::uint64_t total = 0;
  for (const std::uint64_t d : done) total += d;
  return static_cast<double>(total) / (static_cast<double>(kWindowNs) / 1e9);
}

}  // namespace

HostFacts probe_host() {
  HostFacts facts;
  facts.nproc = std::max(1U, std::thread::hardware_concurrency());
  // Best of three single-thread windows, so one preempted window does not
  // inflate the ratio.
  double single = 0.0;
  for (int r = 0; r < 3; ++r) single = std::max(single, spin_throughput(1));
  double best = single;
  for (unsigned n = 2; n <= facts.nproc; ++n) {
    best = std::max(best, spin_throughput(n));
  }
  facts.effective_cores = single > 0.0 ? best / single : 0.0;
  facts.build_type = PERFBENCH_BUILD_TYPE;
  facts.dtype = PERFBENCH_DTYPE;
#if defined(__clang__)
  facts.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  facts.compiler = "gcc " __VERSION__;
#else
  facts.compiler = "unknown";
#endif
  return facts;
}

double cpu_ms_with_children() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return timeval_ms(self.ru_utime) + timeval_ms(self.ru_stime) +
         timeval_ms(children.ru_utime) + timeval_ms(children.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: ru_maxrss survives execve, so it would report the
  // launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // KiB
}

}  // namespace perfbench
