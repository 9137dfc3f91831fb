// Host facts recorded with every run, and the process resource readings
// the end-to-end metrics use. Host facts are recorded only; no metric is
// gated on them.
#pragma once

#include <string>

namespace perfbench {

struct HostFacts {
  unsigned nproc = 0;
  /// Spin-loop throughput at the best thread count over single-thread
  /// throughput: how many cores the box actually delivers.
  double effective_cores = 0.0;
  std::string build_type;
  std::string dtype;
  std::string compiler;
};

/// Runs the effective-core probe (spins 1..nproc threads for ~40 ms each).
[[nodiscard]] HostFacts probe_host();

/// User + system CPU milliseconds of this process plus every reaped child.
[[nodiscard]] double cpu_ms_with_children();

/// Peak resident set size of this process in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
