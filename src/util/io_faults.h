// Deterministic I/O fault injection for the publish paths (DESIGN.md §15).
//
// The §9 fault plane makes *measurements* fail on purpose; this shim does
// the same for the filesystem layer the campaign engine's durability story
// rests on: short writes, ENOSPC, EIO — the failure modes of a multi-day
// metered campaign writing to real disks. The two audited write paths
// consult it:
//
//   - util::atomic_write_file / util::AtomicFile: an injected fault fails
//     the STAGING write; the temp file is removed and the destination is
//     left byte-for-byte intact, so a failed publish can never tear a
//     visible artifact;
//   - harness::PointStore::append: an injected fault tears (short
//     write) or aborts (ENOSPC/EIO) one append; the per-record CRC
//     quarantines the torn tail on read, exactly like a SIGKILL mid-append.
//
// Faults are decided per guarded operation from a seeded Xoshiro256 keyed
// on (seed, operation index): a given spec replays the identical fault
// sequence, which is what makes the worker-process fault campaigns in
// tools/serve_check.cmake reproducible. The shim is process-wide and OFF by
// default; the campaign engine only ever installs it inside `tgi_serve
// --worker` processes (TGI_SERVE_WORKER_IO_FAULTS), so the engine's own
// emission and in-process heal path never fault and recovery always
// converges.
#pragma once

#include <cstdint>
#include <string>

namespace tgi::util {

/// What the shim makes the next guarded write do.
enum class IoFaultKind {
  kNone,        ///< write proceeds normally
  kShortWrite,  ///< write a torn prefix, then fail
  kEnospc,      ///< fail before writing anything (disk full)
  kEio,         ///< fail before writing anything (I/O error)
};

/// Stable lowercase name ("none", "short-write", "enospc", "eio").
[[nodiscard]] const char* io_fault_name(IoFaultKind kind);

/// The injection policy: every guarded write faults independently with
/// probability `rate`, the kind drawn uniformly from the three failures.
struct IoFaultSpec {
  std::uint64_t seed = 0;
  double rate = 0.0;  ///< per-operation fault probability in [0, 1]

  void validate() const;
};

/// Parses "<rate>" or "seed=N,rate=P" (either order, both optional keys in
/// the key=value form). Throws TgiError on anything else.
[[nodiscard]] IoFaultSpec parse_io_fault_spec(const std::string& text);

/// Installs the process-wide fault policy (replacing any previous one).
/// Thread-safe; install before spawning writers for a deterministic
/// operation order.
void install_io_faults(const IoFaultSpec& spec);

/// Removes the policy: next_io_fault() returns kNone until reinstalled.
void clear_io_faults();

[[nodiscard]] bool io_faults_installed();

/// Draws the decision for the next guarded write operation and advances
/// the operation counter. kNone (and no counter traffic beyond one atomic
/// increment) when no policy is installed.
[[nodiscard]] IoFaultKind next_io_fault();

/// RAII install/clear for tests.
class ScopedIoFaults {
 public:
  explicit ScopedIoFaults(const IoFaultSpec& spec) {
    install_io_faults(spec);
  }
  ~ScopedIoFaults() { clear_io_faults(); }

  ScopedIoFaults(const ScopedIoFaults&) = delete;
  ScopedIoFaults& operator=(const ScopedIoFaults&) = delete;
};

}  // namespace tgi::util
