// Content-addressed result cache: one PointStore per sweep spec.
//
// The campaign engine (DESIGN.md §13) deduplicates sweep points across
// many requests: a point is keyed by (spec_hash, point_index), where the
// spec hash is journal_spec_hash() over cache_spec_text — the one
// canonical text of a sweep's identity. A worker journal and a cache
// shard carry this same key, and a `tgi_sweep checkpoint=DIR`
// directory is a cache directory: its checkpoint is the spec's shard.
// The text includes the sweep values: a point's RNG streams are keyed on
// its *index* in the value list, so two sweeps with different value lists
// must never collide. tests/harness/test_cache_key.cpp pins its digests
// so accidental drift (which would silently invalidate every cache on
// disk) fails loudly.
//
// On-disk representation: one journal file per spec at
// <dir>/<hash16>.tgij — a harness::PointStore (harness/checkpoint.h,
// DESIGN.md §11) that only fill() reads, fills and republishes. Loads
// inherit the store's trust policy: a record is fully valid or it is
// quarantined with a reason and its point recomputed; a shard whose header
// names another spec is foreign or tampered and is quarantined wholesale.
// A lookup never throws on damaged bytes — damage is data, not an error.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/checkpoint.h"
#include "harness/faults.h"
#include "harness/suite.h"
#include "sim/machine.h"

namespace tgi::harness {

/// The canonical spec text whose journal_spec_hash() keys checkpoint
/// journals and the result cache: meter, seed, suite roster, fault plane +
/// recovery policy, the `sweep=` value list, then the cluster config —
/// everything that determines a point's bytes, including its
/// position-keyed RNG streams. `faults` may be null (fault-free sweep);
/// `stuck_run_limit` is only recorded alongside faults. The only code that
/// builds spec key text; serve::spec_hash calls it for a sweep.
[[nodiscard]] std::string cache_spec_text(
    const sim::ClusterSpec& cluster, std::uint64_t seed, bool exact_meter,
    const SuiteConfig& suite, const FaultSpec* faults,
    std::size_t stuck_run_limit, const std::vector<std::size_t>& values);

/// One lookup's outcome: a PointStore load of the spec's shard.
using CacheLookup = StoreLoad;

/// Computes the points `pending` (increasing indices), handing each record
/// to `done` — a sink safe to call from any thread, in any order.
using RecordSink = std::function<void(PointRecord)>;
using PointCompute = std::function<void(
    const std::vector<std::size_t>& pending, const RecordSink& done)>;

/// A persistent, content-addressed store of completed sweep points.
class ResultCache {
 public:
  /// `directory` is created lazily on the first store().
  explicit ResultCache(std::string directory);

  /// Shard file for a spec: <directory>/<hash16>.tgij.
  [[nodiscard]] std::string shard_path(std::uint64_t spec_hash) const;

  /// Loads the spec's shard (PointStore::load, WARN prefix "cache:
  /// quarantined entry"). A missing shard is an empty (all-miss) lookup;
  /// damaged records — torn, bit-flipped, duplicated, foreign — are
  /// quarantined into `damage` and treated as misses. Never throws on bad
  /// bytes.
  [[nodiscard]] CacheLookup lookup(
      std::uint64_t spec_hash, const std::string& mode,
      const std::vector<std::size_t>& values) const;

  /// Publishes the spec's shard atomically (PointStore::publish): header +
  /// `records` in index order. `records` may be partial; the next lookup
  /// simply misses the rest. A store is a deterministic function of its
  /// arguments — the cache itself never merges.
  void store(std::uint64_t spec_hash, const std::string& mode,
             const std::vector<std::size_t>& values,
             std::map<std::size_t, PointRecord> records) const;

  /// The one shard policy: looks the shard up (as lookup()) and, unless
  /// every point hit cleanly, publishes the survivors, hands the misses to
  /// `compute`, appends each record `done` receives (a SIGKILL or throw
  /// loses only points in flight) and publishes the shard in index order.
  /// Returns every record plus the damage.
  [[nodiscard]] CacheLookup fill(std::uint64_t spec_hash,
                                 const std::string& mode,
                                 const std::vector<std::size_t>& values,
                                 const PointCompute& compute) const;

 private:
  std::string directory_;
};

}  // namespace tgi::harness
