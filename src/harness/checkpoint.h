// Crash-tolerant sweeps: a deterministic checkpoint/resume journal.
//
// The paper's methodology is a long measurement campaign — every suite
// benchmark, metered, at every scale — and the sweep engine multiplies it
// across dozens of points. A crash used to throw away every completed
// point. This module gives `ParallelSweep` an append-only, checksummed
// journal: one record per completed sweep point, written through a flushed
// append (the one output in this repo that cannot use temp+rename, because
// it must survive a SIGKILL *mid-sweep*, not just mid-write). On resume the
// journal is validated, completed points are replayed, and only the missing
// ones are recomputed — with the exact per-point RNG offsets the
// determinism contract (DESIGN.md §3b) already keys on the point index, so
// a killed-and-resumed sweep is byte-identical to an uninterrupted one at
// any thread count.
//
// Journal format (DESIGN.md §11): one record per line,
//
//   TGIJ1 <kind> <crc32-hex8> <payload>\n
//
// where <kind> is `header` or `point`, the CRC-32 (util/atomic_file.h)
// covers "<kind> <payload>", and the payload is `name=value` fields joined
// by US (0x1f). Values are percent-escaped (%, LF, CR, RS, US), so a
// record is always exactly one line; nested lists (trace events, metrics)
// join their escaped elements with RS (0x1e) before the field-level escape.
// Doubles that must round-trip bit-exactly ride either the measurement_io
// interchange CSV (17 significant digits) or C hexfloats.
//
// Trust policy: a record is either fully valid — magic, CRC, schema, and
// every embedded measurement re-validated — or it is quarantined with a
// logged reason and its point recomputed. A torn tail (SIGKILL mid-append
// leaves no trailing newline), a flipped bit, a duplicated or reordered
// record: none of them can silently corrupt a resumed figure. A journal
// whose header does not match the current run's spec hash throws —
// resuming under a different spec is a caller error, not damage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "harness/robust.h"
#include "harness/suite.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/units.h"

namespace tgi::harness {

/// FNV-1a 64-bit hash of a canonical spec string — the journal's guard
/// against resuming a sweep under a different cluster/seed/fault/suite
/// configuration, and the result cache's key. The canonical string is
/// harness::cache_spec_text (harness/cache.h), built for a sweep by
/// serve::spec_hash.
[[nodiscard]] std::uint64_t journal_spec_hash(std::string_view canonical_spec);

/// A spec hash as 16 lowercase hex digits: the journal header field, the
/// cache shard file name, and provenance all print it this way.
[[nodiscard]] std::string spec_hash_hex(std::uint64_t hash);

/// One quarantined journal line and why it was rejected.
struct JournalDamage {
  std::size_t line = 0;  ///< 1-based line number in the journal
  std::string reason;
};

/// One completed sweep point as journaled: enough to replay the point —
/// results, robust accounting, and the observability record — without
/// re-running it.
struct PointRecord {
  std::size_t index = 0;  ///< sweep point index (the RNG stream key)
  std::size_t value = 0;  ///< sweep value at that index (cross-check)
  SuitePoint point;       ///< processes, nodes, surviving measurements
  bool robust = false;
  std::vector<std::string> missing;  ///< robust only: dropped benchmarks
  PointCounters counters;            ///< robust only: recovery accounting
  bool traced = false;
  util::Seconds trace_now{0.0};  ///< recorder clock at point completion
  std::vector<obs::TraceEvent> events;
  std::vector<obs::Metric> trace_metrics;
};

/// Structural parse of a whole journal: the first valid header, every
/// structurally valid point record in file order (duplicates included),
/// and one JournalDamage entry per rejected line.
struct JournalContents {
  bool header_valid = false;
  std::uint64_t spec_hash = 0;
  std::string mode;  ///< "plain" | "robust"
  std::vector<std::size_t> values;
  std::vector<PointRecord> points;
  std::vector<std::size_t> point_lines;  ///< 1-based line of each point
  std::vector<JournalDamage> damage;
};

/// Serializes the header / a point record as one journal line (with the
/// trailing newline). Exposed for tests.
[[nodiscard]] std::string encode_header_record(
    std::uint64_t spec_hash, const std::string& mode,
    const std::vector<std::size_t>& values);
[[nodiscard]] std::string encode_point_record(const PointRecord& record);

/// Parses journal text. Never throws on damaged input: every rejected line
/// becomes a JournalDamage entry (checksum mismatch, torn tail, bad
/// schema, measurement rows that fail validation, ...). Exposed for the
/// corruption fuzz tests.
[[nodiscard]] JournalContents read_journal(const std::string& text);
[[nodiscard]] JournalContents read_journal_file(const std::string& path);

/// The semantic view of a parsed journal against the CURRENT run: the
/// deduplicated completed points (first valid record per index wins) plus
/// structural and semantic damage. Throws TgiError when the journal's
/// valid header disagrees with the current spec hash, mode, or sweep
/// values — that is a caller error, not quarantine. A missing or damaged
/// header quarantines the whole journal (every point recomputed).
struct JournalState {
  std::map<std::size_t, PointRecord> completed;
  std::vector<JournalDamage> damage;
  bool header_valid = false;
};
[[nodiscard]] JournalState reconcile_journal(
    const JournalContents& contents, std::uint64_t spec_hash,
    const std::string& mode, const std::vector<std::size_t>& values);

/// Builds the journal record for a freshly computed point. `recorder` may
/// be null (untraced sweep).
[[nodiscard]] PointRecord make_point_record(std::size_t index,
                                            std::size_t value,
                                            const SuitePoint& point,
                                            const obs::PointRecorder* recorder);
[[nodiscard]] PointRecord make_robust_point_record(
    std::size_t index, std::size_t value, const RobustSuitePoint& point,
    const obs::PointRecorder* recorder);

/// Replays a record's observability section into a fresh recorder: events
/// verbatim, metrics by kind, clock to the journaled value — so a resumed
/// trace merges byte-identically to the uninterrupted one. Requires
/// record.traced.
void restore_recorder(const PointRecord& record, obs::PointRecorder& recorder);

struct CheckpointConfig {
  std::string directory;  ///< journal lives at <directory>/journal.tgij
  bool resume = false;    ///< load completed points instead of starting over
};

/// The sweep engine's journal handle (ParallelSweepConfig::checkpoint).
///
/// Fresh mode truncates the journal and writes the header; resume mode
/// loads it (logging every quarantined record at WARN), then compacts it
/// atomically — header plus the surviving records in index order — so
/// accumulated damage and duplicates heal on every resume. `record` is
/// thread-safe: workers append-and-flush one complete line per finished
/// point, which a SIGKILL can only ever tear at the tail, where the
/// checksum catches it.
class CheckpointJournal {
 public:
  /// `mode` is "plain" (run/run_extended/run_with) or "robust"
  /// (run_robust); it is stamped into the header and must match on resume.
  CheckpointJournal(CheckpointConfig config, std::uint64_t spec_hash,
                    std::string mode, std::vector<std::size_t> values);

  [[nodiscard]] const std::string& journal_path() const {
    return journal_path_;
  }
  [[nodiscard]] const std::string& mode() const { return mode_; }
  [[nodiscard]] bool resuming() const { return config_.resume; }
  [[nodiscard]] const std::vector<std::size_t>& values() const {
    return values_;
  }

  /// Completed points loaded from the journal on resume.
  [[nodiscard]] std::size_t completed_count() const {
    return completed_.size();
  }
  [[nodiscard]] bool is_complete(std::size_t index) const;
  [[nodiscard]] const PointRecord& completed(std::size_t index) const;

  /// Quarantined records (structural + semantic), already logged at WARN.
  [[nodiscard]] const std::vector<JournalDamage>& damage() const {
    return damage_;
  }

  /// Appends one completed point and flushes. Thread-safe.
  void record(const PointRecord& record);

  /// Notes that point `index` was replayed from the journal; finalize()
  /// turns these into `point_resumed` trace events. Thread-safe.
  void note_resumed(std::size_t index, std::size_t value);

  /// Called by the sweep engine after the sweep completes. On resume,
  /// writes <directory>/resume.json — a Chrome-trace record (src/obs) with
  /// one `point_resumed` instant per replayed point. Deliberately a
  /// SEPARATE file: trace.json must stay byte-identical to an
  /// uninterrupted run, and which points resumed depends on where the
  /// previous run died.
  void finalize();

 private:
  CheckpointConfig config_;
  std::uint64_t spec_hash_ = 0;
  std::string mode_;
  std::vector<std::size_t> values_;
  std::string journal_path_;
  std::map<std::size_t, PointRecord> completed_;
  std::vector<JournalDamage> damage_;
  std::map<std::size_t, std::size_t> resumed_;  // index -> sweep value
  std::mutex mu_;
  // Append-mode on purpose: per-record CRCs replace rename atomicity so a
  // crash can only tear the final record, never the published prefix.
  std::ofstream out_;  // tgi-lint: allow(nonatomic-output-write)
};

}  // namespace tgi::harness
