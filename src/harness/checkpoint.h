// The one point store (DESIGN.md §11): the journal record codec and the
// `.tgij` file handle behind every checkpoint, cache shard and
// `tgi_serve --worker` journal.
//
// Every measured sweep point is banked as one checksummed record. A
// PointStore is one journal file bound to one sweep (spec hash, mode,
// values) with three operations: `load` (never throws on bad bytes;
// quarantines damage), `append` (locked, flushed, I/O-fault-injected — it
// must survive a SIGKILL *mid-sweep*, so it cannot use temp+rename), and
// `publish` (header plus records in index order, atomically). Both writes
// refuse a record the decoder would quarantine, so a store never banks a
// point its own load would not serve back. A cache shard — which a
// `tgi_sweep checkpoint=DIR` directory holds too — is read, filled and
// republished only by harness::ResultCache::fill (harness/cache.h); the
// worker mode publishes an empty journal and appends to it. Replayed
// points keep the per-point RNG offsets the determinism contract
// (DESIGN.md §3b) keys on the point index, so a killed sweep rerun over its
// shard is byte-identical to an uninterrupted one at any thread count.
//
// Journal format v2: one record per line, `TGIJ2 <kind> <crc32-hex8>
// <payload>\n`. <kind> is `header` (v=2, spec, mode, values) or `point`;
// the CRC-32 (util/atomic_file.h) covers "<kind> <payload>" (computed piece
// by piece, never over a copy); the payload is `name=value` fields joined
// by US (0x1f), values percent-escaped (%, LF, CR, RS, US) so a record is
// one line, nested lists joining escaped elements with RS (0x1e). A plain
// point holds index, value, processes, nodes, the measurement CSV and
// robust=0 — its trace is derived (restore_recorder); a robust point adds
// its recovery accounting and its trace (now, events, metrics). Doubles
// ride the interchange CSV (17 significant digits) or C hexfloats,
// bit-exactly. A v1 line fails the magic check: quarantined, recomputed.
//
// Decoding is one pass over views of the file, read by one open, fstat and
// read loop (util::read_file_if_exists; a missing file is a miss): lines,
// US-separated fields and RS-separated list elements are std::string_views,
// only a value holding a '%' is unescaped (once, into a buffer reused
// across records), integers go through std::from_chars and doubles through
// util::parse_double — strtod's grammar without strtod — and the embedded
// CSV through the one measurement CSV parser (harness/measurement_io.h).
// Reconciling moves the records out.
//
// Trust policy: a record is either fully valid — magic, CRC, schema,
// strict numbers (digits-only integers that fit, finite doubles,
// non-negative clocks and durations), every embedded measurement
// re-validated — or it is quarantined with a logged reason and its point
// recomputed. A torn tail, a flipped bit, a duplicated or reordered record
// cannot silently corrupt a replayed figure. A valid header that names
// another spec, mode or value list makes the file foreign — since the file
// name is the spec hash, only tampering gets it there — and `load`
// quarantines it wholesale.
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

/// FNV-1a 64-bit hash of a canonical spec string — the key a PointStore
/// is bound to and the result cache's shard name, so a sweep never replays
/// points of another cluster/seed/fault/suite configuration. The canonical
/// string is harness::cache_spec_text (harness/cache.h), built for a sweep
/// by serve::spec_hash.
[[nodiscard]] std::uint64_t journal_spec_hash(std::string_view canonical_spec);

/// A spec hash as 16 lowercase hex digits: the journal header field, the
/// cache shard file name, and provenance all print it this way.
[[nodiscard]] std::string spec_hash_hex(std::uint64_t hash);
/// The same 16 digits, appended to `out`.
void append_spec_hash_hex(std::string& out, std::uint64_t hash);

/// One quarantined journal line and why it was rejected.
struct JournalDamage {
  std::size_t line = 0;  ///< 1-based line number in the journal
  std::string reason;
};

/// One completed sweep point as journaled: enough to replay the point —
/// results, robust accounting, and the observability record — without
/// re-running it. Only a robust record stores its trace.
struct PointRecord {
  std::size_t index = 0;  ///< sweep point index (the RNG stream key)
  std::size_t value = 0;  ///< sweep value at that index (cross-check)
  SuitePoint point;       ///< processes, nodes, surviving measurements
  bool robust = false;
  std::vector<std::string> missing;  ///< robust only: dropped benchmarks
  PointCounters counters;            ///< robust only: recovery accounting
  util::Seconds trace_now{0.0};  ///< robust only: recorder clock at the end
  std::vector<obs::TraceEvent> events;     ///< robust only
  std::vector<obs::Metric> trace_metrics;  ///< robust only
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
/// trailing newline). A plain record must carry no trace. Exposed for tests.
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
/// values (PointStore::load turns that into wholesale quarantine). A
/// missing or damaged header quarantines the whole journal (every point
/// recomputed).
struct JournalState {
  std::map<std::size_t, PointRecord> completed;
  std::vector<JournalDamage> damage;
  bool header_valid = false;
};
[[nodiscard]] JournalState reconcile_journal(
    const JournalContents& contents, std::uint64_t spec_hash,
    const std::string& mode, const std::vector<std::size_t>& values);
/// The same, moving the records out of `contents` instead of copying them.
/// Throws before it takes anything, so on a throw `contents` is intact.
[[nodiscard]] JournalState reconcile_journal(
    JournalContents&& contents, std::uint64_t spec_hash,
    const std::string& mode, const std::vector<std::size_t>& values);

/// Builds the journal record for a freshly computed plain point. The
/// recorder is not journaled — a plain point's trace is derived from its
/// measurements — and may be null.
[[nodiscard]] PointRecord make_point_record(std::size_t index,
                                            std::size_t value,
                                            const SuitePoint& point,
                                            const obs::PointRecorder* recorder);
/// The same for a robust point; its record stores the recorder's trace.
[[nodiscard]] PointRecord make_robust_point_record(
    std::size_t index, std::size_t value, const RobustSuitePoint& point,
    const obs::PointRecorder* recorder);

/// Replays a record's trace into a fresh recorder: a robust record's
/// events, metrics and clock verbatim; a plain record's derived from its
/// measurements, benchmark b recorded at context (b, 0) by
/// record_benchmark_run — what SuiteRunner recorded live, bit for bit.
void restore_recorder(const PointRecord& record, obs::PointRecorder& recorder);

/// A sweep's trace rebuilt from its records, merged by index; tgi_sweep,
/// campaigns and the bench harnesses emit it.
[[nodiscard]] obs::SweepTrace replay_trace(
    const std::map<std::size_t, PointRecord>& records);

/// One load of a PointStore: the valid completed points (first valid
/// record per index wins) and every quarantined record with its reason,
/// already logged at WARN.
struct StoreLoad {
  std::map<std::size_t, PointRecord> completed;
  std::vector<JournalDamage> damage;

  [[nodiscard]] bool hit(std::size_t index) const {
    return completed.find(index) != completed.end();
  }
};

/// One `.tgij` file bound to one sweep: spec hash, mode ("plain", or
/// "robust" for a faulted sweep) and sweep values. Only a PointStore
/// writes journal-format files; neither write banks a record load would
/// quarantine (the write throws first).
class PointStore {
 public:
  PointStore(std::string path, std::uint64_t spec_hash, std::string mode,
             std::vector<std::size_t> values);

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Reads the file against this binding. Never throws on bad bytes: a
  /// missing file is an empty load; damaged records, an unreadable file and
  /// a valid header for another spec, mode or value list are quarantined
  /// into `damage`, each logged at WARN as "<warn_prefix> (<path> line N):
  /// <reason>".
  [[nodiscard]] StoreLoad load(const char* warn_prefix) const;
  /// load() of the file at `path` against (spec_hash, mode, values),
  /// without a handle that copies them: a read-only lookup.
  [[nodiscard]] static StoreLoad load(const std::string& path,
                                      std::uint64_t spec_hash,
                                      const std::string& mode,
                                      const std::vector<std::size_t>& values,
                                      const char* warn_prefix);

  /// Atomically replaces the file (util::AtomicFile; the directory is
  /// created) with the header plus `records` in index order. `records` may
  /// be partial. They become records().
  void publish(std::map<std::size_t, PointRecord> records);

  /// Appends one record and flushes. Thread-safe; needs a prior publish.
  /// Deterministic I/O fault injection (util/io_faults.h) can tear or
  /// abort the append, which throws; the per-record CRC quarantines a torn
  /// tail on the next load. The record joins records().
  void append(PointRecord record);

  /// Publishes records() again, atomically and in index order, from the
  /// lines publish and append already encoded and checked: the bytes
  /// publish(records()) would write, without encoding anything twice.
  /// Needs a prior publish; not safe while appends are in flight.
  void republish();

  /// Every record this handle has published or appended since, by index.
  /// Not safe to call while appends are in flight.
  [[nodiscard]] const std::map<std::size_t, PointRecord>& records() const {
    return records_;
  }

 private:
  /// The record's journal line; throws for any damage load would
  /// quarantine it for — the read side's own rule, run on the line.
  [[nodiscard]] std::string encode_checked(std::size_t index,
                                           const PointRecord& record) const;
  /// Atomically replaces the file with the header plus `lines`. Needs mu_.
  void write_lines(const std::map<std::size_t, std::string>& lines);

  std::string path_;
  std::uint64_t spec_hash_ = 0;
  std::string mode_;
  std::vector<std::size_t> values_;
  std::map<std::size_t, PointRecord> records_;
  std::map<std::size_t, std::string> lines_;  ///< records_' checked lines
  bool published_ = false;
  std::mutex mu_;
  // Append-mode on purpose: per-record CRCs replace rename atomicity so a
  // crash can only tear the final record, never the published prefix.
  std::ofstream out_;  // tgi-lint: allow(nonatomic-output-write)
};

}  // namespace tgi::harness
