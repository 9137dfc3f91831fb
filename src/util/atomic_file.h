// Crash-consistent file output: temp-file + rename atomic writes, plus the
// CRC-32 checksum the checkpoint journal stamps on its records and the
// whole-file read that loads what these writes publish.
//
// Every artifact this repository publishes (figure CSVs, measurement
// interchange files, trace.json, the sweep summaries) used to be written
// through a bare std::ofstream — a crash or ENOSPC mid-write would leave a
// torn file that downstream tools might half-parse. This module gives the
// repo one audited write path with all-or-nothing semantics: content is
// staged in memory (or in a sibling temp file), flushed, and atomically
// renamed over the destination, so readers only ever observe the old bytes
// or the complete new bytes. The tgi-lint `nonatomic-output-write` rule
// keeps src/harness, src/obs and tools/ on this path mechanically.
//
// The one output that cannot use rename — the append-only checkpoint
// journal (harness/checkpoint.h) — gets crash consistency from per-record
// CRC-32 checksums instead: a torn tail record fails its checksum and is
// quarantined on read. The checksum primitive lives here so both halves of
// the durability story share one implementation.
//
// Durability contract. Both paths flush to the kernel and never fsync. A
// publication (the rename) or a journal append that has returned survives
// a crash of this process — SIGKILL included — and is seen whole by any
// concurrent process: readers observe old-or-new bytes, never a torn
// artifact, and at worst one torn journal tail record, which its CRC
// quarantines. Neither survives an OS crash or a power loss: the kernel
// may not have written the data, or the rename, to disk yet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace tgi::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320 — the zip/PNG
/// checksum). Deterministic across platforms; used for journal records.
/// `prior` continues a checksum zlib-style: crc32(b, crc32(a)) equals
/// crc32 of a followed by b, so pieces need not be concatenated first.
/// On x86-64 hosts with PCLMULQDQ (checked once per process), inputs of 64
/// bytes or more fold 16-byte blocks by carry-less multiplication; the
/// tail, short inputs and other hosts take the slicing-by-8 table loop.
[[nodiscard]] std::uint32_t crc32(std::string_view data,
                                  std::uint32_t prior = 0);

namespace detail {
/// crc32() by the slicing-by-8 loop alone, whatever the host: the path a
/// host without PCLMULQDQ takes, exposed so tests can compare both paths.
[[nodiscard]] std::uint32_t crc32_portable(std::string_view data,
                                           std::uint32_t prior = 0);
}  // namespace detail

/// Reads an open descriptor (a file, a pipe) to end of file, retrying
/// EINTR and short reads; `size_hint` sizes the first read (a file's fstat
/// size) and the buffer grows past it for as long as bytes keep coming.
/// Throws TgiError on a read error (EISDIR for a directory, say).
[[nodiscard]] std::string read_to_end(int fd, std::size_t size_hint = 0);

/// The whole file at `path`: one open, one fstat, then read_to_end. The
/// bytes are the opened file's, whole, even when another file is renamed
/// over `path` meanwhile. std::nullopt when nothing exists at `path`
/// (ENOENT); any other failure throws TgiError.
[[nodiscard]] std::optional<std::string> read_file_if_exists(
    const std::string& path);

/// "<pid>.<n>", with n a process-wide counter: no two calls in one
/// process, and no two live processes, return the same token. Names built
/// from it (staging files, per-run scratch directories) belong to one
/// writer even when several writers share a directory.
[[nodiscard]] std::string unique_token();

/// A fresh staging path for `path`: path + ".tmp." + unique_token(). Two
/// concurrent writers of one destination (two campaign engines sharing a
/// cache, in one process or two) therefore never share a staging file;
/// the last rename wins with complete bytes.
[[nodiscard]] std::string atomic_temp_path(const std::string& path);

/// Writes `content` to `path` with all-or-nothing semantics: stage into
/// the temp path, flush, then rename over the destination. Throws TgiError
/// on any failure (unopenable temp, short write, failed rename) after
/// removing the temp file — a previously existing file at `path` is left
/// byte-for-byte intact.
void atomic_write_file(const std::string& path, std::string_view content);

/// Stream-style atomic writer: accumulate output in memory, then commit()
/// performs the atomic write. Destruction without commit() abandons the
/// content and leaves any existing file at `path` untouched, so an emitter
/// that throws halfway through formatting can never tear its output.
///
///   util::AtomicFile out(path);
///   util::CsvWriter csv(out.stream());
///   csv.write_row({...});
///   out.commit();
class AtomicFile {
 public:
  explicit AtomicFile(std::string path);
  ~AtomicFile() = default;  // not committed => nothing touches `path`

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// The in-memory staging stream.
  [[nodiscard]] std::ostream& stream() { return buffer_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Atomically publishes the buffered content to path(). At most once.
  void commit();

 private:
  std::string path_;
  std::ostringstream buffer_;
  bool committed_ = false;
};

}  // namespace tgi::util
