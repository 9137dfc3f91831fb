#include "util/atomic_file.h"

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>

#include <unistd.h>

#include "util/error.h"
#include "util/io_faults.h"

namespace tgi::util {

namespace {

// Table-driven reflected CRC-32 (polynomial 0xEDB88320), built once at
// static-init time. Matches zlib's crc32(): crc32("123456789") == 0xCBF43926.
constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    table[n] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

}  // namespace

std::uint32_t crc32(std::string_view data) {
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const char ch : data) {
    const auto byte = static_cast<unsigned char>(ch);
    crc = kCrc32Table[(crc ^ byte) & 0xFFU] ^ (crc >> 8U);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::string unique_token() {
  static std::atomic<std::uint64_t> counter{0};
  return std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

std::string atomic_temp_path(const std::string& path) {
  return path + ".tmp." + unique_token();
}

void atomic_write_file(const std::string& path, std::string_view content) {
  TGI_REQUIRE(!path.empty(), "atomic_write_file: empty path");
  const std::string temp = atomic_temp_path(path);
  {
    // This IS the atomic writer; the ofstream targets the staging path,
    // never the destination.
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      throw TgiError("atomic_write_file: cannot open staging file '" + temp +
                     "' for '" + path + "'");
    }
    // Deterministic I/O fault injection (DESIGN.md §15): the fault hits
    // the STAGING write, so however it fails — torn prefix or nothing —
    // the rename never happens and the visible file keeps its old bytes.
    const IoFaultKind fault = next_io_fault();
    if (fault != IoFaultKind::kNone) {
      if (fault == IoFaultKind::kShortWrite) {
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size() / 2));
        out.flush();
      }
      out.close();
      std::remove(temp.c_str());
      throw TgiError(std::string("atomic_write_file: injected ") +
                     io_fault_name(fault) + " while staging '" + temp +
                     "' for '" + path + "'");
    }
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(temp.c_str());
      throw TgiError("atomic_write_file: short write to staging file '" +
                     temp + "' for '" + path + "'");
    }
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    throw TgiError("atomic_write_file: cannot rename '" + temp + "' over '" +
                   path + "'");
  }
}

AtomicFile::AtomicFile(std::string path) : path_(std::move(path)) {
  TGI_REQUIRE(!path_.empty(), "AtomicFile: empty path");
}

void AtomicFile::commit() {
  TGI_REQUIRE(!committed_, "AtomicFile: double commit for '" << path_ << "'");
  TGI_REQUIRE(buffer_.good(),
              "AtomicFile: staging stream failed for '" << path_ << "'");
  committed_ = true;
  atomic_write_file(path_, buffer_.str());
}

}  // namespace tgi::util
