#include "util/atomic_file.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/error.h"
#include "util/io_faults.h"

namespace tgi::util {

namespace {

// Reflected CRC-32 (polynomial 0xEDB88320), slicing-by-8: table k maps a
// byte to its CRC contribution k bytes before the end of an 8-byte block,
// so one block costs eight independent lookups instead of a chain of eight.
// Built at compile time. Matches zlib's crc32(): crc32("123456789") ==
// 0xCBF43926.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    t[0][n] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t n = 0; n < 256; ++n) {
      t[k][n] = (t[k - 1][n] >> 8U) ^ t[0][t[k - 1][n] & 0xFFU];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32 = make_crc32_tables();

/// Four bytes as a little-endian word, on any host.
std::uint32_t le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8U) |
         (static_cast<std::uint32_t>(p[2]) << 16U) |
         (static_cast<std::uint32_t>(p[3]) << 24U);
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t prior) {
  std::uint32_t crc = prior ^ 0xFFFFFFFFU;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t a = crc ^ le32(p);
    crc = kCrc32[7][a & 0xFFU] ^ kCrc32[6][(a >> 8U) & 0xFFU] ^
          kCrc32[5][(a >> 16U) & 0xFFU] ^ kCrc32[4][a >> 24U] ^
          kCrc32[3][p[4]] ^ kCrc32[2][p[5]] ^ kCrc32[1][p[6]] ^
          kCrc32[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    crc = kCrc32[0][(crc ^ *p) & 0xFFU] ^ (crc >> 8U);
  }
  return crc ^ 0xFFFFFFFFU;
}

namespace {

/// Closes a descriptor on every path out of a scope.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

}  // namespace

std::string read_to_end(int fd, std::size_t size_hint) {
  // One byte past the hint, so a file of exactly that size ends in a
  // zero-byte read rather than a grow.
  std::string text(size_hint + 1, '\0');
  std::size_t got = 0;
  while (true) {
    if (got == text.size()) text.resize(std::max<std::size_t>(2 * got, 4096));
    const ::ssize_t n = ::read(fd, text.data() + got, text.size() - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      throw TgiError(std::string("read failed: ") + std::strerror(errno));
    }
  }
  text.resize(got);
  return text;
}

std::optional<std::string> read_file_if_exists(const std::string& path) {
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw TgiError("cannot open '" + path + "': " + std::strerror(errno));
  }
  const FdCloser closer(fd);
  struct ::stat st {};
  const std::size_t size =
      ::fstat(fd, &st) == 0 && st.st_size > 0
          ? static_cast<std::size_t>(st.st_size)
          : 0;
  try {
    return read_to_end(fd, size);
  } catch (const TgiError& e) {
    throw TgiError("cannot read '" + path + "': " + e.what());
  }
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
