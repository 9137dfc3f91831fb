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

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// Advances the (pre-inverted) CRC register over `n` bytes, slicing-by-8.
std::uint32_t crc32_sliced(std::uint32_t crc, const unsigned char* p,
                           std::size_t n) {
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
  return crc;
}

#if defined(__x86_64__)

/// Shortest input worth folding: four 16-byte lanes to start from.
constexpr std::size_t kFoldMin = 64;

__attribute__((target("pclmul"))) __m128i load16(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Moves `lane` forward by the distance `k` encodes and adds `next`:
/// lane.lo * k.lo ^ lane.hi * k.hi ^ next.
__attribute__((target("pclmul"))) __m128i fold16(__m128i lane, __m128i k,
                                                   __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

/// Advances the (pre-inverted) CRC register over `n` bytes, n >= kFoldMin
/// and a multiple of 16, by carry-less-multiply folding: Gopal et al.,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009), in its bit-reflected form. Four 128-bit
/// lanes fold 64 bytes per step, fold into one lane, which folds the
/// remaining 16-byte blocks, then reduces to 64 and 32 bits and finishes
/// with a Barrett reduction. The constants are x^k mod P(x), bit-reflected
/// and shifted left by one, for the paper's k: 4*128+-32 (64-byte fold),
/// 128+-32 (16-byte fold) and 64; then mu = floor(x^64 / P(x)) and P(x).
__attribute__((target("pclmul"))) std::uint32_t crc32_folded(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i mu_poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold16(x1, k1k2, load16(p));
    x2 = fold16(x2, k1k2, load16(p + 16));
    x3 = fold16(x3, k1k2, load16(p + 32));
    x4 = fold16(x4, k1k2, load16(p + 48));
  }
  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold16(x1, k3k4, load16(p));

  // 128 -> 64 bits, then 64 -> 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett: q = (x mod x^32) * mu, then x ^= (q mod x^32) * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), mu_poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), mu_poly, 0x00);
  x1 = _mm_xor_si128(x1, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

/// Whether this CPU has PCLMULQDQ: asked once per process.
bool have_pclmul() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return have;
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32_portable(std::string_view data, std::uint32_t prior) {
  return crc32_sliced(prior ^ 0xFFFFFFFFU,
                      reinterpret_cast<const unsigned char*>(data.data()),
                      data.size()) ^
         0xFFFFFFFFU;
}

}  // namespace detail

std::uint32_t crc32(std::string_view data, std::uint32_t prior) {
  std::uint32_t crc = prior ^ 0xFFFFFFFFU;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
#if defined(__x86_64__)
  if (n >= kFoldMin && have_pclmul()) {
    const std::size_t folded = n & ~std::size_t{15};
    crc = crc32_folded(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return crc32_sliced(crc, p, n) ^ 0xFFFFFFFFU;
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
    // Deterministic I/O fault injection (DESIGN.md §11): the fault hits
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
