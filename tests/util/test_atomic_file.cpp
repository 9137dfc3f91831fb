// Atomic file writes: all-or-nothing semantics, CRC-32 correctness, whole-
// file reads, and the failed-write regression the checkpoint layer depends
// on (a write that cannot complete must leave the previous file
// byte-for-byte intact).
#include "util/atomic_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include <fcntl.h>
#include <unistd.h>

#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace tgi::util {
namespace {

namespace fs = std::filesystem;

/// Throwaway directory under the system temp dir, named per test so the
/// concurrently-run ctest processes never share a tree.
class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("tgi_atomic_file_test_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  [[nodiscard]] std::string path(const std::string& rel) const {
    return (root_ / rel).string();
  }

  /// Staging files (".tmp.<token>") left anywhere under the test root.
  [[nodiscard]] std::size_t staging_files() const {
    std::size_t count = 0;
    for (const auto& entry : fs::recursive_directory_iterator(root_)) {
      if (entry.path().filename().string().find(".tmp.") !=
          std::string::npos) {
        ++count;
      }
    }
    return count;
  }

  [[nodiscard]] static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  fs::path root_;
};

TEST(Crc32, MatchesIeeeTestVectors) {
  // The canonical check value for the reflected 0xEDB88320 polynomial.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32(std::string(1, '\0')), 0xD202EF8Du);
}

TEST(Crc32, BothPathsMatchTheBytewiseReference) {
  // The one-byte-at-a-time loop, against crc32() (folded from 64 bytes on
  // a PCLMULQDQ host) and the slicing-by-8 path alone: every length to
  // 4096 bytes (across the 8-, 16- and 64-byte block edges), every start
  // offset modulo 16, a random `prior`, and the input cut into two
  // chained pieces.
  const auto bytewise = [](std::string_view data, std::uint32_t prior) {
    std::uint32_t crc = prior ^ 0xFFFFFFFFU;
    for (const char ch : data) {
      crc ^= static_cast<unsigned char>(ch);
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1U) != 0 ? 0xEDB88320U ^ (crc >> 1U) : crc >> 1U;
      }
    }
    return crc ^ 0xFFFFFFFFU;
  };
  Xoshiro256 rng(0xC3C32);
  std::string bytes(4096 + 16, '\0');
  for (char& ch : bytes) ch = static_cast<char>(rng.next());
  for (std::size_t len = 0; len <= 4096; ++len) {
    const std::size_t start = len % 16;
    const std::string_view data(bytes.data() + start, len);
    const auto prior = static_cast<std::uint32_t>(rng.next());
    const std::uint32_t want = bytewise(data, prior);
    ASSERT_EQ(crc32(data, prior), want) << start << "+" << len;
    ASSERT_EQ(detail::crc32_portable(data, prior), want)
        << start << "+" << len;
    const std::size_t cut = rng.uniform_index(len + 1);
    ASSERT_EQ(crc32(data.substr(cut), crc32(data.substr(0, cut), prior)),
              want)
        << start << "+" << len << " cut at " << cut;
  }
  for (std::size_t start = 0; start < 16; ++start) {
    for (const std::size_t len : {15U, 16U, 17U, 63U, 64U, 65U, 79U, 80U,
                                  127U, 128U, 129U, 900U, 4080U}) {
      const std::string_view data(bytes.data() + start, len);
      ASSERT_EQ(crc32(data), bytewise(data, 0)) << start << "+" << len;
      ASSERT_EQ(detail::crc32_portable(data), bytewise(data, 0))
          << start << "+" << len;
    }
  }
}

TEST(Crc32, SensitiveToSingleBitFlips) {
  const std::string base = "benchmark,performance,unit\nhpl,1.5,GFLOPS\n";
  const std::uint32_t reference = crc32(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = base;
      flipped[i] = static_cast<char>(
          static_cast<unsigned char>(flipped[i]) ^ (1u << bit));
      EXPECT_NE(crc32(flipped), reference)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Crc32, ContinuesAcrossPieces) {
  const std::string text = "point index=3\x1fvalue=48\x1fmeasurements=";
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::string_view all(text);
    EXPECT_EQ(crc32(all.substr(cut), crc32(all.substr(0, cut))), crc32(text))
        << "cut at " << cut;
  }
  EXPECT_EQ(crc32("6789", crc32("12345")), 0xCBF43926u);
}

TEST_F(AtomicFileTest, ReadFileIfExistsReadsWholeFilesAndMissesMissingOnes) {
  EXPECT_FALSE(read_file_if_exists(path("absent.tgij")).has_value());
  const std::string big(100000, 'x');  // past any one-read buffer
  for (const std::string& content : {std::string(), std::string("a\n"),
                                     big}) {
    atomic_write_file(path("f"), content);
    const std::optional<std::string> got = read_file_if_exists(path("f"));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, content);
  }
  // Anything but a missing file is an error, not a miss.
  EXPECT_THROW((void)read_file_if_exists(root_.string()), TgiError);
}

TEST_F(AtomicFileTest, ReadToEndKeepsTheOpenedFileWhenAnotherIsRenamedOver) {
  const std::string target = path("shard.tgij");
  atomic_write_file(target, "old bytes, whole\n");
  const int fd = ::open(target.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  atomic_write_file(target, "new bytes, renamed over the path\n");
  EXPECT_EQ(read_to_end(fd, 4), "old bytes, whole\n");  // hint too small
  ::close(fd);
  EXPECT_EQ(*read_file_if_exists(target),
            "new bytes, renamed over the path\n");
}

TEST(ReadToEnd, ReadsAPipeThroughShortReads) {
  // A pipe has no size to hint and delivers at most what is buffered, so
  // the loop must keep reading until end of file.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string sent;
  for (int i = 0; i < 3000; ++i) sent += std::to_string(i) + ",";
  ASSERT_LT(sent.size(), 16384u);  // fits the pipe buffer: no writer thread
  ASSERT_EQ(::write(fds[1], sent.data(), sent.size()),
            static_cast<::ssize_t>(sent.size()));
  ::close(fds[1]);
  EXPECT_EQ(read_to_end(fds[0]), sent);
  ::close(fds[0]);
}

TEST_F(AtomicFileTest, WritesAndOverwrites) {
  const std::string target = path("out.csv");
  atomic_write_file(target, "first\n");
  EXPECT_EQ(slurp(target), "first\n");
  atomic_write_file(target, "second, longer content\n");
  EXPECT_EQ(slurp(target), "second, longer content\n");
  EXPECT_EQ(staging_files(), 0u);
}

TEST_F(AtomicFileTest, FailedWriteLeavesOldFileIntact) {
  // Regression for the checkpoint layer: a write whose staging file cannot
  // be opened — here the destination name leaves no room for the staging
  // suffix under NAME_MAX (255) — must leave the previously published
  // bytes untouched.
  const std::string target = path(std::string(250, 's') + ".csv");
  {
    std::ofstream old(target, std::ios::binary);
    old << "the old, good content\n";
  }
  EXPECT_THROW(atomic_write_file(target, "torn"), TgiError);
  EXPECT_EQ(slurp(target), "the old, good content\n");
  EXPECT_EQ(staging_files(), 0u);
}

TEST_F(AtomicFileTest, FailedWriteToMissingDirectoryCreatesNothing) {
  const std::string target = path("no_such_dir/out.csv");
  EXPECT_THROW(atomic_write_file(target, "content"), TgiError);
  EXPECT_FALSE(fs::exists(target));
  EXPECT_EQ(staging_files(), 0u);
}

TEST_F(AtomicFileTest, StreamCommitPublishes) {
  const std::string target = path("metrics.csv");
  AtomicFile out(target);
  out.stream() << "metric,value\n" << "tasks_executed," << 42 << "\n";
  EXPECT_FALSE(fs::exists(target)) << "nothing published before commit";
  out.commit();
  EXPECT_EQ(slurp(target), "metric,value\ntasks_executed,42\n");
}

TEST_F(AtomicFileTest, AbandonedWriterTouchesNothing) {
  const std::string target = path("trace.json");
  atomic_write_file(target, "{\"old\": true}\n");
  {
    AtomicFile out(target);
    out.stream() << "{\"half\": ";
    // Destroyed without commit(): the emitter threw mid-format.
  }
  EXPECT_EQ(slurp(target), "{\"old\": true}\n");
  EXPECT_EQ(staging_files(), 0u);
}

TEST_F(AtomicFileTest, StagingPathsAreUniquePerCall) {
  // Two writers of one destination must never share a staging file.
  const std::string target = path("shared.tgij");
  std::set<std::string> seen;
  for (int i = 0; i < 64; ++i) {
    const std::string temp = atomic_temp_path(target);
    EXPECT_EQ(temp.rfind(target + ".tmp.", 0), 0u) << temp;
    EXPECT_TRUE(seen.insert(temp).second) << temp;
  }
}

TEST_F(AtomicFileTest, ConcurrentWritersOfOneDestinationNeverTear) {
  // Every writer publishes complete bytes; whichever rename lands last
  // wins, and no staging file is left behind.
  const std::string target = path("shard.tgij");
  const std::string content(64 * 1024, 'x');
  ThreadPool pool(4);
  parallel_for(pool, 100, [&target, &content](std::size_t) {
    atomic_write_file(target, content);
  });
  EXPECT_EQ(slurp(target), content);
  EXPECT_EQ(staging_files(), 0u);
}

TEST_F(AtomicFileTest, DoubleCommitIsACallerBug) {
  AtomicFile out(path("once.txt"));
  out.stream() << "x";
  out.commit();
  EXPECT_THROW(out.commit(), PreconditionError);
}

TEST_F(AtomicFileTest, EmptyPathRejected) {
  EXPECT_THROW(atomic_write_file("", "x"), PreconditionError);
  EXPECT_THROW(AtomicFile(""), PreconditionError);
}

}  // namespace
}  // namespace tgi::util
