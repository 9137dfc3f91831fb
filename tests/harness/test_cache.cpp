// The content-addressed result cache (DESIGN.md §13): store/lookup
// round-trips, partial shards, wholesale rejection of foreign shards, the
// fill policy (no write over a clean complete shard, misses only, each
// record banked as it arrives), and the fuzz-lite corruption sweep
// mirroring the checkpoint tests — a damaged cache may cost
// recomputation, never a wrong record, a served quarantine, or a crash.
#include "harness/cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/checkpoint.h"
#include "util/error.h"
#include "util/rng.h"

namespace tgi::harness {
namespace {

namespace fs = std::filesystem;

const std::vector<std::size_t> kSweep = {16, 48, 80, 128};
constexpr std::uint64_t kSpec = 0xcafef00d5eedULL;

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("tgi_cache_test_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  [[nodiscard]] std::string dir(const std::string& rel) const {
    return (root_ / rel).string();
  }

  [[nodiscard]] static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  static void spill(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  fs::path root_;
};

/// A traced synthetic record for sweep index `k` — the cache inherits the
/// journal trust policy, which quarantines untraced records as foreign.
PointRecord record_for(std::size_t k) {
  PointRecord record;
  record.index = k;
  record.value = kSweep[k];
  record.point.processes = kSweep[k];
  record.point.nodes = k + 1;
  core::BenchmarkMeasurement m;
  m.benchmark = "HPL";
  m.performance = 1000.0 + 0.0625 * static_cast<double>(k);
  m.metric_unit = "MFLOPS";
  m.average_power = util::watts(512.25 + static_cast<double>(k));
  m.execution_time = util::seconds(16.5);
  m.energy = util::joules(m.average_power.value() * 16.5);
  record.point.measurements.push_back(m);
  record.traced = true;
  record.trace_now = util::Seconds(16.5);
  obs::TraceEvent e;
  e.kind = obs::TraceEvent::Kind::kSpan;
  e.name = "HPL";
  e.category = "benchmark";
  e.benchmark = 0;
  e.attempt = 0;
  e.start = util::Seconds(0.0);
  e.duration = util::Seconds(16.5);
  record.events.push_back(e);
  record.trace_metrics.push_back(
      obs::Metric{"runs", obs::MetricKind::kCounter, 1.0});
  return record;
}

std::map<std::size_t, PointRecord> full_records() {
  std::map<std::size_t, PointRecord> records;
  for (std::size_t k = 0; k < kSweep.size(); ++k) {
    records.emplace(k, record_for(k));
  }
  return records;
}

TEST_F(CacheTest, MissingShardIsAnAllMissNotAnError) {
  const ResultCache cache(dir("cache"));
  const CacheLookup lookup = cache.lookup(kSpec, "plain", kSweep);
  EXPECT_TRUE(lookup.completed.empty());
  EXPECT_TRUE(lookup.damage.empty());
  for (std::size_t k = 0; k < kSweep.size(); ++k) {
    EXPECT_FALSE(lookup.hit(k));
  }
  // The cache directory is created lazily by store(), never by lookup().
  EXPECT_FALSE(fs::exists(dir("cache")));
}

TEST_F(CacheTest, StoreThenLookupRoundTripsBitExactly) {
  const ResultCache cache(dir("cache"));
  cache.store(kSpec, "plain", kSweep, full_records());
  const CacheLookup lookup = cache.lookup(kSpec, "plain", kSweep);
  EXPECT_TRUE(lookup.damage.empty());
  ASSERT_EQ(lookup.completed.size(), kSweep.size());
  for (std::size_t k = 0; k < kSweep.size(); ++k) {
    ASSERT_TRUE(lookup.hit(k));
    // Byte-level: the re-encoded record must be the exact line stored.
    EXPECT_EQ(encode_point_record(lookup.completed.at(k)),
              encode_point_record(record_for(k)));
  }
}

TEST_F(CacheTest, PartialShardMissesOnlyTheRest) {
  const ResultCache cache(dir("cache"));
  std::map<std::size_t, PointRecord> some;
  some.emplace(1, record_for(1));
  some.emplace(3, record_for(3));
  cache.store(kSpec, "plain", kSweep, some);
  const CacheLookup lookup = cache.lookup(kSpec, "plain", kSweep);
  EXPECT_TRUE(lookup.damage.empty());
  EXPECT_FALSE(lookup.hit(0));
  EXPECT_TRUE(lookup.hit(1));
  EXPECT_FALSE(lookup.hit(2));
  EXPECT_TRUE(lookup.hit(3));
}

TEST_F(CacheTest, StoreValidatesRecordIndices) {
  const ResultCache cache(dir("cache"));
  std::map<std::size_t, PointRecord> outside;
  outside.emplace(99, record_for(0));
  EXPECT_THROW(cache.store(kSpec, "plain", kSweep, outside), util::TgiError);
  std::map<std::size_t, PointRecord> mismatched;
  mismatched.emplace(0, record_for(2));  // record says index 2, key says 0
  EXPECT_THROW(cache.store(kSpec, "plain", kSweep, mismatched),
               util::TgiError);
}

TEST_F(CacheTest, ForeignShardIsQuarantinedWholesaleNeverServed) {
  const ResultCache cache(dir("cache"));
  cache.store(kSpec, "plain", kSweep, full_records());
  // A shard whose header disagrees with the spec implied by its own
  // filename is foreign or tampered: copying A's shard over B's path, or
  // asking for a different mode or value list, must serve NOTHING.
  fs::copy_file(cache.shard_path(kSpec), cache.shard_path(kSpec + 1));
  const CacheLookup foreign = cache.lookup(kSpec + 1, "plain", kSweep);
  EXPECT_TRUE(foreign.completed.empty());
  ASSERT_FALSE(foreign.damage.empty());
  EXPECT_NE(foreign.damage.back().reason.find("shard rejected"),
            std::string::npos);

  const CacheLookup wrong_mode = cache.lookup(kSpec, "robust", kSweep);
  EXPECT_TRUE(wrong_mode.completed.empty());
  EXPECT_FALSE(wrong_mode.damage.empty());

  const CacheLookup wrong_values = cache.lookup(kSpec, "plain", {16, 48});
  EXPECT_TRUE(wrong_values.completed.empty());
  EXPECT_FALSE(wrong_values.damage.empty());
}

TEST_F(CacheTest, CheckpointJournalIsTheCacheShardOfItsSpec) {
  // One key, one format, one store: a checkpoint that appended every point
  // (here in reverse completion order) and was published on completion is
  // byte for byte the shard the cache publishes for the same spec, and one
  // load serves either.
  const std::string checkpoint = ResultCache(dir("ckpt")).shard_path(kSpec);
  {
    PointStore journal(checkpoint, kSpec, "plain", kSweep);
    journal.publish({});
    const auto records = full_records();
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      journal.append(it->second);
    }
    journal.publish(journal.records());
  }
  const ResultCache cache(dir("cache"));
  cache.store(kSpec, "plain", kSweep, full_records());
  EXPECT_EQ(slurp(checkpoint), slurp(cache.shard_path(kSpec)));
  const CacheLookup loaded = ResultCache(dir("ckpt")).lookup(kSpec, "plain",
                                                             kSweep);
  EXPECT_EQ(loaded.completed.size(), kSweep.size());
  EXPECT_TRUE(loaded.damage.empty());

  // Loading that file as another spec's quarantines it wholesale.
  const CacheLookup foreign =
      PointStore(checkpoint, kSpec + 1, "plain", kSweep).load("test");
  EXPECT_TRUE(foreign.completed.empty());
  ASSERT_EQ(foreign.damage.size(), 1u);
  EXPECT_NE(foreign.damage[0].reason.find("written for a different sweep"),
            std::string::npos);
}

TEST_F(CacheTest, DamagedRecordsAreQuarantinedOthersStillServe) {
  const ResultCache cache(dir("cache"));
  cache.store(kSpec, "plain", kSweep, full_records());
  // Flip one byte inside the LAST record: that record quarantines, every
  // other record still serves bit-exactly.
  std::string text = slurp(cache.shard_path(kSpec));
  const std::size_t last = text.rfind("\nTGIJ1 point");
  ASSERT_NE(last, std::string::npos);
  text[last + 20] ^= 0x04;
  spill(cache.shard_path(kSpec), text);
  const CacheLookup lookup = cache.lookup(kSpec, "plain", kSweep);
  ASSERT_EQ(lookup.damage.size(), 1u);
  EXPECT_EQ(lookup.completed.size(), kSweep.size() - 1);
  EXPECT_FALSE(lookup.hit(kSweep.size() - 1));
  for (std::size_t k = 0; k + 1 < kSweep.size(); ++k) {
    ASSERT_TRUE(lookup.hit(k));
    EXPECT_EQ(encode_point_record(lookup.completed.at(k)),
              encode_point_record(record_for(k)));
  }
}

TEST_F(CacheTest, DuplicateRecordsServeTheFirstValidCopy) {
  const ResultCache cache(dir("cache"));
  cache.store(kSpec, "plain", kSweep, full_records());
  std::string text = slurp(cache.shard_path(kSpec));
  // Append a duplicate of the first point record: quarantined as a
  // duplicate, the first valid copy wins (journal resume semantics).
  const std::size_t first = text.find("\nTGIJ1 point");
  ASSERT_NE(first, std::string::npos);
  const std::size_t end = text.find('\n', first + 1);
  text += text.substr(first + 1, end - first);
  spill(cache.shard_path(kSpec), text);
  const CacheLookup lookup = cache.lookup(kSpec, "plain", kSweep);
  ASSERT_EQ(lookup.damage.size(), 1u);
  EXPECT_NE(lookup.damage.back().reason.find("duplicate"),
            std::string::npos);
  EXPECT_EQ(lookup.completed.size(), kSweep.size());
}

TEST_F(CacheTest, RestoreHealsDamageOnTheNextStore) {
  const ResultCache cache(dir("cache"));
  cache.store(kSpec, "plain", kSweep, full_records());
  std::string text = slurp(cache.shard_path(kSpec));
  text[text.size() / 2] ^= 0x20;
  spill(cache.shard_path(kSpec), text);
  const CacheLookup damaged = cache.lookup(kSpec, "plain", kSweep);
  EXPECT_FALSE(damaged.damage.empty());
  // The campaign engine recomputes misses and stores hits ∪ fresh — after
  // which the shard must be pristine again.
  cache.store(kSpec, "plain", kSweep, full_records());
  const CacheLookup healed = cache.lookup(kSpec, "plain", kSweep);
  EXPECT_TRUE(healed.damage.empty());
  EXPECT_EQ(healed.completed.size(), kSweep.size());
}

// --------------------------------------------------------------- fill policy

/// A fill compute that serves record_for(k) for every pending k and counts
/// what it was asked for.
PointCompute serve_records(std::vector<std::size_t>& asked) {
  return [&asked](const std::vector<std::size_t>& pending,
                  const RecordSink& done) {
    asked.insert(asked.end(), pending.begin(), pending.end());
    for (const std::size_t k : pending) done(record_for(k));
  };
}

TEST_F(CacheTest, FillOverACleanCompleteShardWritesNothing) {
  const ResultCache cache(dir("cache"));
  cache.store(kSpec, "plain", kSweep, full_records());
  const std::string path = cache.shard_path(kSpec);
  const fs::file_time_type past =
      fs::last_write_time(path) - std::chrono::hours(24 * 365);
  fs::last_write_time(path, past);
  const std::string bytes = slurp(path);
  std::vector<std::size_t> asked;
  const CacheLookup filled =
      cache.fill(kSpec, "plain", kSweep, serve_records(asked));
  EXPECT_TRUE(asked.empty());
  EXPECT_TRUE(filled.damage.empty());
  EXPECT_EQ(filled.completed.size(), kSweep.size());
  EXPECT_EQ(slurp(path), bytes);
  EXPECT_EQ(fs::last_write_time(path), past);
}

TEST_F(CacheTest, FillComputesOnlyMissesAndPublishesInIndexOrder) {
  const ResultCache cache(dir("cache"));
  cache.store(kSpec, "plain", kSweep, {{3, record_for(3)}, {1, record_for(1)}});
  std::vector<std::size_t> asked;
  const CacheLookup filled =
      cache.fill(kSpec, "plain", kSweep, serve_records(asked));
  EXPECT_EQ(asked, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(filled.completed.size(), kSweep.size());
  const ResultCache reference(dir("reference"));
  reference.store(kSpec, "plain", kSweep, full_records());
  EXPECT_EQ(slurp(cache.shard_path(kSpec)),
            slurp(reference.shard_path(kSpec)));
}

TEST_F(CacheTest, FillBanksEachRecordAsItArrives) {
  // What a SIGKILL mid-compute finds on disk: every point `done` received
  // so far, already in the shard.
  const ResultCache cache(dir("cache"));
  std::vector<std::size_t> banked_before_next;
  EXPECT_THROW(
      (void)cache.fill(
          kSpec, "plain", kSweep,
          [&cache, &banked_before_next](const std::vector<std::size_t>& pending,
                                        const RecordSink& done) {
            for (const std::size_t k : pending) {
              banked_before_next.push_back(
                  cache.lookup(kSpec, "plain", kSweep).completed.size());
              if (k == 2) throw util::TgiError("killed");
              done(record_for(k));
            }
          }),
      util::TgiError);
  EXPECT_EQ(banked_before_next, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(cache.lookup(kSpec, "plain", kSweep).completed.size(), 2u);
}

TEST_F(CacheTest, FillCompactsADamagedCompleteShardWithoutComputing) {
  const ResultCache cache(dir("cache"));
  cache.store(kSpec, "plain", kSweep, full_records());
  const std::string pristine = slurp(cache.shard_path(kSpec));
  // A duplicated record: every point still hits, but the shard is damaged.
  spill(cache.shard_path(kSpec),
        pristine + encode_point_record(record_for(0)));
  std::vector<std::size_t> asked;
  const CacheLookup filled =
      cache.fill(kSpec, "plain", kSweep, serve_records(asked));
  EXPECT_TRUE(asked.empty());
  EXPECT_EQ(filled.damage.size(), 1u);
  EXPECT_EQ(slurp(cache.shard_path(kSpec)), pristine);
}

TEST_F(CacheTest, FillThrowsWhenComputeSkipsAPoint) {
  const ResultCache cache(dir("cache"));
  EXPECT_THROW((void)cache.fill(kSpec, "plain", kSweep,
                                [](const std::vector<std::size_t>& pending,
                                   const RecordSink& done) {
                                  done(record_for(pending.front()));
                                }),
               util::TgiError);
  EXPECT_EQ(cache.lookup(kSpec, "plain", kSweep).completed.size(), 1u);
}

// ---------------------------------------------------------------- fuzz-lite

TEST_F(CacheTest, FuzzedShardsNeverServeDamageAndNeverThrow) {
  const ResultCache cache(dir("cache"));
  cache.store(kSpec, "plain", kSweep, full_records());
  const std::string pristine = slurp(cache.shard_path(kSpec));
  // Reference encodings: anything a fuzzed lookup serves must be one of
  // these exact lines — damage may cost hits, never alter a served record.
  std::vector<std::string> canonical;
  for (std::size_t k = 0; k < kSweep.size(); ++k) {
    canonical.push_back(encode_point_record(record_for(k)));
  }
  util::Xoshiro256 rng(0xd1ce5eedULL);
  const auto rand_index = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  for (int trial = 0; trial < 80; ++trial) {
    std::string text = pristine;
    switch (trial % 5) {
      case 0:  // torn tail
        text = text.substr(0, rand_index(text.size()) + 1);
        break;
      case 1:  // random bit flip
        text[rand_index(text.size())] ^=
            static_cast<char>(1u << rand_index(8));
        break;
      case 2: {  // duplicate a random line
        std::vector<std::string> lines;
        std::istringstream in(text);
        for (std::string line; std::getline(in, line);) lines.push_back(line);
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                         rand_index(lines.size())),
                     lines[rand_index(lines.size())]);
        text.clear();
        for (const std::string& line : lines) text += line + "\n";
        break;
      }
      case 3:  // overwrite a random byte with garbage
        text[rand_index(text.size())] =
            static_cast<char>(rng.next() % 256);
        break;
      case 4:  // garbage prepended before the header
        text = "not a journal\n" + text;
        break;
    }
    spill(cache.shard_path(kSpec), text);
    // Never throws; anything served is byte-exact.
    const CacheLookup lookup = cache.lookup(kSpec, "plain", kSweep);
    for (const auto& [k, record] : lookup.completed) {
      ASSERT_LT(k, canonical.size()) << "trial " << trial;
      EXPECT_EQ(encode_point_record(record), canonical[k])
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace tgi::harness
