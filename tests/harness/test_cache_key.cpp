// Cache-key canonicalization (DESIGN.md §13): cache_spec_text is the one
// canonicalizer keying checkpoint journals and the result cache, so its
// FNV-1a digests are pinned — accidental drift silently invalidates every
// cache on disk — and near-miss specs (seed±1, a fault-rate tick or ulp, a
// cluster double past 6 decimals or one ulp off, a reordered or extended
// sweep list) must always map to distinct keys.
#include "harness/cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "harness/checkpoint.h"
#include "harness/faults.h"
#include "sim/catalog.h"
#include "sim/machine.h"

namespace tgi::harness {
namespace {

const std::vector<std::size_t> kSweep = {16, 48, 80, 128};

std::uint64_t key(const sim::ClusterSpec& cluster, std::uint64_t seed,
                  bool exact_meter, const FaultSpec* faults,
                  std::size_t stuck_run_limit,
                  const std::vector<std::size_t>& values) {
  return journal_spec_hash(cache_spec_text(cluster, seed, exact_meter, {},
                                           faults, stuck_run_limit, values));
}

FaultSpec mild_faults() {
  FaultSpec spec;
  spec.dropout_burst_rate = 0.2;
  spec.failure_rate = 0.05;
  return spec;
}

TEST(CacheKey, TextPinsEveryIdentityInput) {
  const std::string text = cache_spec_text(sim::fire_cluster(), 7, false, {},
                                           nullptr, 0, {16, 48});
  // Layout: meter, seed, suite roster, sweep values, then the cluster
  // config verbatim. This one text keys checkpoint journals and cache
  // shards alike, and it includes `sweep=` (point k's RNG streams key on
  // k's position in the list).
  EXPECT_EQ(text.rfind("meter=wattsup\nseed=7\nsuite=", 0), 0u) << text;
  EXPECT_NE(text.find("\nsweep=16,48\n"), std::string::npos) << text;
  EXPECT_NE(text.find("Fire"), std::string::npos) << text;
  EXPECT_EQ(text.find("faults="), std::string::npos) << text;

  const FaultSpec faults = mild_faults();
  const std::string faulted = cache_spec_text(sim::fire_cluster(), 7, false,
                                              {}, &faults, 8, {16, 48});
  EXPECT_NE(faulted.find("\nfaults="), std::string::npos) << faulted;
  EXPECT_NE(faulted.find("\nstuck_run_limit=8\n"), std::string::npos)
      << faulted;

  const std::string exact = cache_spec_text(sim::fire_cluster(), 7, true, {},
                                            nullptr, 0, {16, 48});
  EXPECT_EQ(exact.rfind("meter=model\n", 0), 0u) << exact;
}

TEST(CacheKey, DigestsArePinned) {
  // Default-constructed cluster: structural defaults, not paper-shape
  // tuning, so these digests only move when the canonicalizer (or the
  // spec serialization it embeds) changes — which is exactly the drift
  // this test exists to catch. Regenerate deliberately, never casually:
  // every cache on disk dies with the old constants. Their last change
  // made the key exact (shortest round-trip doubles instead of 6 decimals
  // for the cluster and 6 significant digits for fault rates): a shard
  // under an old key is never looked up again, so it misses — it is never
  // served for a spec it does not describe.
  const sim::ClusterSpec generic;
  EXPECT_EQ(key(generic, 7, false, nullptr, 0, kSweep),
            0xb6aa09b09ac1f564ULL);
  EXPECT_EQ(key(generic, 7, true, nullptr, 0, kSweep),
            0xde2bbf86576f7eddULL);
  const FaultSpec faults = mild_faults();
  EXPECT_EQ(key(generic, 7, false, &faults, 8, kSweep),
            0x11ad107e75c01454ULL);
}

TEST(CacheKey, SameSpecAlwaysProducesTheSameKey) {
  const std::uint64_t first =
      key(sim::fire_cluster(), 7, false, nullptr, 0, kSweep);
  const std::uint64_t second =
      key(sim::fire_cluster(), 7, false, nullptr, 0, kSweep);
  EXPECT_EQ(first, second);
}

TEST(CacheKey, NearMissSpecsAreAlwaysDistinct) {
  const FaultSpec faults = mild_faults();
  FaultSpec ticked = faults;
  ticked.dropout_burst_rate = 0.25;  // one fault-rate tick
  FaultSpec seventh = faults;
  seventh.failure_rate = 0.0500001;  // past a 6-significant-digit summary
  FaultSpec ulp = faults;
  ulp.failure_rate = std::nextafter(faults.failure_rate, 1.0);
  sim::ClusterSpec ghz = sim::fire_cluster();
  ghz.node.cpu.ghz = 2.3000004;  // past 6 decimals
  sim::ClusterSpec bandwidth = sim::fire_cluster();
  bandwidth.node.memory_bandwidth = util::ByteRate(
      std::nextafter(bandwidth.node.memory_bandwidth.value(), 0.0));
  std::vector<std::uint64_t> keys;
  keys.push_back(key(sim::fire_cluster(), 7, false, nullptr, 0, kSweep));
  keys.push_back(key(sim::fire_cluster(), 6, false, nullptr, 0, kSweep));
  keys.push_back(key(sim::fire_cluster(), 8, false, nullptr, 0, kSweep));
  keys.push_back(key(sim::fire_cluster(), 7, true, nullptr, 0, kSweep));
  keys.push_back(key(sim::system_g(), 7, false, nullptr, 0, kSweep));
  keys.push_back(key(sim::fire_cluster(), 7, false, &faults, 8, kSweep));
  keys.push_back(key(sim::fire_cluster(), 7, false, &faults, 0, kSweep));
  keys.push_back(key(sim::fire_cluster(), 7, false, &ticked, 8, kSweep));
  keys.push_back(key(sim::fire_cluster(), 7, false, &seventh, 8, kSweep));
  keys.push_back(key(sim::fire_cluster(), 7, false, &ulp, 8, kSweep));
  keys.push_back(key(ghz, 7, false, nullptr, 0, kSweep));
  keys.push_back(key(bandwidth, 7, false, nullptr, 0, kSweep));
  const std::set<std::uint64_t> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size());
}

TEST(CacheKey, SweepListIsPartOfThePointIdentity) {
  // Point k's RNG streams key on its position: the same value in a
  // different list position is a DIFFERENT point, so any change to the
  // list — order, length, membership — must change the key.
  std::vector<std::uint64_t> keys;
  for (const std::vector<std::size_t>& values :
       {std::vector<std::size_t>{16, 48}, {48, 16}, {16, 48, 80}, {16},
        {48}}) {
    keys.push_back(key(sim::fire_cluster(), 7, false, nullptr, 0, values));
  }
  const std::set<std::uint64_t> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size());
}

}  // namespace
}  // namespace tgi::harness
