#include "harness/cache.h"

#include <string_view>
#include <utility>

#include "sim/spec_io.h"
#include "util/error.h"

namespace tgi::harness {

std::string cache_spec_text(const sim::ClusterSpec& cluster,
                            std::uint64_t seed, bool exact_meter,
                            const SuiteConfig& suite, const FaultSpec* faults,
                            std::size_t stuck_run_limit,
                            const std::vector<std::size_t>& values) {
  std::string text;
  text += exact_meter ? "meter=model\n" : "meter=wattsup\n";
  text += "seed=";
  text += std::to_string(seed);
  text += "\nsuite=";
  bool first = true;
  for (const std::string& name : suite_benchmarks(suite)) {
    if (!first) text += ',';
    first = false;
    text += name;
  }
  text += '\n';
  if (faults != nullptr) {
    text += "faults=";
    text += fault_spec_summary(*faults);
    text += "\nstuck_run_limit=";
    text += std::to_string(stuck_run_limit);
    text += '\n';
  }
  // Point k's RNG streams are keyed on k's position in THIS list, so the
  // list is part of the point's identity.
  text += "sweep=";
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k != 0) text += ',';
    text += std::to_string(values[k]);
  }
  text += '\n';
  text += sim::cluster_to_config(cluster);
  return text;
}

ResultCache::ResultCache(std::string directory)
    : directory_(std::move(directory)) {
  TGI_REQUIRE(!directory_.empty(), "ResultCache needs a directory");
}

std::string ResultCache::shard_path(std::uint64_t spec_hash) const {
  constexpr std::string_view kSuffix = ".tgij";
  std::string path;
  path.reserve(directory_.size() + 1 + 16 + kSuffix.size());
  path += directory_;
  path += '/';
  append_spec_hash_hex(path, spec_hash);
  path += kSuffix;
  return path;
}

CacheLookup ResultCache::lookup(std::uint64_t spec_hash,
                                const std::string& mode,
                                const std::vector<std::size_t>& values) const {
  return PointStore::load(shard_path(spec_hash), spec_hash, mode, values,
                          "cache: quarantined entry");
}

void ResultCache::store(std::uint64_t spec_hash, const std::string& mode,
                        const std::vector<std::size_t>& values,
                        std::map<std::size_t, PointRecord> records) const {
  PointStore(shard_path(spec_hash), spec_hash, mode, values)
      .publish(std::move(records));
}

CacheLookup ResultCache::fill(std::uint64_t spec_hash,
                              const std::string& mode,
                              const std::vector<std::size_t>& values,
                              const PointCompute& compute) const {
  CacheLookup cached = lookup(spec_hash, mode, values);
  std::vector<std::size_t> pending;
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (!cached.hit(k)) pending.push_back(k);
  }
  if (pending.empty() && cached.damage.empty()) return cached;
  PointStore store(shard_path(spec_hash), spec_hash, mode, values);
  if (pending.empty()) {
    // Every point survived, but damage was quarantined: compact.
    store.publish(cached.completed);
    return cached;
  }
  // Appends land after a valid prefix: the survivors, republished.
  store.publish(std::move(cached.completed));
  compute(pending, [&store](PointRecord record) {
    store.append(std::move(record));
  });
  cached.completed = store.records();
  TGI_CHECK(cached.completed.size() == values.size(),
            "cache fill: points missing after compute");
  store.republish();
  return cached;
}

}  // namespace tgi::harness
