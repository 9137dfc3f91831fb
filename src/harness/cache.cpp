#include "harness/cache.h"

#include <filesystem>
#include <utility>

#include "sim/spec_io.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/log.h"

namespace tgi::harness {

std::string cache_spec_text(const sim::ClusterSpec& cluster,
                            std::uint64_t seed, bool exact_meter,
                            const SuiteConfig& suite, const FaultSpec* faults,
                            std::size_t stuck_run_limit,
                            const std::vector<std::size_t>& values) {
  std::string text;
  text += "meter=" + std::string(exact_meter ? "model" : "wattsup") + "\n";
  text += "seed=" + std::to_string(seed) + "\n";
  std::string roster;
  for (const std::string& name : suite_benchmarks(suite)) {
    if (!roster.empty()) roster += ',';
    roster += name;
  }
  text += "suite=" + roster + "\n";
  if (faults != nullptr) {
    text += "faults=" + fault_spec_summary(*faults) + "\n";
    text += "stuck_run_limit=" + std::to_string(stuck_run_limit) + "\n";
  }
  // Point k's RNG streams are keyed on k's position in THIS list, so the
  // list is part of the point's identity.
  std::string sweep;
  for (const std::size_t value : values) {
    if (!sweep.empty()) sweep += ',';
    sweep += std::to_string(value);
  }
  text += "sweep=" + sweep + "\n";
  text += sim::cluster_to_config(cluster);
  return text;
}

CacheLookup load_journal(const std::string& path, std::uint64_t spec_hash,
                         const std::string& mode,
                         const std::vector<std::size_t>& values,
                         const char* warn_prefix) {
  CacheLookup out;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return out;
  JournalContents contents;
  try {
    contents = read_journal_file(path);
    JournalState state = reconcile_journal(contents, spec_hash, mode, values);
    out.completed = std::move(state.completed);
    out.damage = std::move(state.damage);
  } catch (const util::TgiError& ex) {
    // Unreadable (raced away), or a VALID header that contradicts the
    // spec. For a resume journal the latter is a caller error; here the
    // caller chose the path for this spec, so the journal is foreign or
    // tampered — quarantine it wholesale and recompute.
    out.completed.clear();
    out.damage = std::move(contents.damage);
    out.damage.push_back(
        JournalDamage{0, std::string("shard rejected: ") + ex.what()});
  }
  for (const JournalDamage& d : out.damage) {
    TGI_LOG_WARN(warn_prefix << " (" << path << " line " << d.line
                             << "): " << d.reason);
  }
  return out;
}

ResultCache::ResultCache(std::string directory)
    : directory_(std::move(directory)) {
  TGI_REQUIRE(!directory_.empty(), "ResultCache needs a directory");
}

std::string ResultCache::shard_path(std::uint64_t spec_hash) const {
  return directory_ + "/" + spec_hash_hex(spec_hash) + ".tgij";
}

CacheLookup ResultCache::lookup(std::uint64_t spec_hash,
                                const std::string& mode,
                                const std::vector<std::size_t>& values) const {
  return load_journal(shard_path(spec_hash), spec_hash, mode, values,
                      "cache: quarantined entry");
}

void ResultCache::store(std::uint64_t spec_hash, const std::string& mode,
                        const std::vector<std::size_t>& values,
                        const std::map<std::size_t, PointRecord>& records) const {
  std::filesystem::create_directories(directory_);
  std::string text = encode_header_record(spec_hash, mode, values);
  for (const auto& [index, record] : records) {
    TGI_REQUIRE(index < values.size(),
                "cache store: point index " << index
                                            << " is outside the sweep");
    TGI_REQUIRE(record.index == index,
                "cache store: record index mismatch at " << index);
    text += encode_point_record(record);
  }
  util::atomic_write_file(shard_path(spec_hash), text);
}

}  // namespace tgi::harness
