// Ablation: crash-tolerant checkpointing (DESIGN.md §11). Runs the paper
// sweep through the checksummed journal and reports what the checkpoint
// plane costs and guarantees: journaling is a bit-exact no-op on results,
// a killed sweep rerun over its checkpoint at a different thread count is
// byte-for-byte the same, a corrupted record is quarantined and recomputed
// instead of trusted, and the cache lookup replays exactly the banked
// points.
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "harness/cache.h"
#include "harness/checkpoint.h"
#include "util/io_faults.h"

namespace {

using namespace tgi;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TGI_REQUIRE(in.good(), "cannot read '" << path << "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The experiment's plain-sweep checkpoint in `dir`: its cache shard.
harness::PointStore journal_store(const bench::Experiment& e,
                                  const std::string& dir) {
  const std::uint64_t hash = serve::spec_hash(e.spec);
  return harness::PointStore(harness::ResultCache(dir).shard_path(hash), hash,
                             "plain", e.spec.sweep);
}

/// The experiment's plain sweep checkpointed into `dir` the way `tgi_sweep
/// checkpoint=DIR` does it (serve::sweep_records, a ResultCache::fill over
/// the sweep's point body): the shard's valid points are replayed (their
/// count lands in `replayed`), the rest computed and appended.
std::vector<harness::SuitePoint> run_journaled(const bench::Experiment& e,
                                               const std::string& dir,
                                               std::size_t threads,
                                               std::size_t& replayed) {
  const harness::ResultCache cache(dir);
  serve::CampaignStats stats;
  const auto records = serve::sweep_records(e.spec, &cache, threads, stats);
  replayed = stats.cache_hits;
  std::vector<harness::SuitePoint> points;
  for (const auto& [k, record] : records) points.push_back(record.point);
  return points;
}

/// An I/O fault policy (util/io_faults.h) whose first draw is a short
/// write.
util::IoFaultSpec short_write_first() {
  for (std::uint64_t seed = 0;; ++seed) {
    const util::IoFaultSpec spec{seed, 1.0};
    const util::ScopedIoFaults probe(spec);
    if (util::next_io_fault() == util::IoFaultKind::kShortWrite) return spec;
  }
}

double elapsed_ms(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Ablation",
                          "checkpoint plane: kill-and-resume determinism");
    namespace fs = std::filesystem;
    const fs::path scratch =
        fs::temp_directory_path() / "tgi_ablation_checkpoint";
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    const std::string dir = scratch.string();

    // Truth: today's plain parallel sweep, no checkpoint anywhere.
    auto t0 = std::chrono::steady_clock::now();
    const std::vector<harness::SuitePoint> truth = bench::run_sweep(e);
    const double plain_ms = elapsed_ms(t0);

    // Journaled full run: checkpointing must be observational.
    std::size_t replayed = 0;
    t0 = std::chrono::steady_clock::now();
    const std::vector<harness::SuitePoint> journaled =
        run_journaled(e, dir, e.threads, replayed);
    const double journaled_ms = elapsed_ms(t0);
    bench::print_check(
        "checkpointed sweep is bit-identical to the plain sweep",
        bench::same_points(truth, journaled));

    const std::map<std::size_t, harness::PointRecord> full =
        journal_store(e, dir).load("ablation_checkpoint").completed;
    bench::print_check(
        "journal holds a header plus one record per sweep point",
        replayed == 0 &&
            std::ranges::count(slurp(journal_store(e, dir).path()), '\n') ==
                static_cast<std::ptrdiff_t>(e.spec.sweep.size() + 1) &&
            full.size() == e.spec.sweep.size());

    // Kill and rerun: keep the first three records (as if the process
    // died mid-sweep), then rerun at a different thread count. Results
    // must be byte-identical and exactly the kept points replayed.
    const std::size_t keep = std::min<std::size_t>(3, full.size());
    {
      journal_store(e, dir).publish(
          {full.begin(),
           std::next(full.begin(), static_cast<std::ptrdiff_t>(keep))});
      t0 = std::chrono::steady_clock::now();
      const std::vector<harness::SuitePoint> resumed =
          run_journaled(e, dir, e.threads == 1 ? 2 : 1, replayed);
      const double resumed_ms = elapsed_ms(t0);
      bench::print_check(
          "kill and rerun at a different thread count reproduces every "
          "point",
          bench::same_points(truth, resumed));
      bench::print_check("the rerun replays exactly the banked points",
                         replayed == keep);
      util::TextTable table({"sweep", "wall ms"});
      table.add_row({"plain", util::fixed(plain_ms, 1)});
      table.add_row({"journaled", util::fixed(journaled_ms, 1)});
      table.add_row({"resumed (" + std::to_string(keep) + " replayed)",
                     util::fixed(resumed_ms, 1)});
      std::cout << table;
    }

    // Corruption: an injected short write tears the second record's
    // append, and the next append fuses onto the torn half — one line
    // mid-journal whose CRC fails. The CRC must catch it; the damaged
    // points are quarantined and recomputed, and the final results still
    // match the truth bit-for-bit.
    {
      const auto victim = std::next(full.begin(), full.size() > 1 ? 1 : 0);
      harness::PointStore journal = journal_store(e, dir);
      journal.publish({full.begin(), victim});
      try {
        const util::ScopedIoFaults faults(short_write_first());
        journal.append(victim->second);
      } catch (const util::TgiError&) {
        // The torn append throws; its half record stays on disk.
      }
      for (auto it = std::next(victim); it != full.end(); ++it) {
        journal.append(it->second);
      }
      const std::vector<harness::SuitePoint> resumed =
          run_journaled(e, dir, e.threads, replayed);
      bench::print_check(
          "a corrupted record is quarantined and recomputed bit-identically",
          bench::same_points(truth, resumed));
      // The rerun republished the journal: every record is valid again,
      // so a second rerun replays the full sweep.
      const std::vector<harness::SuitePoint> again =
          run_journaled(e, dir, e.threads, replayed);
      bench::print_check(
          "after the republish a complete journal replays every point",
          bench::same_points(truth, again) && replayed == e.spec.sweep.size());
    }

    fs::remove_all(scratch);
  });
}
