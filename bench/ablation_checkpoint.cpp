// Ablation: crash-tolerant checkpointing (DESIGN.md §11). Runs the paper
// sweep through the checksummed journal and reports what the checkpoint
// plane costs and guarantees: journaling is a bit-exact no-op on results,
// a killed sweep resumes at a different thread count byte-for-byte, a
// corrupted record is quarantined and recomputed instead of trusted, and
// resume provenance (resume.json) names exactly the replayed points.
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "harness/cache.h"
#include "harness/checkpoint.h"

namespace {

using namespace tgi;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TGI_REQUIRE(in.good(), "cannot read '" << path << "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Journal lines (header first, then one line per completed point).
std::vector<std::string> journal_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line + "\n");
  return lines;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

/// The experiment's plain sweep journaled into `dir` (resumed from it when
/// `resume`), keyed by the one canonical spec text.
std::vector<harness::SuitePoint> run_journaled(const bench::Experiment& e,
                                               const std::string& dir,
                                               bool resume,
                                               std::size_t threads) {
  const harness::SuiteConfig suite;
  harness::CheckpointConfig ccfg;
  ccfg.directory = dir;
  ccfg.resume = resume;
  harness::CheckpointJournal journal(
      std::move(ccfg),
      harness::journal_spec_hash(harness::cache_spec_text(
          e.system_under_test, e.seed, e.meter_kind == "model", suite,
          nullptr, 0, e.sweep)),
      "plain", e.sweep);
  harness::ParallelSweepConfig cfg;
  cfg.suite = suite;
  cfg.threads = threads;
  cfg.checkpoint = &journal;
  const harness::ParallelSweep sweep(
      e.system_under_test,
      bench::sweep_meter_factory(e, bench::suite_measurements(suite)), cfg);
  return sweep.run(e.sweep);
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
    const std::string journal_path = dir + "/journal.tgij";

    // Truth: today's plain parallel sweep, no checkpoint anywhere.
    auto t0 = std::chrono::steady_clock::now();
    const std::vector<harness::SuitePoint> truth = bench::run_sweep(e);
    const double plain_ms = elapsed_ms(t0);

    // Journaled full run: checkpointing must be observational.
    t0 = std::chrono::steady_clock::now();
    const std::vector<harness::SuitePoint> journaled =
        run_journaled(e, dir, false, e.threads);
    const double journaled_ms = elapsed_ms(t0);
    bench::print_check(
        "checkpointed sweep is bit-identical to the plain sweep",
        bench::same_points(truth, journaled));

    const std::string full_journal = slurp(journal_path);
    const std::vector<std::string> lines = journal_lines(full_journal);
    bench::print_check(
        "journal holds a header plus one record per sweep point",
        lines.size() == e.sweep.size() + 1);

    // Kill-and-resume: keep the header and the first three records (as if
    // the process died mid-sweep), then resume at a different thread
    // count. Results must be byte-identical and resume.json must name
    // exactly the replayed points.
    const std::size_t keep = std::min<std::size_t>(3, e.sweep.size());
    {
      std::string torn;
      for (std::size_t i = 0; i < 1 + keep && i < lines.size(); ++i) {
        torn += lines[i];
      }
      util::atomic_write_file(journal_path, torn);
      t0 = std::chrono::steady_clock::now();
      const std::vector<harness::SuitePoint> resumed =
          run_journaled(e, dir, true, e.threads == 1 ? 2 : 1);
      const double resumed_ms = elapsed_ms(t0);
      bench::print_check(
          "kill-and-resume at a different thread count reproduces every "
          "point",
          bench::same_points(truth, resumed));
      const std::string resume_json = slurp(dir + "/resume.json");
      bench::print_check(
          "resume.json records exactly the replayed points",
          count_occurrences(resume_json, "point_resumed") == keep);
      util::TextTable table({"sweep", "wall ms"});
      table.add_row({"plain", util::fixed(plain_ms, 1)});
      table.add_row({"journaled", util::fixed(journaled_ms, 1)});
      table.add_row({"resumed (" + std::to_string(keep) + " replayed)",
                     util::fixed(resumed_ms, 1)});
      std::cout << table;
    }

    // Corruption: flip one byte inside the second point record. The CRC
    // must catch it; the point is quarantined and recomputed, and the
    // final results still match the truth bit-for-bit.
    {
      std::string corrupt = full_journal;
      const std::size_t offset =
          lines[0].size() + lines[1].size() + lines[1].size() / 2;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x01);
      util::atomic_write_file(journal_path, corrupt);
      const std::vector<harness::SuitePoint> resumed =
          run_journaled(e, dir, true, e.threads);
      bench::print_check(
          "a corrupted record is quarantined and recomputed bit-identically",
          bench::same_points(truth, resumed));
      // The resume compacted the journal: every record is valid again, so
      // a second resume replays the full sweep.
      const std::vector<harness::SuitePoint> replayed =
          run_journaled(e, dir, true, e.threads);
      const std::string resume_json = slurp(dir + "/resume.json");
      bench::print_check(
          "after compaction a complete journal replays every point",
          bench::same_points(truth, replayed) &&
              count_occurrences(resume_json, "point_resumed") ==
                  e.sweep.size());
    }

    fs::remove_all(scratch);
  });
}
