// Microbench: content-addressed result cache (DESIGN.md §13) — cold
// compute vs warm cache hit.
//
// The campaign engine's value proposition is that a repeated sweep spec
// costs a journal read, not a recompute. This bench runs one spec cold
// through the campaign worker (the exact path a tgi_serve shard runs),
// banks the records in a ResultCache, then times warm lookups against the
// published shard. It proves the §13 contract on the spot — the warm
// lookup serves every point and the served records are byte-identical to
// the computed ones — and records both times in BENCH_cache.json (out=PATH
// to move it), the cache entry of the repo's BENCH_*.json perf trajectory.
#include "bench_common.h"

#include <cstddef>
#include <map>
#include <vector>

#include "harness/cache.h"
#include "harness/checkpoint.h"
#include "serve/spec.h"
#include "serve/worker.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Microbench",
                          "result cache: warm hit vs cold compute");
    const auto trials =
        static_cast<std::size_t>(e.config.get_int("trials", 5));
    const std::string out_path = e.config.get_string("out", "BENCH_cache.json");
    const std::string scratch =
        e.config.get_string("scratch", "micro_cache_scratch");

    // The spec a campaign entry would carry for this experiment's
    // cluster/sweep/seed/meter selection (fault-free).
    serve::CampaignSpec spec;
    spec.name = "micro";
    spec.cluster = e.system_under_test;
    spec.reference = e.reference_system;
    spec.sweep = e.sweep;
    spec.seed = e.seed;
    spec.exact_meter = (e.meter_kind == "model");
    const std::uint64_t hash = serve::spec_hash(spec);
    const std::string mode = serve::spec_mode(spec);

    std::filesystem::remove_all(scratch);

    serve::WorkerAssignment assignment;
    assignment.indices.resize(spec.sweep.size());
    for (std::size_t k = 0; k < spec.sweep.size(); ++k) {
      assignment.indices[k] = k;
    }
    assignment.journal_dir = scratch + "/journal";
    assignment.threads = e.threads;

    // Cold: compute every point through the campaign worker and journal it
    // — what a cache miss costs.
    const double cold_t0 = bench::now_seconds();
    const std::size_t journaled = serve::run_worker(spec, assignment);
    const double cold_s = bench::now_seconds() - cold_t0;
    const harness::StoreLoad computed =
        harness::PointStore(assignment.journal_dir + "/journal.tgij", hash,
                            mode, spec.sweep)
            .load("micro_cache: quarantined record");
    bench::print_check(
        "cold run journals every sweep point",
        journaled == spec.sweep.size() &&
            computed.completed.size() == spec.sweep.size() &&
            computed.damage.empty());

    // Bank the records, then time warm lookups against the shard — what a
    // cache hit costs.
    const harness::ResultCache cache(scratch + "/cache");
    cache.store(hash, mode, spec.sweep, computed.completed);
    double warm_s = 1e300;
    harness::CacheLookup warm;
    for (std::size_t t = 0; t < trials; ++t) {
      const double warm_t0 = bench::now_seconds();
      warm = cache.lookup(hash, mode, spec.sweep);
      warm_s = std::min(warm_s, bench::now_seconds() - warm_t0);
    }

    bool all_hit = warm.damage.empty();
    for (std::size_t k = 0; k < spec.sweep.size(); ++k) {
      all_hit = all_hit && warm.hit(k);
    }
    bench::print_check("warm lookup serves every point", all_hit);
    bool identical = all_hit;
    if (all_hit) {
      for (const auto& [index, record] : computed.completed) {
        identical = identical &&
                    harness::encode_point_record(warm.completed.at(index)) ==
                        harness::encode_point_record(record);
      }
    }
    bench::print_check("served records byte-identical to the computed run",
                       identical);
    bench::print_check("cache hit is cheaper than recompute",
                       warm_s <= cold_s);

    util::TextTable table({"path", "points", "total (ms)", "per point (ms)"});
    const auto points = static_cast<double>(spec.sweep.size());
    table.add_row({"cold compute", std::to_string(spec.sweep.size()),
                   util::fixed(cold_s * 1e3, 2),
                   util::fixed(cold_s * 1e3 / points, 2)});
    table.add_row({"warm cache hit", std::to_string(spec.sweep.size()),
                   util::fixed(warm_s * 1e3, 3),
                   util::fixed(warm_s * 1e3 / points, 3)});
    std::cout << table;
    std::cout << "\nspeedup: " << util::fixed(cold_s / warm_s, 1)
              << "x (best warm of " << trials << " trials, mode=" << mode
              << ", threads=" << assignment.threads << ")\n";

    util::AtomicFile json(out_path);
    json.stream() << "{\n"
                  << "  \"bench\": \"micro_cache\",\n"
                  << "  \"points\": " << spec.sweep.size() << ",\n"
                  << "  \"mode\": \"" << mode << "\",\n"
                  << "  \"threads\": " << assignment.threads << ",\n"
                  << "  \"trials\": " << trials << ",\n"
                  << "  \"cold_compute_s\": " << util::fixed(cold_s, 6) << ",\n"
                  << "  \"warm_lookup_s\": " << util::fixed(warm_s, 6) << ",\n"
                  << "  \"speedup\": " << util::fixed(cold_s / warm_s, 1)
                  << ",\n"
                  << "  \"identical\": " << (identical ? "true" : "false")
                  << "\n"
                  << "}\n";
    json.commit();
    std::cout << "wrote " << out_path << "\n";

    std::filesystem::remove_all(scratch);
  }, {"trials", "out", "scratch"});
}
