#include "serve/campaign.h"

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <utility>

#include "core/tgi.h"
#include "harness/cache.h"
#include "harness/checkpoint.h"
#include "harness/measurement_io.h"
#include "harness/suite.h"
#include "obs/trace.h"
#include "power/meter.h"
#include "serve/supervisor.h"
#include "serve/worker.h"
#include "sim/spec_io.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/format.h"
#include "util/table.h"

namespace tgi::serve {

namespace {

using harness::PointRecord;

std::string join_indices(const std::vector<std::size_t>& indices) {
  std::string text;
  for (const std::size_t index : indices) {
    if (!text.empty()) text += ',';
    text += std::to_string(index);
  }
  return text;
}

}  // namespace

std::size_t write_sweep_summary(
    const CampaignSpec& spec,
    const std::map<std::size_t, harness::PointRecord>& records,
    const core::TgiCalculator& calc, const std::string& dir,
    const std::string& point_prefix, const std::string& label,
    std::ostream& out) {
  const auto point_csv = [&dir, &point_prefix](std::size_t value) {
    return dir + "/" + point_prefix + std::to_string(value) + ".csv";
  };
  if (spec.faulted()) {
    std::size_t measurement_csvs = 0;
    util::AtomicFile fault_file(dir + "/faults_summary.csv");
    util::CsvWriter fcsv(fault_file.stream());
    fcsv.write_row({"cores", "tgi_am", "missing", "attempts", "retries",
                    "run_faults", "meter_faults", "rejected_readings",
                    "dropped_benchmarks", "backoff_s", "stalled_s"});
    for (std::size_t k = 0; k < spec.sweep.size(); ++k) {
      const PointRecord& record = records.at(k);
      std::string missing;
      for (const std::string& name : record.missing) {
        if (!missing.empty()) missing += '+';
        missing += name;
      }
      std::string tgi_am = "nan";
      if (!record.point.measurements.empty()) {
        const core::PartialTgiResult partial = calc.compute_partial(
            record.point.measurements, core::WeightScheme::kArithmeticMean);
        tgi_am = util::fixed(partial.result.tgi, 6);
        harness::write_measurements_file(point_csv(spec.sweep[k]),
                                         record.point.measurements);
        ++measurement_csvs;
      }
      const harness::PointCounters& c = record.counters;
      fcsv.write_row({std::to_string(spec.sweep[k]), tgi_am, missing,
                      std::to_string(c.attempts), std::to_string(c.retries),
                      std::to_string(c.run_faults),
                      std::to_string(c.meter_faults),
                      std::to_string(c.rejected_readings),
                      std::to_string(c.dropped_benchmarks),
                      util::fixed(c.backoff.value(), 1),
                      util::fixed(c.stalled.value(), 1)});
      out << label << "cores " << spec.sweep[k] << ": TGI(AM) " << tgi_am
          << (record.missing.empty() ? ""
                                     : " [partial: missing " + missing + "]")
          << " attempts=" << c.attempts << " retries=" << c.retries
          << " faults=" << c.run_faults + c.meter_faults << "\n";
    }
    fault_file.commit();
    return measurement_csvs;
  }
  util::AtomicFile summary_file(dir + "/sweep_summary.csv");
  util::CsvWriter summary(summary_file.stream());
  summary.write_row({"cores", "tgi_am", "tgi_time", "tgi_energy",
                     "tgi_power", "hpl_mflops", "hpl_watts", "stream_mbps",
                     "stream_watts", "iozone_mbps", "iozone_watts"});
  for (std::size_t k = 0; k < spec.sweep.size(); ++k) {
    const PointRecord& record = records.at(k);
    harness::write_measurements_file(point_csv(spec.sweep[k]),
                                     record.point.measurements);
    std::vector<std::string> row{std::to_string(spec.sweep[k])};
    double tgi_am = 0.0;
    for (const core::WeightScheme scheme :
         {core::WeightScheme::kArithmeticMean, core::WeightScheme::kTime,
          core::WeightScheme::kEnergy, core::WeightScheme::kPower}) {
      const double value = calc.compute(record.point.measurements, scheme).tgi;
      if (scheme == core::WeightScheme::kArithmeticMean) tgi_am = value;
      row.push_back(util::fixed(value, 6));
    }
    for (const char* name : {"HPL", "STREAM", "IOzone"}) {
      const core::BenchmarkMeasurement& m =
          core::find_measurement(record.point.measurements, name);
      row.push_back(util::fixed(m.performance, 3));
      row.push_back(util::fixed(m.average_power.value(), 3));
    }
    summary.write_row(row);
    out << label << "cores " << spec.sweep[k] << ": TGI(AM) "
        << util::fixed(tgi_am, 4) << "\n";
  }
  summary_file.commit();
  return spec.sweep.size();
}

std::string CampaignStats::summary() const {
  return "entries=" + std::to_string(entries) +
         " points=" + std::to_string(points) +
         " hits=" + std::to_string(cache_hits) +
         " computed=" + std::to_string(computed) +
         " quarantined=" + std::to_string(quarantined) +
         " worker_failures=" + std::to_string(worker_failures) +
         " worker_restarts=" + std::to_string(worker_restarts) +
         " worker_hangs=" + std::to_string(worker_hangs) +
         " worker_quarantined=" + std::to_string(worker_quarantined);
}

CampaignEngine::CampaignEngine(CampaignConfig config)
    : config_(std::move(config)) {
  TGI_REQUIRE(!config_.cache_dir.empty(), "campaign needs cache_dir");
  TGI_REQUIRE(!config_.outdir.empty(), "campaign needs outdir");
  TGI_REQUIRE(config_.workers == 0 || !config_.worker_exe.empty(),
              "workers > 0 needs a worker executable");
}

std::map<std::size_t, PointRecord> fill_points(
    const harness::ResultCache* cache, std::uint64_t hash,
    const std::string& mode, const std::vector<std::size_t>& values,
    const harness::PointCompute& compute, CampaignStats& stats) {
  std::size_t computed = cache == nullptr ? values.size() : 0;
  std::map<std::size_t, PointRecord> records;
  if (cache != nullptr) {
    harness::CacheLookup filled = cache->fill(
        hash, mode, values,
        [&compute, &computed](const std::vector<std::size_t>& pending,
                              const harness::RecordSink& done) {
          computed = pending.size();
          compute(pending, done);
        });
    stats.quarantined += filled.damage.size();
    records = std::move(filled.completed);
  } else {
    std::vector<std::size_t> all(values.size());
    for (std::size_t k = 0; k < all.size(); ++k) all[k] = k;
    std::mutex mu;
    compute(all, [&records, &mu](PointRecord record) {
      const std::lock_guard<std::mutex> lock(mu);
      const std::size_t k = record.index;
      records.emplace(k, std::move(record));
    });
  }
  stats.points += values.size();
  stats.cache_hits += values.size() - computed;
  stats.computed += computed;
  return records;
}

PointRecord reference_point(const CampaignSpec& spec,
                            std::uint64_t reference_hash,
                            const harness::ResultCache* cache,
                            CampaignStats& stats) {
  const std::vector<std::size_t> values{spec.reference.total_cores()};
  // The reference run as a journal record, so it rides the cache like any
  // sweep point.
  return std::move(
      fill_points(
          cache, reference_hash, "plain", values,
          [&spec, &values](const std::vector<std::size_t>& /*pending*/,
                           const harness::RecordSink& done) {
            const std::unique_ptr<power::PowerMeter> meter =
                reference_meter(spec);
            obs::PointRecorder recorder(0, std::to_string(values[0]));
            harness::SuitePoint point;
            point.processes = values[0];
            point.nodes = spec.reference.nodes;
            point.measurements = harness::reference_measurements(
                spec.reference, *meter, {}, &recorder);
            done(harness::make_point_record(0, values[0], point, &recorder));
          },
          stats)
          .at(0));
}

void write_provenance(const std::string& outdir, const CampaignStats& stats,
                      const std::vector<EntryProvenance>& entries) {
  std::filesystem::create_directories(outdir);
  util::AtomicFile json(outdir + "/provenance.json");
  json.stream() << "{\n  \"campaign\": {\"entries\": " << stats.entries
                << ", \"points\": " << stats.points << ", \"cache_hits\": "
                << stats.cache_hits << ", \"computed\": " << stats.computed
                << ", \"quarantined\": " << stats.quarantined
                << ", \"worker_failures\": " << stats.worker_failures
                << ", \"worker_restarts\": " << stats.worker_restarts
                << ", \"worker_hangs\": " << stats.worker_hangs
                << ", \"worker_quarantined\": " << stats.worker_quarantined
                << "},\n  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const EntryProvenance& p = entries[i];
    json.stream() << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
                  << util::json_escape(p.name) << "\", \"spec\": \""
                  << harness::spec_hash_hex(p.spec)
                  << "\", \"reference_spec\": \""
                  << harness::spec_hash_hex(p.reference_spec)
                  << "\", \"points\": " << p.points << ", \"hits\": " << p.hits
                  << ", \"computed\": " << p.computed;
    // The supervision taxonomy (DESIGN.md §15) — like every other
    // cache/worker-dependent fact, it lives here and on stderr only.
    json.stream() << ", \"shards\": [";
    for (std::size_t s = 0; s < p.shards.size(); ++s) {
      const ShardReport& r = p.shards[s];
      json.stream() << (s == 0 ? "" : ", ") << "{\"shard\": " << r.shard
                    << ", \"outcome\": \""
                    << util::json_escape(outcome_name(r.outcome))
                    << "\", \"restarts\": " << r.restarts
                    << ", \"backoff_s\": " << util::fixed(r.backoff.value(), 1)
                    << ", \"attempts\": [";
      for (std::size_t a = 0; a < r.attempts.size(); ++a) {
        const ShardAttempt& att = r.attempts[a];
        json.stream() << (a == 0 ? "" : ", ") << "{\"outcome\": \""
                      << util::json_escape(outcome_name(att.outcome))
                      << "\", \"detail\": \"" << util::json_escape(att.detail)
                      << "\", \"banked\": " << att.banked << "}";
      }
      json.stream() << "]}";
    }
    json.stream() << "]}";
  }
  json.stream() << "\n  ]\n}\n";
  json.commit();
}

namespace {

/// Shards `pending` round-robin and runs one supervised `tgi_serve
/// --worker` per non-empty shard (serve::Supervisor, DESIGN.md §15) in a
/// scratch directory private to this run: hung workers are killed, failed
/// attempts are restarted over the still-missing indices, crash-looping
/// shards are quarantined. Shards fold in fixed shard order (first valid
/// record per index wins) into `done`; returns the indices none banked.
std::vector<std::size_t> run_worker_shards(
    const CampaignConfig& config, const CampaignSpec& spec,
    std::uint64_t hash, const std::string& mode,
    const std::vector<std::size_t>& pending, CampaignStats& stats,
    std::vector<ShardReport>& reports, const harness::RecordSink& done) {
  const std::string scratch = config.cache_dir + "/work/" + spec.name + "." +
                              util::unique_token();
  std::vector<std::vector<std::size_t>> shards(config.workers);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    shards[i % config.workers].push_back(pending[i]);
  }
  const std::string cluster_path = scratch + "/cluster.conf";
  const std::string spec_path = scratch + "/spec.conf";
  std::filesystem::create_directories(scratch);
  util::atomic_write_file(cluster_path, sim::cluster_to_config(spec.cluster));
  // The handoff names the cluster file relative to the spec file's own
  // directory (load_worker_spec resolves it there) — relocatable scratch.
  util::atomic_write_file(spec_path, worker_spec_config(spec, "cluster.conf"));

  std::vector<ShardJob> jobs;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].empty()) continue;
    ShardJob job;
    job.shard = s;
    job.label = "[" + spec.name + "]";
    job.indices = shards[s];
    job.dir = scratch + "/shard" + std::to_string(s);
    const std::string worker_exe = config.worker_exe;
    const std::size_t threads = config.threads;
    job.argv = [worker_exe, spec_path, threads, s](
                   const std::vector<std::size_t>& remaining,
                   const std::string& journal_dir, std::size_t) {
      return std::vector<std::string>{
          worker_exe,
          "--worker",
          "spec=" + spec_path,
          "indices=" + join_indices(remaining),
          "journal=" + journal_dir,
          "threads=" + std::to_string(threads),
          "shard=" + std::to_string(s)};
    };
    // Damage (including a torn tail from a SIGKILLed worker, or a missing
    // file from one that died before the header) is counted, WARNed, and
    // treated as absence — whatever is missing gets recomputed.
    job.merge = [hash, &mode, &spec,
                 &stats](const std::string& journal_path) {
      harness::StoreLoad loaded =
          harness::PointStore(journal_path, hash, mode, spec.sweep)
              .load("serve: quarantined worker record");
      stats.quarantined += loaded.damage.size();
      return std::move(loaded.completed);
    };
    jobs.push_back(std::move(job));
  }

  Supervisor supervisor(config.supervisor);
  std::vector<SupervisedShard> supervised = supervisor.run(jobs);

  std::vector<bool> banked(spec.sweep.size(), false);
  for (SupervisedShard& shard : supervised) {
    for (auto& [index, record] : shard.records) {
      if (!banked[index]) done(std::move(record));
      banked[index] = true;
    }
    for (const ShardAttempt& attempt : shard.report.attempts) {
      if (attempt.failed) ++stats.worker_failures;
      if (attempt.outcome == ShardOutcome::kHung) ++stats.worker_hangs;
    }
    stats.worker_restarts += shard.report.restarts;
    if (shard.report.quarantined()) ++stats.worker_quarantined;
    reports.push_back(std::move(shard.report));
  }
  std::vector<std::size_t> missing;
  for (const std::size_t k : pending) {
    if (!banked[k]) missing.push_back(k);
  }
  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  return missing;
}

/// Writes one entry's artifacts and report lines from its records — the
/// single emission path cold and warm runs share. Report lines carry the
/// entry name, never a filesystem path, so the report stream is
/// byte-stable across output directories.
void emit_entry(const CampaignConfig& config, const CampaignSpec& entry,
                const std::map<std::size_t, PointRecord>& records,
                const PointRecord& reference, std::ostream& out) {
  const std::string dir = config.outdir + "/" + entry.name;
  std::filesystem::create_directories(dir);
  out << "[" << entry.name << "] system: " << entry.cluster.name << " ("
      << entry.cluster.total_cores()
      << " cores), reference: " << entry.reference.name << "\n";
  harness::write_measurements_file(dir + "/reference.csv",
                                   reference.point.measurements);
  const core::TgiCalculator calc(reference.point.measurements);

  const std::size_t measurement_csvs =
      1 + write_sweep_summary(entry, records, calc, dir, "point_",
                              "[" + entry.name + "] ", out);

  if (config.trace) {
    const obs::SweepTrace trace = harness::replay_trace(records);
    trace.write_files(dir + "/trace");
    out << "[" << entry.name << "] wrote trace (" << trace.event_count()
        << " events) and metrics\n";
  }
  out << "[" << entry.name << "] wrote "
      << (entry.faulted() ? "faults_summary.csv" : "sweep_summary.csv")
      << " and " << measurement_csvs << " measurement CSVs\n";
}

}  // namespace

CampaignStats CampaignEngine::run(const std::vector<CampaignSpec>& entries,
                                  std::ostream& out) {
  TGI_REQUIRE(!entries.empty(), "campaign has no entries");
  const harness::ResultCache cache(config_.cache_dir);
  CampaignStats stats;
  std::vector<EntryProvenance> provenance;
  std::filesystem::create_directories(config_.outdir);

  for (const CampaignSpec& entry : entries) {
    ++stats.entries;
    EntryProvenance prov;
    prov.name = entry.name;
    const std::uint64_t hash = spec_hash(entry);
    const std::string mode = spec_mode(entry);
    prov.spec = hash;
    const std::size_t hits_before = stats.cache_hits;
    const std::size_t computed_before = stats.computed;

    // 1-4. ResultCache::fill serves the hits and banks each miss steps
    // 2-3 compute as it arrives.
    const std::map<std::size_t, PointRecord> records = fill_points(
        &cache, hash, mode, entry.sweep,
        [this, &entry, hash, &mode, &stats, &prov](
            const std::vector<std::size_t>& pending,
            const harness::RecordSink& done) {
          const std::vector<std::size_t> missing =
              config_.workers > 0
                  ? run_worker_shards(config_, entry, hash, mode, pending,
                                      stats, prov.shards, done)
                  : pending;
          if (!missing.empty()) {
            compute_points(entry, missing, config_.threads, done);
          }
        },
        stats);

    // 5. Reference run, cached under its own key.
    prov.reference_spec = reference_spec_hash(entry);
    const PointRecord reference =
        reference_point(entry, prov.reference_spec, &cache, stats);

    emit_entry(config_, entry, records, reference, out);
    prov.points = entry.sweep.size() + 1;
    prov.hits = stats.cache_hits - hits_before;
    prov.computed = stats.computed - computed_before;
    provenance.push_back(prov);
  }

  // Cache-dependent facts live in provenance.json and on stderr, never in
  // the report stream.
  write_provenance(config_.outdir, stats, provenance);
  return stats;
}

}  // namespace tgi::serve
