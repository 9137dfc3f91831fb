#include "serve/campaign.h"

#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <ostream>
#include <utility>

#include "core/tgi.h"
#include "harness/cache.h"
#include "harness/checkpoint.h"
#include "harness/measurement_io.h"
#include "harness/parallel.h"
#include "harness/suite.h"
#include "obs/trace.h"
#include "power/meter.h"
#include "serve/worker.h"
#include "stats/correlation.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/format.h"
#include "util/table.h"

namespace tgi::serve {

using harness::PointRecord;

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
    for (const core::WeightScheme scheme : kPaperSchemes) {
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

PaperSeries paper_series(const std::vector<harness::SuitePoint>& points,
                         const core::TgiCalculator* calc) {
  PaperSeries series;
  for (const harness::SuitePoint& pt : points) {
    series.x.push_back(static_cast<double>(pt.processes));
    for (const char* name : {"HPL", "STREAM", "IOzone"}) {
      const core::BenchmarkMeasurement& m =
          core::find_measurement(pt.measurements, name);
      series.ee[name].push_back(m.performance / m.average_power.value());
    }
    if (calc == nullptr) continue;
    for (const core::WeightScheme scheme : kPaperSchemes) {
      series.tgi[scheme].push_back(calc->compute(pt.measurements, scheme).tgi);
    }
  }
  return series;
}

const char* paper_csv_name(PaperCsv csv) {
  static constexpr std::array<const char*, 5> kNames{
      "fig2_hpl_ee.csv", "fig3_stream_ee.csv", "fig5_tgi_am.csv",
      "fig6_tgi_weighted.csv", "table2_pcc.csv"};
  return kNames[static_cast<std::size_t>(csv)];
}

void write_paper_csv(PaperCsv csv, const PaperSeries& series,
                     const std::string& path) {
  using core::WeightScheme;
  const auto& tgi = series.tgi;
  harness::MultiSeries figure{"cores", series.x, {}};
  switch (csv) {
    case PaperCsv::kFig2HplEe:
      figure.x_label = "processes";
      figure.series = {{"MFLOPS_per_W", series.ee.at("HPL")}};
      break;
    case PaperCsv::kFig3StreamEe:
      figure.x_label = "processes";
      figure.series = {{"MBPS_per_W", series.ee.at("STREAM")}};
      break;
    case PaperCsv::kFig5TgiAm:
      figure.series = {{"TGI_AM", tgi.at(WeightScheme::kArithmeticMean)}};
      break;
    case PaperCsv::kFig6Weighted:
      // The printed figure's order: time (left panel), power, energy, AM.
      figure.series = {{"W_t", tgi.at(WeightScheme::kTime)},
                       {"W_p", tgi.at(WeightScheme::kPower)},
                       {"W_e", tgi.at(WeightScheme::kEnergy)},
                       {"AM", tgi.at(WeightScheme::kArithmeticMean)}};
      break;
    case PaperCsv::kTable2Pcc: {
      TGI_REQUIRE(series.x.size() >= 2,
                  "Table II correlates over at least two sweep points");
      util::AtomicFile out(path);
      util::CsvWriter table(out.stream());
      table.write_row({"benchmark", "am", "time", "energy", "power"});
      for (const char* name : {"IOzone", "STREAM", "HPL"}) {
        std::vector<std::string> row{name};
        for (const WeightScheme scheme : kPaperSchemes) {
          row.push_back(util::fixed(
              stats::pearson(tgi.at(scheme), series.ee.at(name)), 6));
        }
        table.write_row(row);
      }
      out.commit();
      return;
    }
  }
  harness::write_csv(figure, path);
}

std::vector<harness::SuitePoint> iozone_node_sweep(const CampaignSpec& spec,
                                                   std::size_t threads) {
  std::vector<std::size_t> nodes(spec.cluster.nodes);
  std::iota(nodes.begin(), nodes.end(), std::size_t{1});
  harness::ParallelSweepConfig cfg;
  cfg.threads = threads;
  const harness::ParallelSweep sweep(spec.cluster,
                                     spec_meter_factory(spec, 1), cfg);
  return sweep.run_with(nodes, [](harness::SuiteRunner& runner,
                                  std::size_t n) {
    harness::SuitePoint pt;
    pt.nodes = n;
    pt.measurements.push_back(runner.run_iozone(n));
    return pt;
  });
}

harness::Series fig4_series(
    const std::vector<harness::SuitePoint>& node_points) {
  harness::Series fig4{"nodes", "MBPS_per_W", {}, {}};
  for (const harness::SuitePoint& pt : node_points) {
    const core::BenchmarkMeasurement& m = pt.measurements.front();
    fig4.x.push_back(static_cast<double>(pt.nodes));
    fig4.y.push_back(m.performance / m.average_power.value());
  }
  return fig4;
}

std::string CampaignStats::summary() const {
  return "entries=" + std::to_string(entries) +
         " points=" + std::to_string(points) +
         " hits=" + std::to_string(cache_hits) +
         " computed=" + std::to_string(computed) +
         " quarantined=" + std::to_string(quarantined);
}

CampaignEngine::CampaignEngine(CampaignConfig config)
    : config_(std::move(config)) {
  TGI_REQUIRE(!config_.cache_dir.empty(), "campaign needs cache_dir");
  TGI_REQUIRE(!config_.outdir.empty(), "campaign needs outdir");
  TGI_REQUIRE(config_.workers == 0,
              "the campaign engine computes in-process only: workers must "
              "be 0, got "
                  << config_.workers);
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

std::map<std::size_t, PointRecord> sweep_records(
    const CampaignSpec& spec, const harness::ResultCache* cache,
    std::size_t threads, CampaignStats& stats, obs::WallProfiler* profiler) {
  return fill_points(
      cache, spec_hash(spec), spec_mode(spec), spec.sweep,
      [&spec, threads, profiler](const std::vector<std::size_t>& pending,
                                 const harness::RecordSink& done) {
        compute_points(spec, pending, threads, done, profiler);
      },
      stats);
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
            harness::SuitePoint point;
            point.processes = values[0];
            point.nodes = spec.reference.nodes;
            point.measurements =
                harness::reference_measurements(spec.reference, *meter);
            done(harness::make_point_record(0, values[0], point, nullptr));
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
                << "},\n  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const EntryProvenance& p = entries[i];
    json.stream() << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
                  << util::json_escape(p.name) << "\", \"spec\": \""
                  << harness::spec_hash_hex(p.spec)
                  << "\", \"reference_spec\": \""
                  << harness::spec_hash_hex(p.reference_spec)
                  << "\", \"points\": " << p.points << ", \"hits\": " << p.hits
                  << ", \"computed\": " << p.computed << "}";
  }
  json.stream() << "\n  ]\n}\n";
  json.commit();
}

namespace {

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
    prov.spec = spec_hash(entry);
    const std::size_t hits_before = stats.cache_hits;
    const std::size_t computed_before = stats.computed;

    // 1-2. ResultCache::fill serves the hits and banks each computed miss
    // as it arrives (sweep_records' compute, under the hash computed once).
    const std::map<std::size_t, PointRecord> records = fill_points(
        &cache, prov.spec, spec_mode(entry), entry.sweep,
        [this, &entry](const std::vector<std::size_t>& pending,
                       const harness::RecordSink& done) {
          compute_points(entry, pending, config_.threads, done);
        },
        stats);

    // 3. Reference run, cached under its own key.
    prov.reference_spec = reference_spec_hash(entry);
    const PointRecord reference =
        reference_point(entry, prov.reference_spec, &cache, stats);

    // 4. Emission, from the records alone.
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
