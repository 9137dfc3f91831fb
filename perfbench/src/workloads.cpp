#include "workloads.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/tgi.h"
#include "harness/cache.h"
#include "harness/checkpoint.h"
#include "harness/measurement_io.h"
#include "harness/parallel.h"
#include "harness/robust.h"
#include "harness/suite.h"
#include "kernels/hpl_model.h"
#include "kernels/iozone_model.h"
#include "kernels/stream_model.h"
#include "obs/trace.h"
#include "power/meter.h"
#include "serve/campaign.h"
#include "serve/spec.h"
#include "serve/supervisor.h"
#include "sim/catalog.h"
#include "sim/simulator.h"
#include "sim/spec_io.h"
#include "util/atomic_file.h"
#include "util/format.h"
#include "util/table.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace tgi;  // NOLINT: the benchmark drives every tgi module

namespace {

/// Default meter seed of the paper harnesses (bench/bench_common.h); the
/// committed fig5/fig6 goldens were produced with it.
constexpr std::uint64_t kPaperSeed = 0x9e3779b9ULL;
/// Reference-meter salt of the paper harnesses.
constexpr std::uint64_t kReferenceSalt = 0x517cc1b7ULL;
/// Distinct inputs per workload pool; ops cycle through them.
constexpr std::size_t kSweepPool = 8;
/// Traced ops whose replay also runs the process-mode sweep (sweep_cold)
/// or the warm CampaignEngine with its publication (cache_warm). Bounded,
/// so a traced run's file churn stays small.
constexpr std::size_t kFullReplays = 10;

const std::vector<std::size_t>& fire_grid() {
  static const std::vector<std::size_t> grid{16, 32, 48, 64,
                                             80, 96, 112, 128};
  return grid;
}

const std::vector<core::WeightScheme>& all_schemes() {
  static const std::vector<core::WeightScheme> schemes{
      core::WeightScheme::kArithmeticMean, core::WeightScheme::kTime,
      core::WeightScheme::kEnergy, core::WeightScheme::kPower};
  return schemes;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Input seed `index` of a pool derived from the workload seed. Kept to
/// 31 bits so the campaign grammar's integer parser takes it.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  return splitmix(seed * 0x100000001b3ULL + index) & 0x7fffffffULL;
}

std::string measurements_text(
    const std::vector<core::BenchmarkMeasurement>& ms) {
  std::ostringstream out;
  harness::write_measurements(out, ms);
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string join_indices(const std::vector<std::size_t>& indices) {
  std::string text;
  for (const std::size_t index : indices) {
    if (!text.empty()) text += ',';
    text += std::to_string(index);
  }
  return text;
}

/// The benchmark's meter decorator. With a tracer, each measure() is a
/// `power.measure` span and its sample count is recorded. With a twin
/// (sensitivity self-check only), the twin — an identical instrument from
/// the same factory — measures first, doubling meter work while the
/// returned reading stays bit-identical.
class InstrumentedMeter final : public power::PowerMeter {
 public:
  InstrumentedMeter(std::unique_ptr<power::PowerMeter> inner,
                    std::unique_ptr<power::PowerMeter> twin, Tracer* tracer,
                    std::string tag = "")
      : inner_(std::move(inner)),
        twin_(std::move(twin)),
        tracer_(tracer),
        tag_(std::move(tag)) {}

  power::MeterReading measure(const power::PowerSource& source,
                              util::Seconds duration) override {
    const Scope span(tracer_, "power.measure", tag_);
    if (twin_) (void)twin_->measure(source, duration);
    power::MeterReading reading = inner_->measure(source, duration);
    const double samples = static_cast<double>(reading.trace.size());
    count(tracer_, "power.samples", samples);
    count(tracer_, "power.measures");
    if (!tag_.empty()) count(tracer_, "power.samples@" + tag_, samples);
    return reading;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<power::PowerMeter> inner_;
  std::unique_ptr<power::PowerMeter> twin_;
  Tracer* tracer_;
  std::string tag_;
};

harness::MeterFactory instrument(harness::MeterFactory base, Tracer* tracer,
                                 bool doubled) {
  if (tracer == nullptr && !doubled) return base;
  return [base = std::move(base), tracer,
          doubled](std::size_t k) -> std::unique_ptr<power::PowerMeter> {
    return std::make_unique<InstrumentedMeter>(
        base(k), doubled ? base(k) : nullptr, tracer);
  };
}

/// `entry`'s sweep computed as CampaignEngine's process mode computes it:
/// the points dealt round-robin to two `tgi_serve --worker` shards, each
/// run by serve::Supervisor and journaling under `dir`, merged in shard
/// order. Empty when a shard is quarantined.
std::map<std::size_t, harness::PointRecord> supervised_sweep(
    const serve::CampaignSpec& entry, const std::string& dir,
    const std::string& worker_exe, Tracer& tracer) {
  constexpr std::size_t kWorkers = 2;
  fs::create_directories(dir);
  const std::string spec_path = dir + "/spec.conf";
  util::atomic_write_file(dir + "/cluster.conf",
                          sim::cluster_to_config(entry.cluster));
  util::atomic_write_file(spec_path,
                          serve::worker_spec_config(entry, "cluster.conf"));
  const std::uint64_t hash = serve::spec_hash(entry);
  const std::string mode = serve::spec_mode(entry);
  std::vector<serve::ShardJob> jobs;
  for (std::size_t s = 0; s < kWorkers; ++s) {
    serve::ShardJob job;
    job.shard = s;
    job.label = "[" + entry.name + "]";
    for (std::size_t k = s; k < entry.sweep.size(); k += kWorkers) {
      job.indices.push_back(k);
    }
    job.dir = dir + "/shard" + std::to_string(s);
    job.argv = [worker_exe, spec_path, s](
                   const std::vector<std::size_t>& remaining,
                   const std::string& journal_dir, std::size_t) {
      return std::vector<std::string>{
          worker_exe, "--worker", "spec=" + spec_path,
          "indices=" + join_indices(remaining), "journal=" + journal_dir,
          "threads=1", "shard=" + std::to_string(s)};
    };
    job.merge = [hash, mode, &entry](const std::string& path) {
      std::error_code ec;
      if (!fs::exists(path, ec)) {
        return std::map<std::size_t, harness::PointRecord>{};
      }
      return harness::reconcile_journal(harness::read_journal_file(path), hash,
                                        mode, entry.sweep)
          .completed;
    };
    jobs.push_back(std::move(job));
  }
  serve::Supervisor supervisor(serve::SupervisorConfig{});
  std::vector<serve::SupervisedShard> shards;
  {
    const Scope span(&tracer, "serve.supervise");
    shards = supervisor.run(jobs);
  }
  tracer.count("serve.supervised_runs");
  std::map<std::size_t, harness::PointRecord> records;
  for (serve::SupervisedShard& shard : shards) {
    tracer.count("serve.worker_attempts",
                 static_cast<double>(shard.report.attempts.size()));
    tracer.count("serve.restarts", static_cast<double>(shard.report.restarts));
    if (shard.report.quarantined()) return {};
    records.merge(shard.records);
  }
  return records;
}

// ---------------------------------------------------------------------------
// sweep_cold

/// Everything a sweep_cold op produces, in one canonical text: sweep
/// measurements, reference measurements and TGI under every scheme at 17
/// significant digits.
std::string sweep_text(const std::vector<harness::SuitePoint>& points,
                       const std::vector<core::BenchmarkMeasurement>& reference,
                       const std::vector<std::vector<double>>& tgis) {
  std::ostringstream out;
  out << std::setprecision(17) << "reference\n"
      << measurements_text(reference);
  for (std::size_t k = 0; k < points.size(); ++k) {
    out << "point " << points[k].processes << " nodes " << points[k].nodes
        << "\n"
        << measurements_text(points[k].measurements) << "tgi";
    for (const double t : tgis[k]) out << ' ' << t;
    out << "\n";
  }
  return out.str();
}

std::vector<std::vector<double>> all_tgis(
    const core::TgiCalculator& calc,
    const std::vector<harness::SuitePoint>& points, Tracer* tracer) {
  std::vector<std::vector<double>> tgis;
  for (const harness::SuitePoint& pt : points) {
    std::vector<double> row;
    for (const core::WeightScheme scheme : all_schemes()) {
      const Scope span(tracer, "core.tgi");
      row.push_back(calc.compute(pt.measurements, scheme).tgi);
    }
    tgis.push_back(std::move(row));
  }
  return tgis;
}

/// Rows of a committed golden table: the first `columns` whitespace-split
/// fields of every line between the dashed rule under `header` and the
/// next blank or non-numeric line.
std::vector<std::vector<std::string>> golden_rows(const std::string& path,
                                                  const std::string& header,
                                                  std::size_t columns) {
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line) && line.rfind(header, 0) != 0) {
  }
  std::getline(in, line);  // dashed rule
  std::vector<std::vector<std::string>> rows;
  while (std::getline(in, line) && !line.empty() &&
         std::isdigit(static_cast<unsigned char>(line[0])) != 0) {
    std::istringstream fields(line);
    std::vector<std::string> row;
    std::string field;
    while (row.size() < columns && fields >> field) row.push_back(field);
    rows.push_back(std::move(row));
  }
  if (rows.empty()) throw std::runtime_error("no golden rows in " + path);
  return rows;
}

/// The paper-default seed must reproduce the committed Figure 5 and
/// Figure 6 TGI values (4 decimals, as the harnesses print them).
void check_goldens(const std::string& root,
                   const std::vector<harness::SuitePoint>& points,
                   const std::vector<std::vector<double>>& tgis) {
  const std::string dir = root + "/tests/data/golden/";
  const auto fig5 = golden_rows(dir + "fig5_tgi_arithmetic.txt",
                                "cores  TGI (AM)", 2);
  const auto fig6 = golden_rows(dir + "fig6_tgi_weighted.txt",
                                "cores  TGI(W_t)", 5);
  if (fig5.size() != points.size() || fig6.size() != points.size()) {
    throw std::runtime_error("golden sweep length differs from the grid");
  }
  for (std::size_t k = 0; k < points.size(); ++k) {
    const std::string cores = std::to_string(points[k].processes);
    // tgis[k] is {AM, time, energy, power}; Figure 6 prints W_t W_p W_e AM.
    const std::vector<std::string> want5{cores, util::fixed(tgis[k][0], 4)};
    const std::vector<std::string> want6{
        cores, util::fixed(tgis[k][1], 4), util::fixed(tgis[k][3], 4),
        util::fixed(tgis[k][2], 4), util::fixed(tgis[k][0], 4)};
    if (fig5[k] != want5 || fig6[k] != want6) {
      throw std::runtime_error("paper seed does not reproduce the fig5/fig6 "
                               "goldens at " + cores + " cores");
    }
  }
}

class SweepCold final : public Workload {
 public:
  explicit SweepCold(Context ctx) : ctx_(std::move(ctx)) {}

  void setup() override {
    seeds_.clear();
    expected_.clear();
    seeds_.push_back(kPaperSeed);
    for (std::size_t i = 1; i < kSweepPool; ++i) {
      seeds_.push_back(derive_seed(ctx_.seed, i));
    }
    // The serial in-process path: one SuiteRunner behind one shared meter,
    // exactly what the paper harnesses ran before the parallel engine.
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      power::WattsUpMeter meter(wattsup(seeds_[i]));
      harness::SuiteRunner runner(fire_, meter);
      const std::vector<harness::SuitePoint> points =
          runner.sweep(fire_grid());
      power::WattsUpMeter ref_meter(wattsup(seeds_[i] + kReferenceSalt));
      const std::vector<core::BenchmarkMeasurement> reference =
          harness::reference_measurements(systemg_, ref_meter);
      const core::TgiCalculator calc(reference);
      const auto tgis = all_tgis(calc, points, nullptr);
      if (i == 0) check_goldens(ctx_.root, points, tgis);
      expected_.push_back(sweep_text(points, reference, tgis));
    }
  }

  OpOutcome run_op(std::size_t i, Tracer* tracer) override {
    const std::uint64_t seed = seeds_[i % seeds_.size()];
    harness::ParallelSweepConfig cfg;
    cfg.threads = 1;
    const harness::ParallelSweep sweep(
        fire_, instrument(point_factory(seed), tracer, ctx_.double_meter),
        cfg);
    {
      const Scope span(tracer, "harness.sweep");
      points_ = sweep.run(fire_grid());
    }
    std::vector<core::BenchmarkMeasurement> reference;
    {
      const Scope span(tracer, "harness.reference");
      InstrumentedMeter ref_meter(
          std::make_unique<power::WattsUpMeter>(
              wattsup(seed + kReferenceSalt)),
          nullptr, tracer);
      reference = harness::reference_measurements(systemg_, ref_meter);
    }
    const core::TgiCalculator calc(reference);
    auto tgis = all_tgis(calc, points_, tracer);
    OpOutcome outcome;
    outcome.points = points_.size() + 1;
    outcome.check = [this, i, reference = std::move(reference),
                     tgis = std::move(tgis)]() -> std::string {
      if (sweep_text(points_, reference, tgis) ==
          expected_[i % expected_.size()]) {
        return "";
      }
      return "sweep output differs from the serial path";
    };
    return outcome;
  }

  /// Replays the op layer by layer (replay_layers). The first
  /// kFullReplays ops also run the same sweep in worker processes, as
  /// CampaignEngine's process mode runs it, under a "workers" root. Both
  /// must reproduce the op's points exactly.
  bool replay(std::size_t i, Tracer& tracer) override {
    const std::uint64_t seed = seeds_[i % seeds_.size()];
    bool same = replay_layers(seed, tracer);
    if (i >= kFullReplays) return same;
    const Scope workers(&tracer, "workers");
    serve::CampaignSpec entry;
    entry.name = "sweep_cold";
    entry.cluster = fire_;
    entry.reference = systemg_;
    entry.sweep = fire_grid();
    entry.seed = seed;
    entry.granularity = harness::SweepGranularity::kPoint;
    const std::map<std::size_t, harness::PointRecord> records =
        supervised_sweep(entry, workers_dir(), ctx_.worker_exe, tracer);
    same = same && records.size() == points_.size();
    for (const auto& [k, record] : records) {
      same = same && k < points_.size() &&
             measurements_text(record.point.measurements) ==
                 measurements_text(points_[k].measurements);
    }
    return same;
  }

  void finish_op(std::size_t /*i*/) override { fs::remove_all(workers_dir()); }

 private:
  /// Replays every sweep point benchmark by benchmark through the layer
  /// functions SuiteRunner composes — workload build, simulator, timeline
  /// adapter, meter — under a "replay" root.
  bool replay_layers(std::uint64_t seed, Tracer& tracer) const {
    const Scope root(&tracer, "replay");
    const harness::MeterFactory factory = point_factory(seed);
    const harness::SuiteConfig suite;
    const sim::ExecutionSimulator simulator(fire_, suite.tuning);
    bool same = true;
    for (std::size_t k = 0; k < fire_grid().size(); ++k) {
      const std::size_t p = fire_grid()[k];
      const std::unique_ptr<power::PowerMeter> inner = factory(k);
      std::vector<core::BenchmarkMeasurement> ms;
      for (const std::string& bench : harness::suite_benchmarks(suite)) {
        const std::string tag = bench + "@" + std::to_string(p);
        const sim::Workload wl = [&] {
          const Scope span(&tracer, "kernels.build", tag);
          if (bench == "HPL") {
            kernels::HplModelParams params = suite.hpl;
            params.processes = p;
            return kernels::make_hpl_workload(fire_, params);
          }
          if (bench == "STREAM") {
            kernels::StreamModelParams params = suite.stream;
            params.processes = p;
            return kernels::make_stream_workload(fire_, params);
          }
          kernels::IozoneModelParams params = suite.iozone;
          params.nodes = fire_.nodes_for(p);
          return kernels::make_iozone_workload(fire_, params);
        }();
        // Performance exactly as SuiteRunner derives it (MFLOPS, MB/s).
        double work = wl.total_io_bytes().value();
        if (bench == "HPL") work = wl.total_flops().value();
        if (bench == "STREAM") work = wl.total_memory_bytes().value();
        const sim::SimulatedRun run = [&] {
          const Scope span(&tracer, "sim.run", tag);
          return simulator.run(wl);
        }();
        tracer.count("sim.runs");
        const power::PowerSource source = [&] {
          const Scope span(&tracer, "power.as_source", tag);
          return run.timeline.as_source();
        }();
        // The replay meter shares the point's error streams: it consumed
        // the earlier members' measurements in the same order.
        const power::MeterReading reading = [&] {
          const Scope span(&tracer, "power.measure", tag);
          return inner->measure(source, run.elapsed);
        }();
        const auto samples = static_cast<double>(reading.trace.size());
        tracer.count("power.samples", samples);
        tracer.count("power.measures");
        tracer.count("power.samples@" + tag, samples);
        ms.push_back(core::make_measurement(
            bench, work / run.elapsed.value() / 1e6,
            bench == "HPL" ? "MFLOPS" : "MBPS", reading));
      }
      same = same && measurements_text(ms) ==
                         measurements_text(points_[k].measurements);
    }
    return same;
  }

  static power::WattsUpConfig wattsup(std::uint64_t seed) {
    power::WattsUpConfig cfg;
    cfg.seed = seed;
    return cfg;
  }
  std::string workers_dir() const { return ctx_.work_dir + "/workers"; }
  harness::MeterFactory point_factory(std::uint64_t seed) const {
    return harness::wattsup_meter_factory(
        wattsup(seed), harness::suite_benchmarks({}).size());
  }

  Context ctx_;
  sim::ClusterSpec fire_ = sim::fire_cluster();
  sim::ClusterSpec systemg_ = sim::system_g();
  std::vector<std::uint64_t> seeds_;
  std::vector<std::string> expected_;
  std::vector<harness::SuitePoint> points_;  ///< last op's sweep
};

// ---------------------------------------------------------------------------
// campaigns

/// The campaign mix: 8 entries of the 8-point grid (64 sweep points plus 8
/// reference runs = 72 points). It varies the meter (wattsup/model), the
/// fault plane (one faulted entry), the cluster (builtin Fire and the
/// shipped GreenBlade and Dept16 specs) and the granularity; the first two
/// entries share one spec, so one entry's work is shared.
std::string campaign_text(const std::string& root, std::uint64_t seed) {
  const std::string greenblade = root + "/clusters/greenblade.conf";
  const std::string dept16 = root + "/clusters/dept16.conf";
  struct Entry {
    const char* name;
    std::string cluster;
    std::uint64_t seed_index;
    const char* meter;
    const char* granularity;
    const char* faults;
  };
  const std::vector<Entry> entries{
      {"fire-task", "fire", 1, "wattsup", "task", ""},
      {"fire-point", "fire", 1, "wattsup", "point", ""},
      {"fire-model", "fire", 2, "model", "point", ""},
      {"fire-faulted", "fire", 3, "wattsup", "task", "dropout=0.2,failure=0.1"},
      {"greenblade-wattsup", greenblade, 4, "wattsup", "task", ""},
      {"greenblade-model", greenblade, 5, "model", "point", ""},
      {"dept16-wattsup", dept16, 6, "wattsup", "point", ""},
      {"dept16-model", dept16, 7, "model", "task", ""},
  };
  std::string text = "# perfbench campaign\n";
  for (const Entry& e : entries) {
    text += std::string("\n[") + e.name + "]\ncluster = " + e.cluster +
            "\nsweep = 16,32,48,64,80,96,112,128\nseed = " +
            std::to_string(derive_seed(seed, e.seed_index)) +
            "\nmeter = " + e.meter + "\ngranularity = " + e.granularity +
            "\n";
    if (e.faults[0] != '\0') text += std::string("faults = ") + e.faults + "\n";
  }
  return text;
}

std::vector<serve::CampaignSpec> write_and_load_campaign(
    const std::string& root, const std::string& dir, std::uint64_t seed) {
  fs::create_directories(dir);
  const std::string path = dir + "/campaign.conf";
  util::atomic_write_file(path, campaign_text(root, seed));
  return serve::load_campaign_file(path);
}

struct CampaignRun {
  std::string report;
  serve::CampaignStats stats;
};

/// An in-process CampaignEngine run (workers=0, threads=1) and its report.
CampaignRun run_campaign(const std::vector<serve::CampaignSpec>& entries,
                         const std::string& cache_dir,
                         const std::string& outdir) {
  serve::CampaignConfig cfg;
  cfg.cache_dir = cache_dir;
  cfg.outdir = outdir;
  cfg.workers = 0;
  cfg.threads = 1;
  serve::CampaignEngine engine(std::move(cfg));
  std::ostringstream report;
  CampaignRun run;
  run.stats = engine.run(entries, report);
  run.report = report.str();
  return run;
}

/// The meters serve::run_worker builds for an entry's sweep points.
harness::MeterFactory campaign_meters(const serve::CampaignSpec& entry,
                                      std::size_t stride) {
  if (entry.exact_meter) {
    return harness::model_meter_factory(util::seconds(0.5));
  }
  power::WattsUpConfig wcfg;
  wcfg.seed = entry.seed;
  return harness::wattsup_meter_factory(wcfg, stride);
}

/// An entry's reference run as the engine journals it (meter seed + 1).
harness::PointRecord reference_record(const serve::CampaignSpec& entry,
                                      Tracer* tracer) {
  std::unique_ptr<power::PowerMeter> inner;
  if (entry.exact_meter) {
    inner = std::make_unique<power::ModelMeter>(util::seconds(0.5));
  } else {
    power::WattsUpConfig wcfg;
    wcfg.seed = entry.seed + 1;
    inner = std::make_unique<power::WattsUpMeter>(wcfg);
  }
  InstrumentedMeter meter(std::move(inner), nullptr, tracer);
  const std::size_t cores = entry.reference.total_cores();
  obs::PointRecorder recorder(0, std::to_string(cores));
  harness::SuitePoint point;
  point.processes = cores;
  point.nodes = entry.reference.nodes;
  point.measurements =
      harness::reference_measurements(entry.reference, meter, {}, &recorder);
  return harness::make_point_record(0, cores, point, &recorder);
}

/// An entry's sweep records computed on the serial in-process path: one
/// SuiteRunner (RobustSuiteRunner when faulted) per point behind the
/// point's own meter, as serve::run_worker does at granularity=point, with
/// the per-point recorders whose events the engine journals.
std::map<std::size_t, harness::PointRecord> serial_records(
    const serve::CampaignSpec& entry) {
  const harness::SuiteConfig suite;
  std::map<std::size_t, harness::PointRecord> records;
  for (std::size_t k = 0; k < entry.sweep.size(); ++k) {
    const std::size_t value = entry.sweep[k];
    obs::PointRecorder recorder(k, std::to_string(value));
    if (entry.faulted()) {
      const harness::RobustConfig robust = serve::spec_robust_config(entry);
      const std::unique_ptr<power::PowerMeter> meter = campaign_meters(
          entry, harness::robust_measurements_per_point(suite, robust))(k);
      harness::RobustSuiteRunner runner(entry.cluster, *meter,
                                        harness::FaultPlan(entry.faults()),
                                        robust, suite, k);
      runner.attach_recorder(&recorder);
      records.emplace(k, harness::make_robust_point_record(
                             k, value, runner.run_suite(value), &recorder));
    } else {
      const std::unique_ptr<power::PowerMeter> meter = campaign_meters(
          entry, harness::suite_benchmarks(suite).size())(k);
      harness::SuiteRunner runner(entry.cluster, *meter, suite);
      runner.attach_recorder(&recorder);
      records.emplace(k, harness::make_point_record(
                             k, value, runner.run_suite(value), &recorder));
    }
  }
  return records;
}

/// Sum of one point's TGI values as the engine reports them: every weight
/// scheme, or for a faulted entry the arithmetic-mean TGI over the
/// surviving benchmarks. 0 for a point that lost every benchmark.
double point_tgi(const core::TgiCalculator& calc,
                 const std::vector<core::BenchmarkMeasurement>& ms,
                 bool faulted, Tracer* tracer) {
  if (ms.empty()) return 0.0;
  if (faulted) {
    const Scope span(tracer, "core.tgi");
    return calc.compute_partial(ms, core::WeightScheme::kArithmeticMean)
        .result.tgi;
  }
  double sum = 0.0;
  for (const core::WeightScheme scheme : all_schemes()) {
    const Scope span(tracer, "core.tgi");
    sum += calc.compute(ms, scheme).tgi;
  }
  return sum;
}

void note_artifact(Tracer& tracer, const std::string& path) {
  tracer.count("util.artifacts");
  tracer.count("util.publish_bytes", static_cast<double>(fs::file_size(path)));
}

/// An entry's artifacts as CampaignEngine emits them under `outdir`: one
/// measurement CSV per point with results, the reference, and the entry's
/// TGI summary CSV. Each file is a `util.publish` span.
void publish_entry(const serve::CampaignSpec& entry,
                   const std::map<std::size_t, harness::PointRecord>& records,
                   const harness::PointRecord& reference,
                   const std::string& outdir, Tracer& tracer) {
  const std::string dir = outdir + "/" + entry.name;
  fs::create_directories(dir);
  {
    const Scope span(&tracer, "util.publish");
    harness::write_measurements_file(dir + "/reference.csv",
                                     reference.point.measurements);
  }
  note_artifact(tracer, dir + "/reference.csv");
  const core::TgiCalculator calc(reference.point.measurements);
  std::vector<std::vector<std::string>> rows;
  for (const auto& [k, record] : records) {
    const std::vector<core::BenchmarkMeasurement>& ms =
        record.point.measurements;
    if (ms.empty()) continue;
    const std::string path =
        dir + "/point_" + std::to_string(entry.sweep[k]) + ".csv";
    {
      const Scope span(&tracer, "util.publish");
      harness::write_measurements_file(path, ms);
    }
    note_artifact(tracer, path);
    std::vector<std::string> row{std::to_string(entry.sweep[k])};
    if (entry.faulted()) {
      row.push_back(util::fixed(
          calc.compute_partial(ms, core::WeightScheme::kArithmeticMean)
              .result.tgi,
          6));
    } else {
      for (const core::WeightScheme scheme : all_schemes()) {
        row.push_back(util::fixed(calc.compute(ms, scheme).tgi, 6));
      }
    }
    rows.push_back(std::move(row));
  }
  {
    const Scope span(&tracer, "util.publish");
    util::AtomicFile summary(dir + "/summary.csv");
    util::CsvWriter csv(summary.stream());
    for (const auto& row : rows) csv.write_row(row);
    summary.commit();
  }
  note_artifact(tracer, dir + "/summary.csv");
}

/// The read path without publication: every entry's sweep shard and
/// reference shard looked up in a cache filled in set-up, then TGI for every
/// point — what a warm CampaignEngine run does before it writes artifacts.
/// Its only file-system work is reading cached shards, so file-system load
/// on the host barely moves it.
class CacheWarm final : public Workload {
 public:
  explicit CacheWarm(Context ctx) : ctx_(std::move(ctx)) {}

  void setup() override {
    fs::remove_all(ctx_.work_dir);
    entries_ = write_and_load_campaign(ctx_.root, ctx_.work_dir + "/input",
                                       ctx_.seed);
    // Fill the cache with the records the engine would bank, computed on
    // the serial in-process path; they are also the truth every op's
    // served records must equal.
    const harness::ResultCache cache(warm_cache_dir(ctx_));
    expected_.clear();
    for (const serve::CampaignSpec& entry : entries_) {
      const std::map<std::size_t, harness::PointRecord> ref{
          {0, reference_record(entry, nullptr)}};
      cache.store(serve::reference_spec_hash(entry), "plain",
                  {entry.reference.total_cores()}, ref);
      const auto records = serial_records(entry);
      cache.store(serve::spec_hash(entry), serve::spec_mode(entry),
                  entry.sweep, records);
      expected_ += measurements_text(ref.at(0).point.measurements);
      for (const auto& [k, record] : records) {
        if (!record.point.measurements.empty()) {
          expected_ += measurements_text(record.point.measurements);
        }
      }
    }
  }

  OpOutcome run_op(std::size_t /*i*/, Tracer* tracer) override {
    const harness::ResultCache cache(warm_cache_dir(ctx_));
    // Served records in entry order: each entry's reference, then its sweep.
    std::vector<std::vector<core::BenchmarkMeasurement>> served;
    double tgi_sum = 0.0;
    OpOutcome outcome;
    for (const serve::CampaignSpec& entry : entries_) {
      const std::uint64_t hash = serve::spec_hash(entry);
      harness::CacheLookup sweep;
      harness::CacheLookup ref;
      {
        const Scope span(tracer, "harness.cache_lookup");
        sweep = cache.lookup(hash, serve::spec_mode(entry), entry.sweep);
      }
      {
        const Scope span(tracer, "harness.cache_lookup");
        ref = cache.lookup(serve::reference_spec_hash(entry), "plain",
                           {entry.reference.total_cores()});
      }
      if (!ref.hit(0) || sweep.completed.size() != entry.sweep.size()) {
        const std::string error = "cache miss in [" + entry.name + "]";
        outcome.check = [error] { return error; };
        return outcome;
      }
      served.push_back(std::move(ref.completed.at(0).point.measurements));
      const core::TgiCalculator calc(served.back());
      for (auto& [k, record] : sweep.completed) {
        count(tracer, "harness.retries",
              static_cast<double>(record.counters.retries));
        tgi_sum += point_tgi(calc, record.point.measurements, entry.faulted(),
                             tracer);
        served.push_back(std::move(record.point.measurements));
      }
      outcome.points += entry.sweep.size() + 1;
    }
    count(tracer, "campaign.hits", static_cast<double>(outcome.points));
    count(tracer, "campaign.points", static_cast<double>(outcome.points));
    outcome.check = [this, served = std::move(served),
                     tgi_sum]() -> std::string {
      std::string text;
      for (const auto& ms : served) {
        if (!ms.empty()) text += measurements_text(ms);
      }
      if (text == expected_ && tgi_sum > 0.0) return "";
      return "served records differ from the serial path";
    };
    return outcome;
  }

  /// Under a "detail" root, times each entry's shard decode on its own,
  /// apart from the lookup that wraps it, and the encode of every served
  /// record. The first kFullReplays ops then finish a warm CampaignEngine
  /// run step by step under a "replay" root — each served shard stored back
  /// into a cache of the replay's own, every artifact published — and run
  /// the engine itself on that cache ("serve.engine"). The engine must
  /// serve every point from the cache and print the same report each time.
  bool replay(std::size_t i, Tracer& tracer) override {
    const harness::ResultCache cache(warm_cache_dir(ctx_));
    {
      const Scope root(&tracer, "detail");
      for (const serve::CampaignSpec& entry : entries_) {
        const std::uint64_t hash = serve::spec_hash(entry);
        const std::string text = read_file(cache.shard_path(hash));
        const harness::JournalState state = [&] {
          const Scope span(&tracer, "harness.decode");
          return harness::reconcile_journal(harness::read_journal(text), hash,
                                            serve::spec_mode(entry),
                                            entry.sweep);
        }();
        if (state.completed.size() != entry.sweep.size()) return false;
        for (const auto& [k, record] : state.completed) {
          const Scope span(&tracer, "harness.encode");
          const std::string line = harness::encode_point_record(record);
          tracer.count("harness.record_bytes",
                       static_cast<double>(line.size()));
          tracer.count("harness.records");
        }
      }
    }
    if (i >= kFullReplays) return true;
    const std::string dir = replay_dir();
    const harness::ResultCache replay_cache(dir + "/cache");
    {
      const Scope root(&tracer, "replay");
      for (const serve::CampaignSpec& entry : entries_) {
        const std::uint64_t hash = serve::spec_hash(entry);
        const std::string mode = serve::spec_mode(entry);
        const std::uint64_t ref_hash = serve::reference_spec_hash(entry);
        const std::vector<std::size_t> ref_values{
            entry.reference.total_cores()};
        const harness::CacheLookup sweep =
            cache.lookup(hash, mode, entry.sweep);
        const harness::CacheLookup ref =
            cache.lookup(ref_hash, "plain", ref_values);
        if (!ref.hit(0)) return false;
        {
          const Scope span(&tracer, "harness.cache_store");
          replay_cache.store(hash, mode, entry.sweep, sweep.completed);
        }
        {
          const Scope span(&tracer, "harness.cache_store");
          replay_cache.store(ref_hash, "plain", ref_values, ref.completed);
        }
        publish_entry(entry, sweep.completed, ref.completed.at(0),
                      dir + "/out", tracer);
      }
      {
        const Scope span(&tracer, "util.publish");
        util::AtomicFile provenance(dir + "/out/provenance.json");
        provenance.stream() << "{\"replay\": true}\n";
        provenance.commit();
      }
      note_artifact(tracer, dir + "/out/provenance.json");
      tracer.count("util.publish_runs");
    }
    CampaignRun run;
    {
      const Scope span(&tracer, "serve.engine");
      run = run_campaign(entries_, dir + "/cache", dir + "/engine_out");
    }
    if (run.stats.computed != 0) return false;
    if (engine_report_.empty()) engine_report_ = run.report;
    return run.report == engine_report_;
  }

  void finish_op(std::size_t /*i*/) override { fs::remove_all(replay_dir()); }

 private:
  std::string replay_dir() const { return ctx_.work_dir + "/replay"; }

  Context ctx_;
  std::vector<serve::CampaignSpec> entries_;
  std::string expected_;
  std::string engine_report_;  ///< the first replayed engine run's report
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"sweep_cold", "cache_warm"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& ctx) {
  if (name == "sweep_cold") return std::make_unique<SweepCold>(ctx);
  if (name == "cache_warm") return std::make_unique<CacheWarm>(ctx);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string warm_cache_dir(const Context& ctx) {
  return ctx.work_dir + "/warm_cache";
}

void corrupt_cache_shard(const std::string& cache_dir) {
  std::vector<fs::path> shards;
  for (const auto& item : fs::directory_iterator(cache_dir)) {
    if (item.path().extension() == ".tgij") shards.push_back(item.path());
  }
  if (shards.empty()) throw std::runtime_error("no cache shard to corrupt");
  std::sort(shards.begin(), shards.end());
  std::string bytes = read_file(shards.front().string());
  // Past the header line, inside the first point record.
  const std::size_t header_end = bytes.find('\n');
  if (header_end == std::string::npos || header_end + 40 >= bytes.size()) {
    throw std::runtime_error("cache shard too short to corrupt");
  }
  bytes[header_end + 40] = static_cast<char>(bytes[header_end + 40] ^ 0x01);
  util::atomic_write_file(shards.front().string(), bytes);
}

}  // namespace perfbench
