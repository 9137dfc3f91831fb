// tgi_perfbench — the repository benchmark.
//
//   tgi_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--root <checkout>] [--work <dir>] [--reports <dir>]
//   tgi_perfbench --selftest [--root ...] [--work ...]
//
// A run sets the workload up, then runs ops in a closed loop from one
// thread for --seconds — and past that until op_ms_p90 has at least ten
// samples above it — checking every op's output. --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced ops,
// replays each traced op layer by layer, and reports the per-layer
// metrics. Every run writes a versioned report with the host facts into
// --reports; the last stdout line is the result JSON.
//
// Every gated timing is a 90th percentile. On a 4-vCPU KVM guest (Xeon,
// shared with other tenants) op latency switches between a fast and a
// ~1.5x slower regime every 0.1-1 s, and the share of time spent slow
// moved between 29% and 79% from one 20-s run to the next. A median or a
// mean sits wherever that share puts it (25-50% apart between runs of the
// same code); the 90th percentile stays on the slow regime, which every
// run saw, and still moves with the code's cost. The medians and means are
// kept in the run's report, ungated.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "host.h"
#include "tracer.h"
#include "util/log.h"
#include "workloads.h"

namespace pb = perfbench;
namespace fs = std::filesystem;

namespace {

/// Set-ups per untraced run, spread over the op loop so they sample the
/// same host regimes as the ops; setup_s is their 90th percentile.
constexpr std::size_t kSetupRepeats = 15;
/// Ops run (and checked) before any is timed.
constexpr double kWarmupSeconds = 0.5;
/// The 90th percentiles need ten samples above them: at least 100 ops.
constexpr std::size_t kMinOps = 100;
/// Hard stop for the op loop, far inside the 180 s a run may take.
constexpr double kMaxLoopSeconds = 120.0;
/// Traced ops whose spans go to the span file.
constexpr std::uint64_t kSpanFileOps = 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string root = ".";
  std::string work = ".bench_build/perfbench/work";
  std::string reports = ".bench_build/perfbench/reports";
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      o.trace = value == "1";
    } else if (key == "--root") {
      o.root = value;
    } else if (key == "--work") {
      o.work = value;
    } else if (key == "--reports") {
      o.reports = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!o.selftest && (!have_workload || !have_seed)) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  o.root = fs::absolute(o.root).lexically_normal().string();
  o.work = fs::absolute(o.work).lexically_normal().string();
  o.reports = fs::absolute(o.reports).lexically_normal().string();
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// The run's report only, never gated: the medians and means the 90th
  /// percentiles stand in for, and the sample count.
  std::vector<Metric> info;
  std::vector<double> setup_runs_s;  ///< every set-up of the run
};

struct Loop {
  std::vector<double> op_ms;         ///< timed untraced op latencies
  std::vector<double> op_cpu_ms;     ///< their CPU, reaped children included
  std::vector<double> op_points;     ///< their points delivered
  std::vector<double> traced_op_ms;  ///< traced op latencies
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
};

/// Why an op failed ("" when it did not): its exception, or its check.
std::string failure(const std::string& thrown, const pb::OpOutcome& outcome) {
  if (!thrown.empty()) return thrown;
  if (!outcome.check) return "op reported no output check";
  try {
    return outcome.check();
  } catch (const std::exception& ex) {
    return std::string("check: ") + ex.what();
  }
}

void note(Loop& loop, const std::string& error) {
  ++loop.attempted;
  if (!error.empty()) {
    ++loop.failed;
    if (loop.errors.size() < 5) loop.errors.push_back(error);
  }
}

/// One op with its latency and CPU (this process plus reaped children),
/// recorded when `timed`; the output check runs after the clocks stop.
/// Returns why it failed, or "".
std::string timed_op(pb::Workload& wl, std::size_t i, Loop& loop,
                     bool timed) {
  pb::OpOutcome outcome;
  std::string thrown;
  const double cpu0 = pb::cpu_ms_with_children();
  const std::int64_t t0 = pb::now_ns();
  try {
    outcome = wl.run_op(i, nullptr);
  } catch (const std::exception& ex) {
    thrown = ex.what();
  }
  const std::int64_t t1 = pb::now_ns();
  if (timed) {
    loop.op_cpu_ms.push_back(pb::cpu_ms_with_children() - cpu0);
    loop.op_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    loop.op_points.push_back(static_cast<double>(outcome.points));
  }
  return failure(thrown, outcome);
}

/// Closed loop from one thread: kWarmupSeconds of untimed ops, then
/// `seconds` of timed ones; untraced runs go on until they have kMinOps.
/// `extra_setups` calls of `set_up_again` are spread evenly over the timed
/// part (any left over run after it).
Loop run_loop(pb::Workload& wl, double seconds, pb::Tracer* tracer,
              std::size_t extra_setups,
              const std::function<void()>& set_up_again) {
  Loop loop;
  const std::size_t min_ops = tracer == nullptr ? kMinOps : 1;
  const std::int64_t start = pb::now_ns();
  const auto elapsed = [start] {
    return static_cast<double>(pb::now_ns() - start) / 1e9;
  };
  std::size_t setups = 0;
  for (std::size_t i = 0;; ++i) {
    const double t = elapsed();
    if ((t >= kWarmupSeconds + seconds && loop.op_ms.size() >= min_ops) ||
        t >= kMaxLoopSeconds) {
      break;
    }
    if (setups < extra_setups &&
        t >= kWarmupSeconds + seconds * static_cast<double>(setups) /
                                  static_cast<double>(extra_setups)) {
      set_up_again();
      ++setups;
    }
    note(loop, timed_op(wl, i, loop, t >= kWarmupSeconds));
    wl.finish_op(i);
    if (tracer != nullptr) {
      // Traced op: the same entry calls with spans around them (decorated
      // meters), then the layer-by-layer replay under the same op id.
      tracer->set_op(i);
      pb::OpOutcome outcome;
      std::string thrown;
      const std::int64_t t0 = pb::now_ns();
      try {
        const pb::Scope op(tracer, "op");
        outcome = wl.run_op(i, tracer);
      } catch (const std::exception& ex) {
        thrown = ex.what();
      }
      loop.traced_op_ms.push_back(static_cast<double>(pb::now_ns() - t0) / 1e6);
      std::string error = failure(thrown, outcome);
      if (error.empty()) {
        try {
          if (!wl.replay(i, *tracer)) {
            error = "layer replay disagrees with the op's output";
          }
        } catch (const std::exception& ex) {
          error = std::string("replay: ") + ex.what();
        }
      }
      note(loop, error);
      wl.finish_op(i);
    }
  }
  for (; setups < extra_setups; ++setups) set_up_again();
  if (loop.op_ms.size() < min_ops) {
    std::cerr << "perfbench: only " << loop.op_ms.size()
              << " ops before the loop limit; op_ms_p90 has fewer than ten "
                 "samples above it\n";
  }
  return loop;
}

/// Sets the workload up in a fresh `dir`, appending the set-up's seconds to
/// `times`.
std::unique_ptr<pb::Workload> set_up(const Options& o, const std::string& name,
                                     const std::string& dir, bool double_meter,
                                     std::vector<double>& times) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  pb::Context ctx;
  ctx.root = o.root;
  ctx.work_dir = dir;
  ctx.worker_exe = PERFBENCH_WORKER_EXE;
  ctx.seed = o.seed;
  ctx.double_meter = double_meter;
  std::unique_ptr<pb::Workload> wl = pb::make_workload(name, ctx);
  const std::int64_t t0 = pb::now_ns();
  wl->setup();
  times.push_back(static_cast<double>(pb::now_ns() - t0) / 1e9);
  return wl;
}

std::vector<Metric> end_to_end(const Loop& loop,
                               const std::vector<double>& setups) {
  std::vector<double> cpu_per_point;
  for (std::size_t k = 0; k < loop.op_ms.size(); ++k) {
    if (loop.op_points[k] > 0.0) {
      cpu_per_point.push_back(loop.op_cpu_ms[k] / loop.op_points[k]);
    }
  }
  return {
      {"setup_s", percentile(setups, 90.0), "s"},
      {"op_ms_p90", percentile(loop.op_ms, 90.0), "ms"},
      {"cpu_ms_per_point_p90", percentile(cpu_per_point, 90.0), "ms"},
      {"peak_rss_mb", pb::peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> ungated_info(const Loop& loop,
                                 const std::vector<double>& setups) {
  double total_ms = 0.0;
  double cpu_ms = 0.0;
  double points = 0.0;
  for (std::size_t k = 0; k < loop.op_ms.size(); ++k) {
    total_ms += loop.op_ms[k];
    cpu_ms += loop.op_cpu_ms[k];
    points += loop.op_points[k];
  }
  return {
      {"timed_ops", static_cast<double>(loop.op_ms.size()), "count"},
      {"setup_s_p50", median(setups), "s"},
      {"op_ms_p10", percentile(loop.op_ms, 10.0), "ms"},
      {"op_ms_p50", median(loop.op_ms), "ms"},
      {"points_per_s", total_ms > 0.0 ? points / total_ms * 1e3 : 0.0,
       "points/s"},
      {"cpu_ms_per_point_mean", points > 0.0 ? cpu_ms / points : 0.0, "ms"},
  };
}

/// Per-layer metrics from the traced run's spans and counters.
std::vector<Metric> per_layer(const Loop& loop, const pb::Tracer& tracer) {
  const std::vector<pb::Span>& spans = tracer.spans();
  std::map<std::string, std::vector<double>> self_us;
  std::map<std::string, double> self_total_us;
  // The steps a warm engine run is made of, each timed on its own in the
  // same traced op: the op's lookups and TGI, the replay's stores and
  // publication.
  const std::vector<std::string> engine_steps{
      "harness.cache_lookup", "core.tgi", "harness.cache_store",
      "util.publish"};
  std::map<std::uint64_t, double> engine_us;
  std::map<std::uint64_t, double> engine_steps_us;
  for (const pb::Span& s : spans) {
    self_us[s.name].push_back(s.self_us());
    self_total_us[s.name] += s.self_us();
    if (!s.tag.empty()) self_us[s.name + "@" + s.tag].push_back(s.self_us());
    if (s.name == "serve.engine") engine_us[s.op] += s.duration_us();
    if (std::find(engine_steps.begin(), engine_steps.end(), s.name) !=
        engine_steps.end()) {
      engine_steps_us[s.op] += s.duration_us();
    }
  }
  const std::map<std::string, double>& counters = tracer.counters();
  const auto counter = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto med = [&self_us](const std::string& name) {
    const auto it = self_us.find(name);
    return it == self_us.end() ? 0.0 : median(it->second);
  };
  const double ops = static_cast<double>(loop.traced_op_ms.size());
  // The part of each engine run that its steps do not account for.
  std::vector<double> unattributed;
  for (const auto& [op, us] : engine_us) {
    unattributed.push_back(us - engine_steps_us[op]);
  }
  const double traced_p90 = percentile(loop.traced_op_ms, 90.0);
  const double untraced_p90 = percentile(loop.op_ms, 90.0);

  std::vector<Metric> m{
      {"kernels.build_us", med("kernels.build"), "us"},
      {"sim.run_us", med("sim.run"), "us"},
      {"sim.runs", ratio(counter("sim.runs"), ops), "count"},
      {"power.measure_us", med("power.measure"), "us"},
      {"power.samples",
       ratio(counter("power.samples"), counter("power.measures")), "count"},
      {"power.ns_per_sample",
       ratio(self_total_us["power.measure"] * 1e3, counter("power.samples")),
       "ns"},
      {"power.as_source_us", med("power.as_source"), "us"},
  };
  // One meter call per benchmark at 128 ranks (sweep_cold's replay).
  for (const auto& [bench, name] : {std::pair{"HPL", "hpl"},
                                    std::pair{"STREAM", "stream"},
                                    std::pair{"IOzone", "iozone"}}) {
    const std::string tag = std::string(bench) + "@128";
    const auto it = self_us.find("power.measure@" + tag);
    const double calls =
        it == self_us.end() ? 0.0 : static_cast<double>(it->second.size());
    m.push_back({std::string("power.") + name + "_128.measure_us",
                 med("power.measure@" + tag), "us"});
    m.push_back({std::string("power.") + name + "_128.samples",
                 ratio(counter("power.samples@" + tag), calls), "count"});
  }
  const std::vector<Metric> rest{
      {"core.tgi_us", med("core.tgi"), "us"},
      {"harness.sweep_us", med("harness.sweep"), "us"},
      {"harness.reference_us", med("harness.reference"), "us"},
      {"harness.retries", ratio(counter("harness.retries"), ops), "count"},
      {"harness.encode_us", med("harness.encode"), "us"},
      {"harness.record_bytes",
       ratio(counter("harness.record_bytes"), counter("harness.records")),
       "bytes"},
      {"harness.decode_us", med("harness.decode"), "us"},
      {"harness.cache_lookup_us", med("harness.cache_lookup"), "us"},
      {"harness.cache_hit_ratio",
       ratio(counter("campaign.hits"), counter("campaign.points")), "ratio"},
      {"op.unattributed_us", med("op"), "us"},
      {"trace.op_ms_p90", traced_p90, "ms"},
      {"trace.overhead_pct",
       untraced_p90 > 0.0 ? (traced_p90 / untraced_p90 - 1.0) * 100.0 : 0.0,
       "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  // Layers the first traced ops' replays reach: cache store, publication
  // and the engine itself on cache_warm, worker supervision on sweep_cold
  // (0 on the other workload).
  const std::vector<Metric> engine{
      {"harness.cache_store_us", med("harness.cache_store"), "us"},
      {"util.publish_us", med("util.publish"), "us"},
      {"util.artifacts",
       ratio(counter("util.artifacts"), counter("util.publish_runs")),
       "count"},
      {"util.publish_bytes",
       ratio(counter("util.publish_bytes"), counter("util.publish_runs")),
       "bytes"},
      {"serve.engine_us", med("serve.engine"), "us"},
      {"serve.unattributed_us", median(unattributed), "us"},
      {"serve.supervise_us", med("serve.supervise"), "us"},
      {"serve.worker_attempts",
       ratio(counter("serve.worker_attempts"), counter("serve.supervised_runs")),
       "count"},
      {"serve.restarts",
       ratio(counter("serve.restarts"), counter("serve.supervised_runs")),
       "count"},
  };
  m.insert(m.end(), engine.begin(), engine.end());
  return m;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_json(const RunResult& r, bool correct) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

/// The versioned per-run report: schema, run parameters, host facts and
/// the result.
void write_report(const Options& o, const pb::HostFacts& host,
                  const RunResult& r, bool correct) {
  fs::create_directories(o.reports);
  const std::string path = o.reports + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "{\"schema\": \"tgi-perfbench/1\", \"workload\": "
      << json_string(o.workload) << ", \"seed\": " << o.seed
      << ", \"seconds\": " << json_number(o.seconds)
      << ", \"trace\": " << (o.trace ? 1 : 0) << ",\n \"host\": {\"nproc\": "
      << host.nproc
      << ", \"effective_cores\": " << json_number(host.effective_cores)
      << ", \"build_type\": " << json_string(host.build_type)
      << ", \"tgi_dtype\": " << json_string(host.dtype)
      << ", \"compiler\": " << json_string(host.compiler)
      << "},\n \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(r.errors[i]);
  }
  out << "],\n \"setup_runs_s\": [";
  for (std::size_t i = 0; i < r.setup_runs_s.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_number(r.setup_runs_s[i]);
  }
  out << "],\n \"info\": {";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(r.info[i].name) << ": "
        << json_number(r.info[i].value);
  }
  out << "},\n \"result\": " << result_json(r, correct) << "}\n";
}

RunResult run_workload(const Options& o, const std::string& name,
                       double seconds, bool trace, bool double_meter) {
  RunResult r;
  fs::remove_all(o.work);
  std::unique_ptr<pb::Workload> wl =
      set_up(o, name, o.work + "/" + name, double_meter, r.setup_runs_s);
  // Further set-ups of throwaway instances, timed while the ops run.
  const std::string spare = o.work + "/setup";
  const auto set_up_again = [&] {
    (void)set_up(o, name, spare, double_meter, r.setup_runs_s);
    fs::remove_all(spare);
  };
  pb::Tracer tracer;
  const Loop loop = run_loop(*wl, seconds, trace ? &tracer : nullptr,
                             trace ? 0 : kSetupRepeats - 1, set_up_again);
  wl.reset();
  fs::remove_all(o.work);
  r.attempted = loop.attempted;
  r.failed = loop.failed;
  r.errors = loop.errors;
  if (trace) {
    r.metrics = per_layer(loop, tracer);
  } else {
    r.metrics = end_to_end(loop, r.setup_runs_s);
    r.info = ungated_info(loop, r.setup_runs_s);
  }
  if (trace) {
    fs::create_directories(o.reports);
    tracer.write_json(o.reports + "/" + name + "-seed" +
                      std::to_string(o.seed) + "-spans.json",
                      kSpanFileOps);
  }
  return r;
}

void print_metrics(const std::string& label, const RunResult& r) {
  for (const Metric& m : r.metrics) {
    std::cout << label << ' ' << m.name << " = " << json_number(m.value)
              << ' ' << m.unit << "\n";
  }
  for (const Metric& m : r.info) {
    std::cout << label << " (not gated) " << m.name << " = "
              << json_number(m.value) << ' ' << m.unit << "\n";
  }
}

// --- self-tests ------------------------------------------------------------

bool expect(bool ok, const std::string& what) {
  std::cout << "[selftest] " << what << ": " << (ok ? "OK" : "FAILED") << "\n";
  return ok;
}

double metric(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return -1.0;
}

/// The self-checks beside run.py's metric-list check. The last stdout line
/// is a JSON object: whether the checks passed, and sweep_cold op_ms_p90
/// without and with a doubled meter, which run.py compares with the
/// metric's bound in BENCHMARK.json.
int selftest(Options o) {
  bool ok = true;
  o.seed = 1;
  // 1. Flipping one byte of the warm cache fails the next cache_warm op.
  {
    std::vector<double> setup_runs_s;
    const std::string dir = o.work + "/cache_warm";
    std::unique_ptr<pb::Workload> wl =
        set_up(o, "cache_warm", dir, false, setup_runs_s);
    pb::Context ctx;
    ctx.work_dir = dir;
    pb::corrupt_cache_shard(pb::warm_cache_dir(ctx));
    const std::string error = failure("", wl->run_op(0, nullptr));
    ok &= expect(!error.empty(),
                 "corrupted warm cache counts a failed cache_warm op (" +
                     error + ")");
    wl.reset();
    fs::remove_all(o.work);
  }
  // 2. Doubling meter work in sweep_cold, measured here, judged by run.py.
  const RunResult base = run_workload(o, "sweep_cold", 3.0, false, false);
  const RunResult doubled = run_workload(o, "sweep_cold", 3.0, false, true);
  ok &= expect(base.failed == 0 && doubled.failed == 0,
               "sweep_cold with a doubled meter fails no op");
  std::cout << "{\"passed\": " << (ok ? "true" : "false")
            << ", \"meter_doubling\": {\"metric\": \"op_ms_p90\", \"before\": "
            << json_number(metric(base, "op_ms_p90"))
            << ", \"after\": " << json_number(metric(doubled, "op_ms_p90"))
            << "}}" << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    tgi::util::Logger::instance().set_level(tgi::util::LogLevel::kError);
    if (o.selftest) return selftest(o);
    const pb::HostFacts host = pb::probe_host();
    std::cout << "host: nproc=" << host.nproc
              << " effective_cores=" << json_number(host.effective_cores)
              << " build=" << host.build_type << " dtype=" << host.dtype
              << " compiler=" << host.compiler << "\n";
    const RunResult r = run_workload(o, o.workload, o.seconds, o.trace, false);
    const bool correct = r.failed == 0;
    for (const std::string& e : r.errors) {
      std::cout << "op failed: " << e << "\n";
    }
    std::cout << o.workload << ": " << r.attempted << " ops attempted, "
              << r.failed << " failed\n";
    print_metrics(o.workload, r);
    write_report(o, host, r, correct);
    std::cout << result_json(r, correct) << std::endl;
    return 0;
  } catch (const std::exception& ex) {
    std::cerr << "tgi_perfbench: " << ex.what() << "\n";
    return 1;
  }
}
