#include "harness/faults.h"

#include <cmath>

#include "util/config.h"
#include "util/error.h"
#include "util/format.h"
#include "util/rng.h"

namespace tgi::harness {

namespace {

// Stream tags keeping meter-fault and run-fault decisions on disjoint
// RNG streams even for colliding indices.
constexpr std::uint64_t kMeterStream = 0x6d657465722d664cULL;
constexpr std::uint64_t kRunStream = 0x72756e2d6661756cULL;

/// Folds one index into a seed (SplitMix64 pass), chainable so a decision
/// keyed on (point, benchmark, attempt) gets its own stream.
std::uint64_t mix(std::uint64_t seed, std::uint64_t x) {
  util::SplitMix64 sm(seed ^ (x + 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

void require_rate(double rate, const char* what) {
  TGI_REQUIRE(rate >= 0.0 && rate <= 1.0,
              what << " must be in [0, 1], got " << rate);
}

}  // namespace

bool FaultSpec::enabled() const {
  return dropout_burst_rate > 0.0 || stuck_rate > 0.0 || spike_rate > 0.0 ||
         failure_rate > 0.0 || timeout_rate > 0.0 || truncation_rate > 0.0;
}

void FaultSpec::validate() const {
  require_rate(dropout_burst_rate, "dropout_burst_rate");
  require_rate(stuck_rate, "stuck_rate");
  require_rate(spike_rate, "spike_rate");
  require_rate(failure_rate, "failure_rate");
  require_rate(timeout_rate, "timeout_rate");
  require_rate(truncation_rate, "truncation_rate");
  TGI_REQUIRE(dropout_burst_rate + stuck_rate + spike_rate <= 1.0,
              "meter fault rates must sum to <= 1");
  TGI_REQUIRE(failure_rate + timeout_rate + truncation_rate <= 1.0,
              "run fault rates must sum to <= 1");
  TGI_REQUIRE(window_fraction > 0.0 && window_fraction < 1.0,
              "window_fraction must be in (0, 1)");
  TGI_REQUIRE(truncation_fraction > 0.0 && truncation_fraction < 1.0,
              "truncation_fraction must be in (0, 1)");
  TGI_REQUIRE(spike_gain_max > 1.0, "spike_gain_max must be > 1");
}

FaultSpec parse_fault_spec(const std::string& text) {
  // Reuse the line-based key=value grammar: commas become newlines.
  std::string lines = text;
  for (char& c : lines) {
    if (c == ',') c = '\n';
  }
  const util::Config cfg = util::Config::parse(lines);
  FaultSpec spec;
  for (const std::string& key : cfg.keys()) {
    TGI_REQUIRE(key == "dropout" || key == "stuck" || key == "spike" ||
                    key == "failure" || key == "timeout" ||
                    key == "truncation" || key == "window" || key == "gain" ||
                    key == "tail" || key == "seed",
                "unknown fault spec key '" << key << "'");
  }
  spec.dropout_burst_rate = cfg.get_double("dropout", spec.dropout_burst_rate);
  spec.stuck_rate = cfg.get_double("stuck", spec.stuck_rate);
  spec.spike_rate = cfg.get_double("spike", spec.spike_rate);
  spec.failure_rate = cfg.get_double("failure", spec.failure_rate);
  spec.timeout_rate = cfg.get_double("timeout", spec.timeout_rate);
  spec.truncation_rate = cfg.get_double("truncation", spec.truncation_rate);
  spec.window_fraction = cfg.get_double("window", spec.window_fraction);
  spec.spike_gain_max = cfg.get_double("gain", spec.spike_gain_max);
  spec.truncation_fraction = cfg.get_double("tail", spec.truncation_fraction);
  spec.seed = static_cast<std::uint64_t>(
      cfg.get_int("seed", static_cast<long long>(spec.seed)));
  spec.validate();
  return spec;
}

std::string fault_spec_summary(const FaultSpec& spec) {
  std::string out;
  auto emit = [&out](const char* key, double value) {
    if (value <= 0.0) return;
    out += key;
    out += '=';
    util::append_shortest(out, value);
    out += ' ';
  };
  emit("dropout", spec.dropout_burst_rate);
  emit("stuck", spec.stuck_rate);
  emit("spike", spec.spike_rate);
  emit("failure", spec.failure_rate);
  emit("timeout", spec.timeout_rate);
  emit("truncation", spec.truncation_rate);
  out += "seed=";
  out += std::to_string(spec.seed);
  return out;
}

FaultPlan::FaultPlan(FaultSpec spec) : spec_(spec) { spec_.validate(); }

MeterFault FaultPlan::meter_fault(std::uint64_t measurement_index) const {
  MeterFault fault;
  const double total =
      spec_.dropout_burst_rate + spec_.stuck_rate + spec_.spike_rate;
  if (total <= 0.0) return fault;
  util::Xoshiro256 rng(mix(mix(spec_.seed, kMeterStream), measurement_index));
  const double u = rng.uniform();
  if (u < spec_.dropout_burst_rate) {
    fault.kind = MeterFaultKind::kDropoutBurst;
  } else if (u < spec_.dropout_burst_rate + spec_.stuck_rate) {
    fault.kind = MeterFaultKind::kStuckAt;
  } else if (u < total) {
    fault.kind = MeterFaultKind::kGainSpike;
  } else {
    return fault;
  }
  fault.window_length = spec_.window_fraction;
  fault.window_start = rng.uniform(0.0, 1.0 - fault.window_length);
  if (fault.kind == MeterFaultKind::kGainSpike) {
    const double g = rng.uniform(1.5, spec_.spike_gain_max);
    fault.gain = rng.uniform() < 0.5 ? g : 1.0 / g;
  }
  return fault;
}

RunFault FaultPlan::run_fault(std::uint64_t point_index,
                              std::uint64_t benchmark_index,
                              std::uint64_t attempt) const {
  RunFault fault;
  const double total =
      spec_.failure_rate + spec_.timeout_rate + spec_.truncation_rate;
  if (total <= 0.0) return fault;
  util::Xoshiro256 rng(mix(
      mix(mix(mix(spec_.seed, kRunStream), point_index), benchmark_index),
      attempt));
  const double u = rng.uniform();
  if (u < spec_.failure_rate) {
    fault.kind = RunFaultKind::kBenchmarkFailure;
  } else if (u < spec_.failure_rate + spec_.timeout_rate) {
    fault.kind = RunFaultKind::kTimeout;
  } else if (u < total) {
    fault.kind = RunFaultKind::kTruncatedTrace;
  }
  return fault;
}

power::PowerTrace apply_meter_fault(const power::PowerTrace& trace,
                                    const MeterFault& fault) {
  if (fault.kind == MeterFaultKind::kNone) return trace;
  TGI_REQUIRE(trace.size() >= 2, "fault injection needs >= 2 samples");
  const auto& samples = trace.samples();
  const double t0 = samples.front().t.value();
  const double span = samples.back().t.value() - t0;
  const double lo = t0 + fault.window_start * span;
  const double hi = lo + fault.window_length * span;
  const auto in_window = [&](const power::PowerSample& s) {
    return s.t.value() >= lo && s.t.value() < hi;
  };

  power::PowerTrace out;
  double stuck_value = 0.0;
  bool stuck_value_set = false;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const power::PowerSample& s = samples[i];
    const bool boundary = i == 0 || i + 1 == samples.size();
    if (!in_window(s)) {
      out.add(s);
      continue;
    }
    switch (fault.kind) {
      case MeterFaultKind::kDropoutBurst:
        // Interior samples in the window are lost; the first and last
        // sample always survive so the reading still spans the run.
        if (boundary) out.add(s);
        break;
      case MeterFaultKind::kStuckAt:
        if (!stuck_value_set) {
          stuck_value = s.watts.value();
          stuck_value_set = true;
        }
        out.add({s.t, util::Watts(stuck_value)});
        break;
      case MeterFaultKind::kGainSpike:
        out.add({s.t, util::Watts(s.watts.value() * fault.gain)});
        break;
      case MeterFaultKind::kNone:
        out.add(s);
        break;
    }
  }
  TGI_CHECK(out.size() >= 2, "fault injection left fewer than 2 samples");
  return out;
}

power::PowerTrace truncate_trace(const power::PowerTrace& trace,
                                 double tail_fraction) {
  TGI_REQUIRE(tail_fraction > 0.0 && tail_fraction < 1.0,
              "tail_fraction must be in (0, 1)");
  TGI_REQUIRE(trace.size() >= 2, "truncation needs >= 2 samples");
  const auto& samples = trace.samples();
  const double t0 = samples.front().t.value();
  const double span = samples.back().t.value() - t0;
  const double cutoff = t0 + (1.0 - tail_fraction) * span;
  power::PowerTrace out;
  for (const power::PowerSample& s : samples) {
    if (s.t.value() <= cutoff) out.add(s);
  }
  // A pathological cutoff before the second sample would starve the
  // integrator; keep the first two samples as the minimal surviving log.
  if (out.size() < 2) {
    power::PowerTrace minimal;
    minimal.add(samples[0]);
    minimal.add(samples[1]);
    return minimal;
  }
  return out;
}

FaultyMeter::FaultyMeter(power::PowerMeter& inner, FaultPlan plan,
                         std::uint64_t measurement_offset)
    : inner_(inner), plan_(std::move(plan)), counter_(measurement_offset) {}

power::MeterReading FaultyMeter::measure(const power::PowerSource& source,
                                         util::Seconds duration) {
  power::MeterReading reading = inner_.measure(source, duration);
  const std::uint64_t index = counter_++;
  power::PowerTrace trace = std::move(reading.trace);
  bool touched = false;
  if (plan_.enabled()) {
    const MeterFault fault = plan_.meter_fault(index);
    if (fault.kind != MeterFaultKind::kNone) {
      trace = apply_meter_fault(trace, fault);
      ++faults_applied_;
      touched = true;
    }
  }
  if (armed_truncation_ > 0.0) {
    trace = truncate_trace(trace, armed_truncation_);
    armed_truncation_ = 0.0;
    touched = true;
  }
  if (!touched) {
    // Bit-identical passthrough: hand back the inner reading untouched.
    reading.trace = std::move(trace);
    return reading;
  }
  return power::summarize(std::move(trace));
}

std::string FaultyMeter::name() const {
  return "Faulty(" + inner_.name() + ")";
}

void FaultyMeter::arm_truncation(double tail_fraction) {
  TGI_REQUIRE(tail_fraction > 0.0 && tail_fraction < 1.0,
              "tail_fraction must be in (0, 1)");
  armed_truncation_ = tail_fraction;
}

}  // namespace tgi::harness
