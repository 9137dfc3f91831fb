#include "serve/spec.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "harness/cache.h"
#include "harness/suite.h"
#include "sim/catalog.h"
#include "sim/spec_io.h"
#include "util/config.h"
#include "util/error.h"

namespace tgi::serve {

namespace {

std::string read_text_file(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  TGI_REQUIRE(in.good(), what << " '" << path << "' cannot be opened");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string trim(const std::string& text) {
  const std::size_t begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const std::size_t end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

void validate_entry_name(const std::string& name) {
  TGI_REQUIRE(!name.empty(), "campaign entry name must not be empty");
  TGI_REQUIRE(name != "." && name != "..",
              "campaign entry name '"
                  << name
                  << "' must not be '.' or '..' (it names an output "
                     "directory)");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    TGI_REQUIRE(ok, "campaign entry name '"
                        << name
                        << "' must use only [A-Za-z0-9._-] (it names an "
                           "output directory)");
  }
}

/// Resolves a campaign cluster reference: a builtin catalog name or a
/// spec-file path (relative paths resolve against `base_dir`).
sim::ClusterSpec resolve_cluster(const std::string& value,
                                 const std::string& base_dir) {
  if (value == "fire") return sim::fire_cluster();
  if (value == "systemg") return sim::system_g();
  std::filesystem::path path(value);
  if (path.is_relative() && !base_dir.empty()) {
    path = std::filesystem::path(base_dir) / path;
  }
  return sim::load_cluster_file(path.string());
}

/// Inert campaign key: validated so a bad value fails loudly, kept only
/// because perfbench/ campaigns write it; no code branches on it.
harness::SweepGranularity parse_granularity(const std::string& text) {
  if (text == "task") return harness::SweepGranularity::kTask;
  if (text == "point") return harness::SweepGranularity::kPoint;
  throw util::PreconditionError(
      "granularity must be 'point' or 'task', got '" + text + "'");
}

/// Reads the keys every front end shares into `spec`, whose cluster is
/// set: sweep= (default: the paper's Fire grid, 16..128 processes), seed=,
/// meter= and faults=. Errors name `context`.
void read_sweep_keys(const util::Config& cfg, const std::string& context,
                     CampaignSpec& spec) {
  spec.sweep = checked_sweep(
      cfg.get_int_list("sweep", {16, 32, 48, 64, 80, 96, 112, 128}),
      spec.cluster, context);
  spec.seed = static_cast<std::uint64_t>(
      cfg.get_int("seed", static_cast<long long>(spec.seed)));
  const std::string meter = cfg.get_string("meter", "wattsup");
  TGI_REQUIRE(meter == "wattsup" || meter == "model",
              context << ": meter must be 'wattsup' or 'model', got '"
                      << meter << "'");
  spec.exact_meter = meter == "model";
  if (cfg.has("faults")) {
    spec.fault_text = *cfg.get("faults");
    (void)spec.faults();  // validate now, before any output
  }
}

/// Builds one entry from its parsed key=value section.
CampaignSpec build_entry(const std::string& name, const util::Config& cfg,
                        const std::string& base_dir) {
  const std::string context = "campaign entry [" + name + "]";
  util::require_known_keys(cfg,
                           {"cluster", "reference", "sweep", "seed", "meter",
                            "faults", "granularity"},
                           context);
  CampaignSpec spec;
  spec.name = name;
  validate_entry_name(spec.name);
  spec.cluster = resolve_cluster(cfg.get_string("cluster", "fire"), base_dir);
  spec.reference =
      resolve_cluster(cfg.get_string("reference", "systemg"), base_dir);
  TGI_REQUIRE(cfg.has("sweep"), context << " needs sweep=V1,V2,...");
  read_sweep_keys(cfg, context, spec);
  spec.granularity = parse_granularity(cfg.get_string("granularity", "point"));
  return spec;
}

}  // namespace

CampaignSpec command_line_spec(const util::Config& cfg,
                               const std::string& name) {
  CampaignSpec spec;
  spec.name = name;
  spec.cluster = cfg.has("cluster")
                     ? sim::load_cluster_file(*cfg.get("cluster"))
                     : sim::fire_cluster();
  spec.reference = cfg.has("reference_cluster")
                       ? sim::load_cluster_file(*cfg.get("reference_cluster"))
                       : sim::system_g();
  read_sweep_keys(cfg, name, spec);
  return spec;
}

harness::FaultSpec CampaignSpec::faults() const {
  TGI_REQUIRE(faulted(), "entry [" << name << "] has no fault spec");
  return harness::parse_fault_spec(fault_text);
}

std::vector<std::size_t> checked_sweep(const std::vector<long long>& values,
                                       const sim::ClusterSpec& cluster,
                                       const std::string& context) {
  TGI_REQUIRE(!values.empty(), context << " needs a non-empty sweep");
  const std::size_t cores = cluster.total_cores();
  std::vector<std::size_t> sweep;
  sweep.reserve(values.size());
  for (const long long value : values) {
    TGI_REQUIRE(value >= 1 && static_cast<unsigned long long>(value) <= cores,
                context << ": sweep value " << value << " is outside [1, "
                        << cores << "] (" << cluster.name << " has " << cores
                        << " cores)");
    sweep.push_back(static_cast<std::size_t>(value));
  }
  return sweep;
}

const char* spec_mode(const CampaignSpec& spec) {
  return spec.faulted() ? "robust" : "plain";
}

harness::RobustConfig spec_robust_config(const CampaignSpec& spec) {
  harness::RobustConfig robust;
  // Repeated bit-identical samples are suspicious on the noisy WattsUp
  // simulation, legitimate on ModelMeter's flat phases.
  if (!spec.exact_meter) robust.stuck_run_limit = 8;
  return robust;
}

harness::MeterFactory spec_meter_factory(const CampaignSpec& spec,
                                         std::size_t stride) {
  if (spec.exact_meter) {
    return harness::model_meter_factory(util::seconds(0.5));
  }
  const harness::SuiteConfig suite;
  power::WattsUpConfig wcfg;
  wcfg.seed = spec.seed;
  // Point k's meter starts k strides into the shared-meter stream, one
  // stride being the measurements a point takes (retries included).
  if (stride == 0) {
    stride = spec.faulted() ? harness::robust_measurements_per_point(
                                  suite, spec_robust_config(spec))
                            : harness::suite_benchmarks(suite).size();
  }
  return harness::wattsup_meter_factory(wcfg, stride);
}

std::unique_ptr<power::PowerMeter> reference_meter(const CampaignSpec& spec) {
  if (spec.exact_meter) {
    return std::make_unique<power::ModelMeter>(util::seconds(0.5));
  }
  power::WattsUpConfig wcfg;
  wcfg.seed = spec.seed + kReferenceSeedSalt;
  return std::make_unique<power::WattsUpMeter>(wcfg);
}

std::string canonical_spec_text(const CampaignSpec& spec) {
  const harness::SuiteConfig suite;
  if (spec.faulted()) {
    const harness::FaultSpec faults = spec.faults();
    return harness::cache_spec_text(spec.cluster, spec.seed, spec.exact_meter,
                                    suite, &faults,
                                    spec_robust_config(spec).stuck_run_limit,
                                    spec.sweep);
  }
  return harness::cache_spec_text(spec.cluster, spec.seed, spec.exact_meter,
                                  suite, nullptr, 0, spec.sweep);
}

std::uint64_t spec_hash(const CampaignSpec& spec) {
  return harness::journal_spec_hash(canonical_spec_text(spec));
}

std::string reference_spec_text(const CampaignSpec& spec) {
  const harness::SuiteConfig suite;
  // Reference meters get the salted seed (reference_meter), and the
  // marker line separates the reference keyspace from plain sweeps.
  return harness::cache_spec_text(spec.reference,
                                  spec.seed + kReferenceSeedSalt,
                                  spec.exact_meter, suite, nullptr, 0,
                                  {spec.reference.total_cores()})
      .insert(0, "reference=1\n");
}

std::uint64_t reference_spec_hash(const CampaignSpec& spec) {
  return harness::journal_spec_hash(reference_spec_text(spec));
}

std::vector<CampaignSpec> parse_campaign(const std::string& text,
                                         const std::string& base_dir) {
  std::vector<CampaignSpec> entries;
  std::set<std::string> names;
  std::string section_name;
  std::string section_text;
  bool in_section = false;

  const auto flush = [&entries, &names, &section_name, &section_text,
                      &base_dir, &in_section]() {
    if (!in_section) return;
    entries.push_back(build_entry(section_name,
                                  util::Config::parse(section_text),
                                  base_dir));
    TGI_REQUIRE(names.insert(section_name).second,
                "duplicate campaign entry name [" << section_name << "]");
    section_text.clear();
  };

  std::istringstream lines(text);
  std::string raw;
  while (std::getline(lines, raw)) {
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    if (line.front() == '[') {
      TGI_REQUIRE(line.back() == ']',
                  "malformed campaign section header: " << line);
      flush();
      section_name = trim(line.substr(1, line.size() - 2));
      in_section = true;
      continue;
    }
    TGI_REQUIRE(in_section, "campaign line before any [entry] section: "
                                << line);
    section_text += line;
    section_text += '\n';
  }
  flush();
  TGI_REQUIRE(!entries.empty(), "campaign file has no [entry] sections");
  return entries;
}

std::vector<CampaignSpec> load_campaign_file(const std::string& path) {
  const std::string text = read_text_file(path, "campaign file");
  return parse_campaign(
      text, std::filesystem::path(path).parent_path().string());
}

std::string worker_spec_config(const CampaignSpec& spec,
                               const std::string& cluster_path) {
  std::string text;
  text += "cluster = " + cluster_path + "\n";
  std::string sweep;
  for (const std::size_t value : spec.sweep) {
    if (!sweep.empty()) sweep += ',';
    sweep += std::to_string(value);
  }
  text += "sweep = " + sweep + "\n";
  text += "seed = " + std::to_string(spec.seed) + "\n";
  text += "meter = " + std::string(spec.exact_meter ? "model" : "wattsup") +
          "\n";
  if (spec.faulted()) text += "faults = " + spec.fault_text + "\n";
  return text;
}

CampaignSpec load_worker_spec(const std::string& path) {
  const std::string text = read_text_file(path, "worker spec file");
  const util::Config cfg = util::Config::parse(text);
  util::require_known_keys(
      cfg, {"cluster", "sweep", "seed", "meter", "faults"},
      "worker spec " + path);
  TGI_REQUIRE(cfg.has("cluster"),
              "worker spec " << path << " needs cluster=PATH");
  util::Config entry;
  for (const std::string& key : cfg.keys()) entry.set(key, *cfg.get(key));
  return build_entry("worker", entry,
                     std::filesystem::path(path).parent_path().string());
}

}  // namespace tgi::serve
