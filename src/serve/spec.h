// Campaign specs: what one batch request to the campaign engine asks for.
//
// A campaign file lists many sweep specs — the HEP-benchmark-suite shape
// of the paper's methodology: the same (cluster, suite, seed, faults)
// points recurring across multi-day, multi-site requests. Format
// (DESIGN.md §13):
//
//   # one [entry] section per sweep spec
//   [fire-baseline]
//   cluster = fire            # builtin name, or a clusters/*.conf path
//   sweep = 16,48,80          # process counts (required)
//   seed = 7                  # meter RNG seed (default 0x9e3779b9)
//   meter = wattsup           # wattsup | model
//   faults = dropout=0.2,failure=0.1   # optional: robust sweep
//   reference = systemg       # reference machine for TGI (default systemg)
//   granularity = point       # point | task: validated, otherwise ignored
//
// Entry names are directory-safe ([A-Za-z0-9._-]) and unique; unknown
// keys fail loudly (util::require_known_keys). Every entry runs the one
// point path; `granularity` is still accepted (and a bad value still
// rejected) only because perfbench/ campaigns write it.
//
// The same grammar minus [sections] doubles as the engine→worker handoff
// file (worker_spec_config / load_worker_spec): the engine serializes the
// entry with its cluster inlined as a spec-file path and the fault spec as
// the user's original text, so the worker re-parses bit-identical inputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/faults.h"
#include "harness/parallel.h"
#include "harness/robust.h"
#include "power/meter.h"
#include "sim/machine.h"
#include "util/config.h"

namespace tgi::serve {

/// Added to a spec's seed to seed its reference run's meter, so the
/// reference instrument's error draws are not any sweep point's.
inline constexpr std::uint64_t kReferenceSeedSalt = 0x517cc1b7ULL;

/// One sweep spec — a campaign entry, a worker handoff, or one tgi_sweep
/// invocation: everything that determines a sweep's bytes, plus its
/// presentation name and the reference machine (which only affects
/// derived TGI output, never the journaled raw measurements).
struct CampaignSpec {
  std::string name;
  sim::ClusterSpec cluster;
  sim::ClusterSpec reference;
  std::vector<std::size_t> sweep;
  std::uint64_t seed = 0x9e3779b9ULL;  ///< the paper seed, every default
  bool exact_meter = false;  ///< meter=model (noise-free ModelMeter)
  /// The user's fault spec text, verbatim (empty = fault-free sweep).
  /// Kept as text so the engine→worker handoff re-parses the exact same
  /// spec; `faults()` derives the parsed form.
  std::string fault_text;
  /// Inert: kept only because perfbench/ sets it; nothing reads it.
  harness::SweepGranularity granularity = harness::SweepGranularity::kPoint;

  [[nodiscard]] bool faulted() const { return !fault_text.empty(); }
  /// Parsed fault plane; requires faulted().
  [[nodiscard]] harness::FaultSpec faults() const;
};

/// The spec one command line asks for: tgi_sweep's keys cluster= and
/// reference_cluster= (spec files; default Fire and SystemG), sweep=
/// (default the paper's grid, 16..128 processes), seed=, meter= and
/// faults=. The fig/table harnesses accept a subset. `name` names the spec
/// and its errors; all is validated before the caller writes any output.
[[nodiscard]] CampaignSpec command_line_spec(const util::Config& cfg,
                                             const std::string& name);

/// The sweep values a spec may carry on `cluster`: each in
/// [1, cluster.total_cores()], at least one. Throws a PreconditionError
/// naming `context` otherwise. Every front end (campaign entries, worker
/// handoffs, tgi_sweep) builds its sweep through this one check, before
/// it writes any output.
[[nodiscard]] std::vector<std::size_t> checked_sweep(
    const std::vector<long long>& values, const sim::ClusterSpec& cluster,
    const std::string& context);

/// "plain" or "robust" — the journal/cache mode this entry runs under.
[[nodiscard]] const char* spec_mode(const CampaignSpec& spec);

/// The recovery policy the entry's robust sweeps use: stuck_run_limit=8
/// on the noisy WattsUp instrument, 0 on ModelMeter.
[[nodiscard]] harness::RobustConfig spec_robust_config(
    const CampaignSpec& spec);

/// The per-point meter factory of the entry's sweep: a WattsUp meter
/// seeded with spec.seed whose run offsets stride by the measurements one
/// point takes in the entry's mode, or the exact ModelMeter. A nonzero
/// `stride` replaces the mode's (Figure 4's IOzone-only points take 1).
[[nodiscard]] harness::MeterFactory spec_meter_factory(
    const CampaignSpec& spec, std::size_t stride = 0);

/// The meter of the entry's reference run: the sweep meter's kind with the
/// seed salted by kReferenceSeedSalt.
[[nodiscard]] std::unique_ptr<power::PowerMeter> reference_meter(
    const CampaignSpec& spec);

/// Canonical key text for the entry's sweep points
/// (harness::cache_spec_text) and its FNV-1a digest — the header key of
/// its checkpoint journal, worker journals and cache shard alike.
[[nodiscard]] std::string canonical_spec_text(const CampaignSpec& spec);
[[nodiscard]] std::uint64_t spec_hash(const CampaignSpec& spec);

/// Canonical cache-key text for the entry's REFERENCE run and its digest.
/// A reference run is not a plain sweep point of the reference cluster —
/// it meters only active nodes, runs IOzone on a node slice, and salts the
/// meter seed (kReferenceSeedSalt) — so its key carries a `reference=1`
/// marker line that keeps it from ever colliding with a sweep over the same
/// machine.
[[nodiscard]] std::string reference_spec_text(const CampaignSpec& spec);
[[nodiscard]] std::uint64_t reference_spec_hash(const CampaignSpec& spec);

/// Parses a campaign file. `base_dir` resolves relative cluster paths
/// (pass the campaign file's directory). Throws on malformed entries,
/// duplicate or unsafe names, and unknown keys.
[[nodiscard]] std::vector<CampaignSpec> parse_campaign(
    const std::string& text, const std::string& base_dir);
[[nodiscard]] std::vector<CampaignSpec> load_campaign_file(
    const std::string& path);

/// Serializes one entry as a worker handoff file (section-free campaign
/// grammar; the cluster rides as a path to a spec file the engine wrote).
[[nodiscard]] std::string worker_spec_config(const CampaignSpec& spec,
                                             const std::string& cluster_path);
/// Loads a worker handoff file. The worker never needs the reference
/// machine, so the returned spec's `reference` is the builtin default.
[[nodiscard]] CampaignSpec load_worker_spec(const std::string& path);

}  // namespace tgi::serve
