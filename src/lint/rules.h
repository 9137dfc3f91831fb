// Convention rules enforced by tgi-lint.
//
// Each rule is a small matcher object over a SourceFile. The rule set
// machine-checks the invariants documented in CLAUDE.md that the compiler
// cannot see:
//
//   banned-random     std::rand / srand / std::mt19937 / std::random_device
//                     and friends anywhere outside util/rng — all randomness
//                     must flow through seeded util::Xoshiro256 so figures
//                     stay bit-reproducible.
//   raw-thread        std::thread / std::jthread / std::async outside
//                     util/thread_pool — concurrency flows through
//                     util::ThreadPool (mpisim's ranks-as-threads runtime
//                     carries a documented per-line waiver) so parallel
//                     sweeps stay deterministic and TSan coverage of the
//                     tree stays meaningful.
//   raw-process-spawn fork / exec* / waitpid / system / popen /
//                     posix_spawn outside util/subprocess — children are
//                     spawned through util::Subprocess (DESIGN.md §8) so
//                     every child has the non-blocking try_wait()/kill()
//                     surface and the escalating destructor;
//                     system()/popen() also launder argv through an
//                     unauditable shell.
//   raw-unit-double   `double`-typed parameters with unit-suspicious names
//                     (watts, joules, seconds, energy, power, flops) in
//                     public library headers — physical quantities crossing
//                     module boundaries must use util/units.h strong types.
//   relative-include  `#include "../..."` — includes are repo-relative
//                     from src/ (`#include "core/tgi.h"`).
//   assert-macro      bare `assert(` in library code — use TGI_REQUIRE for
//                     caller bugs, TGI_CHECK for internal bugs; both throw
//                     and survive NDEBUG builds.
//   cout-in-library   std::cout / std::cerr / printf in static-library
//                     modules — diagnostics go through util/log, and
//                     results are returned, not printed.
//   unseeded-xoshiro  default-constructed util::Xoshiro256 outside util/rng —
//                     the defaulted seed compiles but silently reuses one
//                     shared stream; every generator must be seeded with an
//                     explicit expression (derived from (seed, index) for
//                     per-decision streams, as the fault plane does).
//   nonatomic-output-write  direct std::ofstream in src/harness, src/obs,
//                     or tools — published files (CSVs, traces, figures)
//                     must go through util::AtomicFile so a crash mid-write
//                     can never leave a truncated file; deliberate
//                     append-mode journals carry a per-line waiver.
//
// Cross-line determinism rules (matched on SourceFile::flat, so the
// pattern may span line breaks):
//
//   unordered-iteration-in-output  range-for over a std::unordered_map /
//                     std::unordered_set in src/harness, src/obs, src/core,
//                     or tools — iteration order is unspecified and those
//                     layers feed published artifacts (CSVs, traces,
//                     stdout transcripts), so hash order would leak into
//                     bytes that must be reproducible.
//   wall-clock-in-deterministic-path  system_clock / steady_clock /
//                     high_resolution_clock / time() / clock_gettime()
//                     in src/ or tools outside src/util/thread_pool* and
//                     the quarantined src/obs/profile* channel — results
//                     live on simulated time; real-kernel timing homes
//                     (src/kernels native runs) carry documented per-line
//                     waivers.
//   ref-capture-in-parallel-task  a `[&]`-default-capturing lambda (or a
//                     name bound to one) handed to parallel_map /
//                     parallel_for / ThreadPool::submit in src/ or tools —
//                     blanket by-reference capture makes shared mutable
//                     state invisible to review; capture explicitly, or
//                     waive with a comment proving the pool drains before
//                     the captured scope dies.
//
// A violation on a specific line can be waived with a trailing
// `// tgi-lint: allow(<rule-id>)` marker (the marker must sit in a real
// comment; quoted markers in string literals are inert). `tgi_lint
// --audit-waivers` flags markers that no longer suppress anything.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lint/source_file.h"

namespace tgi::lint {

/// One convention violation at a specific source location.
struct Violation {
  std::string file;      // repo-relative path
  std::size_t line = 0;  // 1-based
  std::string rule;      // rule id, e.g. "banned-random"
  std::string message;
};

/// `file:line: [rule] message` — the format promised in the README.
std::string format_violation(const Violation& v);

/// Interface for one lint rule. Rules are stateless; `check` appends any
/// violations found in `file` to `out`.
class Rule {
 public:
  virtual ~Rule() = default;
  [[nodiscard]] virtual std::string_view id() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;
  virtual void check(const SourceFile& file, std::vector<Violation>& out) const = 0;
};

using RuleSet = std::vector<std::unique_ptr<Rule>>;

/// All per-file rules, in stable id order.
RuleSet default_rules();

/// The subset of `default_rules()` whose ids appear in `ids`.
/// Throws PreconditionError on an unknown id, listing the valid ones.
RuleSet rules_by_id(const std::vector<std::string>& ids);

/// One entry of the full rule catalog (`tgi_lint --list-rules`).
struct RuleInfo {
  std::string id;
  std::string description;
};

/// Every rule id tgi-lint can report, in stable id order: the per-file
/// rules from `default_rules()`, the include-graph pass rules
/// (`include-cycle`, `layering-violation` — see lint/include_graph.h), and
/// the waiver-audit findings (`stale-waiver`, `unknown-waiver`).
std::vector<RuleInfo> rule_catalog();

/// Runs every rule over one file, honoring per-line allow markers; returns
/// violations sorted by (line, rule).
std::vector<Violation> run_rules(const SourceFile& file, const RuleSet& rules);

/// Same, but with allow markers ignored — the waiver audit compares this
/// against the markers to find waivers that no longer suppress anything.
std::vector<Violation> run_rules_unsuppressed(const SourceFile& file,
                                              const RuleSet& rules);

// --- Token-level helpers shared by the matchers (exposed for tests) -------

/// True if `line` contains `ident` as a whole identifier (not as a substring
/// of a longer identifier).
bool contains_identifier(std::string_view line, std::string_view ident);

/// True if `line` contains `ident` as a whole identifier immediately
/// followed by `(` (ignoring spaces) — i.e. a call or macro invocation.
bool contains_call(std::string_view line, std::string_view ident);

}  // namespace tgi::lint
