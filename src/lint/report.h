// Rule selection and report rendering for the tgi_lint driver.
//
// `selection_by_id` maps a user-supplied rules= list onto the passes that
// implement each id (per-file matchers vs. whole-graph checks), and the
// render_* functions turn a ScanReport into the two supported output
// formats: the classic `file:line: [rule] message` text transcript, and a
// machine-readable JSON document for CI artifacts.
#pragma once

#include <string>
#include <vector>

#include "lint/scanner.h"

namespace tgi::lint {

/// Which passes to run, resolved from a rules= id list.
struct Selection {
  RuleSet file_rules;    // per-file matchers to run
  bool layering = true;  // include-graph layering-violation pass
  bool cycles = true;    // include-graph include-cycle pass
};

/// Everything on: all per-file rules plus both graph passes.
Selection default_selection();

/// The passes implementing exactly `ids`. Graph rule ids
/// (`layering-violation`, `include-cycle`) switch their pass on; audit ids
/// (`stale-waiver`, `unknown-waiver`) are rejected — they are findings of
/// --audit-waivers, not selectable rules. Unknown ids throw
/// PreconditionError listing every valid id.
Selection selection_by_id(const std::vector<std::string>& ids);

/// The classic text transcript: one formatted violation per line, then the
/// `tgi-lint: N files, M violation(s)` summary. Matches the tool's stdout
/// byte-for-byte.
std::string render_text(const ScanReport& report);

/// Machine-readable report:
///   {"tool": "tgi-lint", "files_scanned": N, "clean": bool,
///    "violations": [{"file", "line", "rule", "message"}, ...]}
/// Deterministic: violations keep the report's (file, line, rule) order.
std::string render_json(const ScanReport& report);

}  // namespace tgi::lint
