#include "lint/report.h"

#include <sstream>

#include "util/error.h"
#include "util/format.h"

namespace tgi::lint {

Selection default_selection() {
  Selection selection;
  selection.file_rules = default_rules();
  return selection;
}

Selection selection_by_id(const std::vector<std::string>& ids) {
  Selection selection;
  selection.layering = false;
  selection.cycles = false;
  std::vector<std::string> file_ids;
  for (const std::string& id : ids) {
    if (id == "layering-violation") {
      selection.layering = true;
    } else if (id == "include-cycle") {
      selection.cycles = true;
    } else if (id == "stale-waiver" || id == "unknown-waiver") {
      TGI_REQUIRE(false, "'" << id
                             << "' is an --audit-waivers finding, not a "
                                "selectable rule; run with audit_waivers=1");
    } else {
      file_ids.push_back(id);
    }
  }
  selection.file_rules = rules_by_id(file_ids);  // throws on unknown ids
  return selection;
}

std::string render_text(const ScanReport& report) {
  std::ostringstream out;
  for (const Violation& violation : report.violations) {
    out << format_violation(violation) << "\n";
  }
  out << "tgi-lint: " << report.files_scanned << " files, "
      << report.violations.size() << " violation"
      << (report.violations.size() == 1 ? "" : "s") << "\n";
  return out.str();
}

std::string render_json(const ScanReport& report) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"tool\": \"tgi-lint\",\n";
  out << "  \"files_scanned\": " << report.files_scanned << ",\n";
  out << "  \"clean\": " << (report.clean() ? "true" : "false") << ",\n";
  out << "  \"violations\": [";
  const char* sep = "\n";
  for (const Violation& v : report.violations) {
    out << sep << "    {\"file\": \"" << util::json_escape(v.file)
        << "\", \"line\": " << v.line << ", \"rule\": \""
        << util::json_escape(v.rule) << "\", \"message\": \""
        << util::json_escape(v.message) << "\"}";
    sep = ",\n";
  }
  if (!report.violations.empty()) out << "\n  ";
  out << "]\n";
  out << "}\n";
  return out.str();
}

}  // namespace tgi::lint
