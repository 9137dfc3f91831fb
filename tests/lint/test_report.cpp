// Report layer: rules= selection across passes, text rendering, and the
// JSON shape consumed by CI.
#include "lint/report.h"

#include <gtest/gtest.h>

#include <string>

#include "util/error.h"
#include "util/format.h"

namespace tgi::lint {
namespace {

using util::json_escape;

ScanReport sample_report() {
  ScanReport report;
  report.files_scanned = 3;
  report.violations.push_back(
      Violation{"src/a.cpp", 2, "banned-random", "no rand()"});
  report.violations.push_back(
      Violation{"src/b.cpp", 7, "layering-violation", "util -> \"harness\""});
  return report;
}

TEST(Selection, DefaultRunsEverything) {
  const Selection sel = default_selection();
  EXPECT_EQ(sel.file_rules.size(), default_rules().size());
  EXPECT_TRUE(sel.layering);
  EXPECT_TRUE(sel.cycles);
}

TEST(Selection, GraphIdsToggleTheirPassesOnly) {
  const Selection graph_only =
      selection_by_id({"layering-violation", "include-cycle"});
  EXPECT_TRUE(graph_only.file_rules.empty());
  EXPECT_TRUE(graph_only.layering);
  EXPECT_TRUE(graph_only.cycles);

  const Selection mixed = selection_by_id({"banned-random", "include-cycle"});
  ASSERT_EQ(mixed.file_rules.size(), 1u);
  EXPECT_EQ(mixed.file_rules[0]->id(), "banned-random");
  EXPECT_FALSE(mixed.layering);
  EXPECT_TRUE(mixed.cycles);
}

TEST(Selection, AuditIdsAndUnknownIdsAreRejected) {
  EXPECT_THROW(selection_by_id({"stale-waiver"}), util::PreconditionError);
  EXPECT_THROW(selection_by_id({"unknown-waiver"}), util::PreconditionError);
  EXPECT_THROW(selection_by_id({"no-such-rule"}), util::PreconditionError);
}

TEST(RenderText, MatchesTheClassicTranscript) {
  EXPECT_EQ(render_text(sample_report()),
            "src/a.cpp:2: [banned-random] no rand()\n"
            "src/b.cpp:7: [layering-violation] util -> \"harness\"\n"
            "tgi-lint: 3 files, 2 violations\n");
  ScanReport clean;
  clean.files_scanned = 5;
  EXPECT_EQ(render_text(clean), "tgi-lint: 5 files, 0 violations\n");
  ScanReport one;
  one.files_scanned = 1;
  one.violations.push_back(Violation{"src/a.cpp", 1, "assert-macro", "m"});
  EXPECT_NE(render_text(one).find("1 violation\n"), std::string::npos);
}

TEST(RenderJson, EmitsTheDocumentedShape) {
  const std::string json = render_json(sample_report());
  EXPECT_NE(json.find("\"tool\": \"tgi-lint\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
  EXPECT_NE(json.find("{\"file\": \"src/a.cpp\", \"line\": 2, "
                      "\"rule\": \"banned-random\", "
                      "\"message\": \"no rand()\"}"),
            std::string::npos);
  // The quote inside the second message is escaped.
  EXPECT_NE(json.find("util -> \\\"harness\\\""), std::string::npos);
}

TEST(RenderJson, CleanReportHasEmptyArray) {
  ScanReport clean;
  clean.files_scanned = 4;
  const std::string json = render_json(clean);
  EXPECT_NE(json.find("\"clean\": true"), std::string::npos);
  EXPECT_NE(json.find("\"violations\": []"), std::string::npos);
}

TEST(JsonEscape, HandlesControlCharactersQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
}  // namespace tgi::lint
