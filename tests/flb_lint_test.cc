// Token-rule (FLB001–FLB006) coverage of flb_analyze: each fixture under
// tests/lint_fixtures/ carries one deliberate violation per rule at a
// pinned line and clean.cc carries none, all run through AnalyzeFiles, the
// one entry point every rule shares. The real-tree gate for all nine rules
// is FlbAnalyze.RealSourceTreeIsClean.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/flb_analyze/analyze.h"

namespace flb::analyze {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(FLB_LINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

// Analyzes one fixture file (as its own translation set) and returns the
// report.
Report LintFixture(const std::string& name) {
  return AnalyzeFiles({{name, ReadFixture(name)}}, Options());
}

struct Expected {
  std::string rule;
  int line;
};

void ExpectViolations(const std::string& fixture,
                      const std::vector<Expected>& expected) {
  const Report report = LintFixture(fixture);
  ASSERT_EQ(report.findings.size(), expected.size()) << fixture;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(report.findings[i].rule, expected[i].rule)
        << fixture << " finding " << i << ": " << report.findings[i].message;
    EXPECT_EQ(report.findings[i].line, expected[i].line)
        << fixture << " finding " << i << ": " << report.findings[i].message;
  }
}

// The token rules head the one rule table, with their IDs and names
// unchanged (FlbAnalyze.RuleTableIsStable covers FLB007–FLB009).
TEST(FlbLintTest, RuleTableIsStable) {
  const auto& rules = Rules();
  ASSERT_EQ(rules.size(), 9u);
  EXPECT_STREQ(rules[0].id, "FLB001");
  EXPECT_STREQ(rules[0].name, "wall-clock");
  EXPECT_STREQ(rules[1].id, "FLB002");
  EXPECT_STREQ(rules[1].name, "entropy");
  EXPECT_STREQ(rules[2].id, "FLB003");
  EXPECT_STREQ(rules[2].name, "unordered-iter");
  EXPECT_STREQ(rules[3].id, "FLB004");
  EXPECT_STREQ(rules[3].name, "mutex-annotation");
  EXPECT_STREQ(rules[4].id, "FLB005");
  EXPECT_STREQ(rules[4].name, "discarded-status");
  EXPECT_STREQ(rules[5].id, "FLB006");
  EXPECT_STREQ(rules[5].name, "unbounded-retry");
}

TEST(FlbLintTest, WallClockFixture) {
  ExpectViolations("wall_clock_violation.cc", {{"FLB001", 10}});
}

TEST(FlbLintTest, EntropyFixture) {
  ExpectViolations("entropy_violation.cc", {{"FLB002", 8}});
}

TEST(FlbLintTest, UnorderedIterFixture) {
  ExpectViolations("unordered_iter_violation.cc", {{"FLB003", 15}});
}

TEST(FlbLintTest, MutexAnnotationFixture) {
  ExpectViolations("mutex_annotation_violation.cc",
                   {{"FLB004", 20}, {"FLB004", 32}});
}

TEST(FlbLintTest, DiscardedStatusFixture) {
  const std::string fixture = "discarded_status_violation.cc";
  ExpectViolations(fixture, {{"FLB005", 17}, {"FLB005", 18}});
  // The justified (void) discard on line 19 is counted, not reported.
  EXPECT_EQ(LintFixture(fixture).suppressed, 1u);
}

TEST(FlbLintTest, UnboundedRetryFixture) {
  // The two bounded loops in the fixture (attempt counter, deadline
  // predicate) must stay silent; only the budget-free spin reports.
  ExpectViolations("unbounded_retry_violation.cc", {{"FLB006", 19}});
}

TEST(FlbLintTest, TunerMeasurementFixture) {
  // The anti-pattern the AutoTuner is forbidden from: wall-clocked probe
  // measurement and entropy-seeded exploration.
  ExpectViolations(
      "tuner_measurement_violation.cc",
      {{"FLB002", 8}, {"FLB001", 14}, {"FLB001", 16}, {"FLB002", 22}});
}

// The tuner's measurement path must scan clean WITHOUT any allow pragmas:
// probes run in simulated time and the exploration pick comes from
// Rng::ForStream, so there is nothing to justify away. Zero suppressions
// is the point — a future allow() sneaking into the search loop fails
// here even though the tree-wide scan would still pass.
TEST(FlbLintTest, TunerMeasurementPathIsCleanWithoutAllowances) {
  std::vector<FileInput> inputs;
  for (const char* rel : {"/src/core/tuner.h", "/src/core/tuner.cc"}) {
    const std::string path = std::string(FLB_SOURCE_ROOT) + rel;
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing " << path;
    std::ostringstream content;
    content << in.rdbuf();
    inputs.push_back({path, content.str()});
  }
  Options opts;
  std::string error;
  const std::string root(FLB_SOURCE_ROOT);
  ASSERT_TRUE(
      LoadExceptionsFile(root + "/tools/flb_analyze/layering_exceptions.txt",
                         &opts.layering_exceptions, &error))
      << error;
  const Report report = AnalyzeFiles(inputs, opts);
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
  EXPECT_EQ(report.suppressed, 0u);
  EXPECT_EQ(report.unjustified_allows, 0u);
}

// Audit: every allow pragma in the real tree carries a reason. The linter
// only counts an unjustified allow when its violation actually fires, so a
// bare "// flb-lint: allow(FLBnnn)" sitting on a clean line would rot
// silently — this textual sweep catches it at introduction time.
TEST(FlbLintTest, EveryAllowInTreeIsJustified) {
  namespace fs = std::filesystem;
  const std::string root(FLB_SOURCE_ROOT);
  size_t pragmas = 0;
  for (const char* dir : {"/src", "/tools", "/bench"}) {
    for (const auto& entry :
         fs::recursive_directory_iterator(root + dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::string line;
      int lineno = 0;
      while (std::getline(in, line)) {
        ++lineno;
        const size_t at = line.find("flb-lint: allow");
        if (at == std::string::npos) continue;
        ++pragmas;
        const size_t open = line.find('(', at);
        const size_t close =
            open == std::string::npos ? std::string::npos
                                      : line.find(')', open);
        std::string reason =
            close == std::string::npos ? "" : line.substr(close + 1);
        const size_t first = reason.find_first_not_of(" \t");
        reason = first == std::string::npos ? "" : reason.substr(first);
        EXPECT_FALSE(reason.empty())
            << entry.path().string() << ":" << lineno
            << " bare allow without a reason: " << line;
      }
    }
  }
  // The sweep must actually see the tree's known justified allows;
  // a zero count means the walk silently missed the sources.
  EXPECT_GT(pragmas, 0u);
}

TEST(FlbLintTest, CleanFixtureHasNoViolations) {
  const Report report = LintFixture("clean.cc");
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << "clean.cc:" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
  EXPECT_EQ(report.suppressed, 0u);
}

TEST(FlbLintTest, AllowWithoutReasonDoesNotSuppress) {
  std::vector<FileInput> inputs = {
      {"unjustified.cc",
       "void Charged() {\n"
       "  int t = time(nullptr);  // flb-lint: allow(FLB001)\n"
       "  (void)t;\n"
       "}\n"}};
  const Report report = AnalyzeFiles(inputs, Options());
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "FLB001");
  EXPECT_EQ(report.findings[0].line, 2);
  EXPECT_NE(report.findings[0].message.find(
                "[allow() present but missing a justification]"),
            std::string::npos);
  EXPECT_EQ(report.unjustified_allows, 1u);
  EXPECT_EQ(report.suppressed, 0u);
}

TEST(FlbLintTest, AllowNextLineSuppresses) {
  std::vector<FileInput> inputs = {
      {"next_line.cc",
       "void Charged() {\n"
       "  // flb-lint: allow-next-line(FLB001) calibration-only wall read\n"
       "  int t = time(nullptr);\n"
       "  (void)t;\n"
       "}\n"}};
  const Report report = AnalyzeFiles(inputs, Options());
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.suppressed, 1u);
}

TEST(FlbLintTest, AllowlistExemptsFile) {
  Options options;
  options.allowlist.push_back({"FLB002", "legacy/seed_me_later.cc"});
  std::vector<FileInput> inputs = {
      {"legacy/seed_me_later.cc", "int Draw() { return rand(); }\n"}};
  const Report report = AnalyzeFiles(inputs, options);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.allowlisted, 1u);
}

TEST(FlbLintTest, BannedNamesInsideCommentsAndStringsAreIgnored) {
  std::vector<FileInput> inputs = {
      {"prose.cc",
       "// system_clock and rand() discussed in prose only.\n"
       "const char* kDoc = \"uses std::random_device internally\";\n"}};
  const Report report = AnalyzeFiles(inputs, Options());
  EXPECT_TRUE(report.findings.empty());
}

// Token-rule counts ride the one flb.analyze.* BenchJson schema.
TEST(FlbLintTest, BenchJsonSummarySchema) {
  const Report report = LintFixture("discarded_status_violation.cc");
  const std::string json = ReportToBenchJson(report);
  EXPECT_NE(json.find("\"bench\":\"flb_analyze\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"flb.analyze.files_scanned\""),
            std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"flb.analyze.findings\",\"value\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"flb.analyze.suppressed\",\"value\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"flb.analyze.allowlisted\""),
            std::string::npos);
  EXPECT_NE(json.find("\"metric\":\"flb.analyze.findings_by_rule.FLB005\","
                      "\"value\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"unit\":\"count\""), std::string::npos);
}

// A token-rule finding reaches SARIF and the baseline under a key that
// names the rule, the file, the cited identifier and its occurrence —
// never the line — so unrelated edits above it do not churn the baseline.
TEST(FlbLintTest, TokenFindingKeyIsLineIndependentInSarif) {
  const std::string name = "wall_clock_violation.cc";
  const std::string content = ReadFixture(name);
  const Report before = AnalyzeFiles({{name, content}}, Options());
  ASSERT_EQ(before.findings.size(), 1u);
  const Finding& f = before.findings[0];
  EXPECT_EQ(f.rule, "FLB001");
  EXPECT_EQ(f.key, "FLB001|wall_clock_violation.cc|system_clock|1");
  const std::string sarif = ReportToSarif(before);
  EXPECT_NE(sarif.find("\"ruleId\": \"FLB001\""), std::string::npos);
  EXPECT_NE(sarif.find("\"flbAnalyzeKey/v1\": \"" + f.key + "\""),
            std::string::npos)
      << sarif;

  const Report shifted = AnalyzeFiles({{name, "\n" + content}}, Options());
  ASSERT_EQ(shifted.findings.size(), 1u);
  EXPECT_EQ(shifted.findings[0].line, f.line + 1);
  EXPECT_EQ(shifted.findings[0].key, f.key);

  // Repeats of one name in a file are numbered in source order.
  const Report tuner = LintFixture("tuner_measurement_violation.cc");
  std::vector<std::string> keys;
  for (const Finding& t : tuner.findings) keys.push_back(t.key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "FLB002|tuner_measurement_violation.cc|<random>|1",
                      "FLB001|tuner_measurement_violation.cc|steady_clock|1",
                      "FLB001|tuner_measurement_violation.cc|steady_clock|2",
                      "FLB002|tuner_measurement_violation.cc|random_device|1",
                  }));

  // The key is what the baseline matches on.
  Options opts;
  opts.baseline.insert(f.key);
  const Report baselined = AnalyzeFiles({{name, "\n" + content}}, opts);
  EXPECT_TRUE(baselined.findings.empty());
  EXPECT_EQ(baselined.baselined, 1u);
}

// The real tree has no token-rule (FLB001–FLB006) findings under the
// compiled-in allowlist alone: no baseline entry may stand in for one, so
// token-rule debt cannot be parked in analyze_baseline.txt.
TEST(FlbLintTest, RealSourceTreeIsClean) {
  Report report;
  std::string error;
  ASSERT_TRUE(AnalyzeTree(std::string(FLB_SOURCE_ROOT) + "/src", Options(),
                          &report, &error))
      << error;
  EXPECT_GT(report.files_scanned, 50u);
  for (const Finding& f : report.findings) {
    if (f.rule > "FLB006") continue;  // FLB007–FLB009: FlbAnalyze's gate
    ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule << "] "
                  << f.message;
  }
}

}  // namespace
}  // namespace flb::analyze
