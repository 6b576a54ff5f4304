// Tests for tools/flb_analyze: fixture files with exact rule+line
// expectations, key stability, suppression/baseline semantics, output
// formats, and the real-tree cleanliness gate for all nine rules. The
// token-rule (FLB001–FLB006) fixtures are in flb_lint_test.cc.

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/flb_analyze/analyze.h"

namespace flb::analyze {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(FLB_ANALYZE_FIXTURE_DIR) + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Loads fixtures by relative name; the relative name becomes the input
// path, so layering fixtures under src/<layer>/ land in a real layer.
Report AnalyzeFixtures(const std::vector<std::string>& names,
                       const Options& opts = Options()) {
  std::vector<FileInput> files;
  for (const std::string& name : names) {
    files.push_back({name, ReadFileOrDie(FixturePath(name))});
  }
  return AnalyzeFiles(files, opts);
}

struct Expected {
  const char* rule;
  int line;
};

void ExpectFindings(const Report& report, const std::vector<Expected>& want) {
  ASSERT_EQ(report.findings.size(), want.size()) << [&] {
    std::ostringstream ss;
    for (const Finding& f : report.findings) {
      ss << "  " << f.rule << " " << f.file << ":" << f.line << "  "
         << f.message << "\n";
    }
    return ss.str();
  }();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(report.findings[i].rule, want[i].rule) << "finding " << i;
    EXPECT_EQ(report.findings[i].line, want[i].line) << "finding " << i;
  }
}

std::string WriteTempFile(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << body;
  return path;
}

// One rule table for all nine rules; FlbLintTest.RuleTableIsStable pins
// the FLB001–FLB006 rows.
TEST(FlbAnalyze, RuleTableIsStable) {
  const auto& rules = Rules();
  ASSERT_EQ(rules.size(), 9u);
  EXPECT_STREQ(rules[6].id, "FLB007");
  EXPECT_STREQ(rules[6].name, "lock-order");
  EXPECT_STREQ(rules[7].id, "FLB008");
  EXPECT_STREQ(rules[7].name, "determinism-taint");
  EXPECT_STREQ(rules[8].id, "FLB009");
  EXPECT_STREQ(rules[8].name, "layering");
  for (const auto& r : rules) {
    EXPECT_NE(std::string(r.name), "");
    EXPECT_NE(std::string(r.summary), "");
  }
}

TEST(FlbAnalyze, DeadlockCycleFixture) {
  Report report = AnalyzeFixtures({"deadlock_cycle.cc"});
  // The fixture's mutexes are also unannotated (FLB004).
  ExpectFindings(report, {{"FLB007", 9}, {"FLB004", 19}, {"FLB004", 20}});
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.key, "FLB007|cycle|Account::mu_a_+Account::mu_b_");
  EXPECT_NE(f.message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(f.message.find("Account::mu_a_"), std::string::npos);
  EXPECT_GE(report.lock_nodes, 2u);
  EXPECT_GE(report.lock_edges, 2u);
}

TEST(FlbAnalyze, DeadlockCallbackFixture) {
  Report report = AnalyzeFixtures({"deadlock_callback.cc"});
  ExpectFindings(report, {{"FLB007", 15}, {"FLB007", 19}, {"FLB004", 24}});
  // Direct recorder call while holding the component lock.
  EXPECT_EQ(report.findings[0].key,
            "FLB007|held-call|deadlock_callback.cc|Cache::Hit|Count|"
            "Cache::mu_");
  // Transitive: Miss() -> Note() -> recorder; witness names the hop.
  const Finding& via = report.findings[1];
  EXPECT_NE(via.key.find("Cache::Miss|Note"), std::string::npos);
  std::string witness;
  for (const std::string& hop : via.witness) witness += hop + "\n";
  EXPECT_NE(witness.find("Note"), std::string::npos) << witness;
}

TEST(FlbAnalyze, TaintHelperFixture) {
  Report report = AnalyzeFixtures({"taint_helper.cc"});
  // The std::mt19937 on line 28 is also a banned entropy source (FLB002).
  ExpectFindings(report, {{"FLB008", 24}, {"FLB002", 28}, {"FLB008", 30}});
  // Wall clock reaches the sim-time charge through ProbeSeconds' return.
  EXPECT_NE(report.findings[0].key.find("charge"), std::string::npos);
  EXPECT_NE(report.findings[0].key.find("wall_clock"), std::string::npos);
  // Entropy reaches serialized bytes through Pack's parameter.
  EXPECT_NE(report.findings[2].key.find("serialize"), std::string::npos);
  EXPECT_NE(report.findings[2].key.find("entropy"), std::string::npos);
}

TEST(FlbAnalyze, LayeringUpwardFixture) {
  Report report = AnalyzeFixtures({"src/net/upward.cc"});
  ExpectFindings(report, {{"FLB009", 3}});
  EXPECT_EQ(report.findings[0].key,
            "FLB009|src/net/upward.cc|src/core/platform.h");
  // The downward include (line 2) is not flagged.
  EXPECT_GE(report.include_edges, 2u);
}

TEST(FlbAnalyze, LayeringExceptionSanctionsBackEdge) {
  Options opts;
  opts.layering_exceptions.push_back(
      {"src/net/upward.cc", "src/core", "fixture-sanctioned back-edge"});
  Report report = AnalyzeFixtures({"src/net/upward.cc"}, opts);
  ExpectFindings(report, {});

  // A wildcard `from` sanctions the same edge for every file.
  Options wild;
  wild.layering_exceptions.push_back({"*", "src/core", "fixture wildcard"});
  ExpectFindings(AnalyzeFixtures({"src/net/upward.cc"}, wild), {});
}

TEST(FlbAnalyze, CleanFixtureHasNoFindings) {
  Report report = AnalyzeFixtures({"clean.cc"});
  ExpectFindings(report, {});
  EXPECT_EQ(report.files_scanned, 1u);
  EXPECT_GE(report.functions_analyzed, 2u);
}

TEST(FlbAnalyze, BaselineSuppressesKnownFindingByKey) {
  Options opts;
  opts.baseline.insert("FLB007|cycle|Account::mu_a_+Account::mu_b_");
  Report report = AnalyzeFixtures({"deadlock_cycle.cc"}, opts);
  // Only the baselined key is silenced.
  ExpectFindings(report, {{"FLB004", 19}, {"FLB004", 20}});
  EXPECT_EQ(report.baselined, 1u);
}

TEST(FlbAnalyze, JustifiedInlineAllowSuppresses) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void X() {\n"
      "    common::MutexLock a(mu_a_);\n"
      "    common::MutexLock b(mu_b_);  // flb-lint: allow(FLB007) fixture "
      "pins this order\n"
      "  }\n"
      "  void Y() {\n"
      "    common::MutexLock b(mu_b_);\n"
      "    common::MutexLock a(mu_a_);\n"
      "  }\n"
      " private:\n"
      "  common::Mutex mu_a_;\n"
      "  common::Mutex mu_b_;\n"
      "};\n";
  Report report = AnalyzeFiles({{"allow_ok.cc", src}}, Options());
  // The unannotated mutex members (FLB004) carry no allow.
  ExpectFindings(report, {{"FLB004", 12}, {"FLB004", 13}});
  EXPECT_EQ(report.suppressed, 1u);
  EXPECT_EQ(report.unjustified_allows, 0u);
}

TEST(FlbAnalyze, BareAllowWithoutReasonDoesNotSuppress) {
  const std::string src =
      "class A {\n"
      " public:\n"
      "  void X() {\n"
      "    common::MutexLock a(mu_a_);\n"
      "    common::MutexLock b(mu_b_);  // flb-lint: allow(FLB007)\n"
      "  }\n"
      "  void Y() {\n"
      "    common::MutexLock b(mu_b_);\n"
      "    common::MutexLock a(mu_a_);\n"
      "  }\n"
      " private:\n"
      "  common::Mutex mu_a_;\n"
      "  common::Mutex mu_b_;\n"
      "};\n";
  Report report = AnalyzeFiles({{"allow_bare.cc", src}}, Options());
  ExpectFindings(report, {{"FLB007", 5}, {"FLB004", 12}, {"FLB004", 13}});
  EXPECT_NE(report.findings[0].message.find(
                "[allow() present but missing a justification]"),
            std::string::npos)
      << report.findings[0].message;
  EXPECT_EQ(report.findings[1].message.find("allow() present"),
            std::string::npos);
  EXPECT_EQ(report.suppressed, 0u);
  EXPECT_EQ(report.unjustified_allows, 1u);
}

TEST(FlbAnalyze, ExceptionsFileParsesAndRequiresReason) {
  std::vector<LayerException> out;
  std::string error;
  ASSERT_TRUE(LoadExceptionsFile(
      std::string(FLB_SOURCE_ROOT) + "/tools/flb_analyze/layering_exceptions.txt",
      &out, &error))
      << error;
  ASSERT_GE(out.size(), 3u);
  for (const LayerException& e : out) {
    EXPECT_NE(e.from, "");
    EXPECT_NE(e.to_layer.find("src/"), std::string::npos);
    EXPECT_NE(e.reason, "") << e.from << " -> " << e.to_layer;
  }

  const std::string missing_reason =
      WriteTempFile("exceptions_bad.txt", "src/net/a.cc -> src/core\n");
  out.clear();
  EXPECT_FALSE(LoadExceptionsFile(missing_reason, &out, &error));
  EXPECT_NE(error, "");
}

TEST(FlbAnalyze, BaselineFileParsesAndRoundTrips) {
  std::set<std::string> keys;
  std::string error;
  ASSERT_TRUE(LoadBaselineFile(
      std::string(FLB_SOURCE_ROOT) + "/tools/flb_analyze/analyze_baseline.txt",
      &keys, &error))
      << error;
  for (const std::string& k : keys) {
    EXPECT_EQ(k.rfind("FLB", 0), 0u) << k;
  }

  // ReportToBaseline emits exactly the keys that silence the findings.
  Report dirty = AnalyzeFixtures({"deadlock_cycle.cc", "taint_helper.cc"});
  ASSERT_FALSE(dirty.findings.empty());
  const std::string path =
      WriteTempFile("roundtrip_baseline.txt", ReportToBaseline(dirty));
  Options opts;
  ASSERT_TRUE(LoadBaselineFile(path, &opts.baseline, &error)) << error;
  Report clean = AnalyzeFixtures({"deadlock_cycle.cc", "taint_helper.cc"}, opts);
  EXPECT_TRUE(clean.findings.empty());
  EXPECT_EQ(clean.baselined, dirty.findings.size());
}

TEST(FlbAnalyze, BenchJsonSummarySchema) {
  Report report = AnalyzeFixtures({"deadlock_cycle.cc"});
  const std::string json = ReportToBenchJson(report);
  EXPECT_EQ(json.rfind("{", 0), 0u);
  EXPECT_NE(json.find("\"flb_analyze\""), std::string::npos);
  EXPECT_NE(json.find("flb.analyze.files_scanned"), std::string::npos);
  EXPECT_NE(json.find("flb.analyze.findings"), std::string::npos);
  EXPECT_NE(json.find("flb.analyze.lock_edges"), std::string::npos);
}

TEST(FlbAnalyze, SarifOutputStructure) {
  Report report = AnalyzeFixtures({"deadlock_cycle.cc", "src/net/upward.cc"});
  ASSERT_EQ(report.findings.size(), 4u);
  const std::string sarif = ReportToSarif(report);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif"), std::string::npos);
  EXPECT_NE(sarif.find("\"flb_analyze\""), std::string::npos);
  // All nine rules are declared even when only some fire.
  for (const char* id : {"FLB001", "FLB002", "FLB003", "FLB004", "FLB005",
                         "FLB006", "FLB007", "FLB008", "FLB009"}) {
    EXPECT_NE(sarif.find(id), std::string::npos) << id;
  }
  EXPECT_NE(sarif.find("partialFingerprints"), std::string::npos);
  EXPECT_NE(sarif.find("flbAnalyzeKey/v1"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 9"), std::string::npos);
}

// The gate the CI lint job enforces: the real tree, analyzed with all
// nine rules, the compiled-in allowlist and the checked-in exceptions and
// baseline, has zero new findings — and every baseline entry still matches
// a live finding (no stale debt).
TEST(FlbAnalyze, RealSourceTreeIsClean) {
  Options opts;
  std::string error;
  ASSERT_TRUE(LoadExceptionsFile(
      std::string(FLB_SOURCE_ROOT) + "/tools/flb_analyze/layering_exceptions.txt",
      &opts.layering_exceptions, &error))
      << error;
  ASSERT_TRUE(LoadBaselineFile(
      std::string(FLB_SOURCE_ROOT) + "/tools/flb_analyze/analyze_baseline.txt",
      &opts.baseline, &error))
      << error;

  Report report;
  ASSERT_TRUE(AnalyzeTree(std::string(FLB_SOURCE_ROOT) + "/src", opts,
                          &report, &error))
      << error;
  EXPECT_GT(report.files_scanned, 50u);
  EXPECT_GT(report.functions_analyzed, 200u);
  for (const Finding& f : report.findings) {
    ADD_FAILURE() << f.rule << " " << f.file << ":" << f.line << "  "
                  << f.message << "\n  key: " << f.key;
  }
  EXPECT_EQ(report.baselined, opts.baseline.size())
      << "stale baseline: an accepted key no longer matches any finding — "
         "remove it from tools/flb_analyze/analyze_baseline.txt";
  EXPECT_EQ(report.unjustified_allows, 0u);
}

}  // namespace
}  // namespace flb::analyze
