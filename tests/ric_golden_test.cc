// Golden pin of the RIC baseline and the strict matcher over the 34
// Table-1 cases. tests/data/ric_golden.txt holds, per domain, the
// LogicalRelationsOf sizes of both schemas and, per case, the rendered
// RIC tgd list in emission order plus both methods' match counts. The
// file was recorded from the engine that preceded the planned
// homomorphism search; an engine change that alters any mapping, its
// order or a single matcher verdict fails here with a line diff.
//
// To record a deliberate output change, run this binary with
// SEMAP_RECORD_GOLDEN=<path> and review the diff of the written file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "baseline/logical_relations.h"
#include "baseline/ric_mapper.h"
#include "datasets/domains.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "rewriting/semantic_mapper.h"

namespace semap {
namespace {

struct Table1Run {
  std::string rendered;
  obs::Metrics metrics;  // both methods, all cases
};

const Table1Run& RunTable1() {
  static const Table1Run* run = [] {
    auto* out = new Table1Run;
    auto domains = data::BuildAllDomains();
    EXPECT_TRUE(domains.ok()) << domains.status();
    if (!domains.ok()) return out;
    exec::RunContext ctx;
    ctx.metrics = &out->metrics;
    std::ostringstream text;
    for (const eval::Domain& d : *domains) {
      text << "domain " << d.name << " source_lrs "
           << baseline::LogicalRelationsOf(d.source.schema()).size()
           << " target_lrs "
           << baseline::LogicalRelationsOf(d.target.schema()).size() << "\n";
      for (const eval::TestCase& tc : d.cases) {
        rew::MapRequest req;
        req.source = &d.source;
        req.target = &d.target;
        req.correspondences = &tc.correspondences;
        auto semantic = rew::GenerateMappings(req, ctx);
        auto ric = baseline::GenerateRicMappings(
            d.source.schema(), d.target.schema(), tc.correspondences, {}, ctx);
        EXPECT_TRUE(semantic.ok()) << tc.name << ": " << semantic.status();
        EXPECT_TRUE(ric.ok()) << tc.name << ": " << ric.status();
        if (!semantic.ok() || !ric.ok()) continue;
        std::vector<std::vector<logic::Tgd>> semantic_tgds;
        for (const rew::GeneratedMapping& m : *semantic) {
          semantic_tgds.push_back(m.variants);
        }
        std::vector<std::vector<logic::Tgd>> ric_tgds;
        for (const baseline::RicMapping& m : *ric) ric_tgds.push_back({m.tgd});
        eval::CaseResult sem_score = eval::ScoreCase(
            tc.name, semantic_tgds, tc.benchmark, d.source, d.target);
        eval::CaseResult ric_score = eval::ScoreCase(
            tc.name, ric_tgds, tc.benchmark, d.source, d.target);
        text << "case " << d.name << "/" << tc.name << " semantic "
             << sem_score.matched << "/" << sem_score.generated << "/"
             << sem_score.expected << " ric " << ric_score.matched << "/"
             << ric_score.generated << "/" << ric_score.expected << "\n";
        for (const baseline::RicMapping& m : *ric) {
          text << "  " << m.tgd.ToString() << "\n";
        }
      }
    }
    out->rendered = text.str();
    return out;
  }();
  return *run;
}

TEST(RicGoldenTest, MatchesRecordedOutputs) {
  const std::string& actual = RunTable1().rendered;
  if (const char* path = std::getenv("SEMAP_RECORD_GOLDEN")) {
    std::ofstream(path) << actual;
    GTEST_SKIP() << "recorded " << path;
  }
  std::ifstream in(std::string(SEMAP_TEST_DATA_DIR) + "/ric_golden.txt");
  ASSERT_TRUE(in.good()) << "missing tests/data/ric_golden.txt";
  std::stringstream expected;
  expected << in.rdbuf();
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line = 0;
  while (true) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    ++line;
    if (!more_want && !more_got) break;
    ASSERT_EQ(more_want ? want_line : "<end>", more_got ? got_line : "<end>")
        << "first difference at line " << line;
  }
}

TEST(RicGoldenTest, SearchesNeverHitTheStepBound) {
  const obs::Metrics& metrics = RunTable1().metrics;
  // Present (the counters are wired) and zero (no verdict came from the
  // kMaxHomSteps bound) for both methods.
  for (const char* name :
       {"rewriting.hom_step_capped", "baseline.hom_step_capped"}) {
    EXPECT_EQ(metrics.counters().count(name), 1u) << name;
    EXPECT_EQ(metrics.Value(name), 0) << name;
  }
}

}  // namespace
}  // namespace semap
