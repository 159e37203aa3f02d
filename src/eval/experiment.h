// Experimental harness reproducing Section 4: domains (schema pairs with
// CMs and semantics), test cases (correspondence sets plus manually
// created benchmark mappings), and the precision/recall methodology.
#ifndef SEMAP_EVAL_EXPERIMENT_H_
#define SEMAP_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "baseline/ric_mapper.h"
#include "discovery/correspondence.h"
#include "logic/tgd.h"
#include "rewriting/semantic_mapper.h"
#include "semantics/stree.h"

namespace semap::eval {

/// \brief One experiment: a correspondence set and the manually-created
/// non-trivial benchmark mapping(s) expected for it.
struct TestCase {
  std::string name;
  std::vector<disc::Correspondence> correspondences;
  std::vector<logic::Tgd> benchmark;
};

/// \brief A schema pair with attached CMs and semantics, plus its test
/// cases — one row of the paper's Table 1.
struct Domain {
  std::string name;
  std::string source_label;  // e.g. "DBLP1"
  std::string target_label;  // e.g. "DBLP2"
  std::string source_cm_label;
  std::string target_cm_label;
  sem::AnnotatedSchema source;
  sem::AnnotatedSchema target;
  std::vector<TestCase> cases;
};

struct CaseResult {
  std::string name;
  size_t generated = 0;  // |P|
  size_t expected = 0;   // |R|
  size_t matched = 0;    // |P ∩ R|
  double precision = 0;
  double recall = 0;
  double seconds = 0;
};

struct MethodResult {
  std::string method;
  double avg_precision = 0;
  double avg_recall = 0;
  double total_seconds = 0;
  std::vector<CaseResult> cases;
};

/// \brief Mapping equality per the paper's strict criterion — the same
/// pair of connections — decided as tgd equivalence *under the schema
/// constraints*: both source sides are chased over the source RICs, key
/// FDs, CM-derived FDs and cross-table FDs (the side's compiled form,
/// sem::CompiledSide), and both target sides likewise, before comparing.
bool MatchesBenchmark(const logic::Tgd& generated, const logic::Tgd& benchmark,
                      const sem::AnnotatedSchema& source,
                      const sem::AnnotatedSchema& target);

/// \brief Precision/recall of a generated mapping set against a benchmark
/// set. Each generated mapping is a *connection pair* rendered by one or
/// more equivalent-intent expression variants; it matches a benchmark if
/// any variant does (the paper counts "the same pair of connections").
/// Each benchmark matches at most one generated mapping.
CaseResult ScoreCase(const std::string& name,
                     const std::vector<std::vector<logic::Tgd>>& generated,
                     const std::vector<logic::Tgd>& benchmark,
                     const sem::AnnotatedSchema& source,
                     const sem::AnnotatedSchema& target);

/// \brief Run the semantic technique over every case of `domain`.
MethodResult EvaluateSemantic(const Domain& domain,
                              const rew::SemanticMapperOptions& options = {});

/// \brief Run the RIC-based baseline over every case of `domain`.
MethodResult EvaluateRic(const Domain& domain,
                         const baseline::RicMapperOptions& options = {});

}  // namespace semap::eval

#endif  // SEMAP_EVAL_EXPERIMENT_H_
