#include "eval/experiment.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "logic/containment.h"
#include "semantics/compiled_side.h"

namespace semap::eval {

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Both normal forms of one query under a side's constraints: the EGD-only
// form (same size; used as the homomorphism *pattern*) and the full chase
// (the canonical instance; used as the homomorphism *target*). Equivalence
// under dependencies Σ is q1 ≡_Σ q2 iff hom(q2 → chase_Σ(q1)) and
// hom(q1 → chase_Σ(q2)); keeping the patterns unchased keeps the check
// tractable even when cyclic RICs force the chase to its atom cap.
struct NormalForms {
  logic::ConjunctiveQuery egd;
  logic::ConjunctiveQuery full;
};

NormalForms Normalize(const logic::ConjunctiveQuery& q,
                      const sem::AnnotatedSchema& side) {
  const sem::CompiledSide& compiled = side.compiled();
  NormalForms out;
  baseline::ChaseOptions egd_only;
  egd_only.apply_rics = false;
  egd_only.extra_fds_complete = true;
  out.egd = baseline::ChaseQueryWithConstraints(
      side.schema(), q, compiled.egds, compiled.cross_fds, egd_only);
  baseline::ChaseOptions full;
  full.extra_fds_complete = true;
  out.full = baseline::ChaseQueryWithConstraints(
      side.schema(), out.egd, compiled.egds, compiled.cross_fds, full);
  return out;
}

bool EquivalentUnderConstraints(const NormalForms& a, const NormalForms& b) {
  return logic::Contains(b.egd, a.full) && logic::Contains(a.egd, b.full);
}

}  // namespace

bool MatchesBenchmark(const logic::Tgd& generated, const logic::Tgd& benchmark,
                      const sem::AnnotatedSchema& source,
                      const sem::AnnotatedSchema& target) {
  if (generated.source.head.size() != benchmark.source.head.size() ||
      generated.target.head.size() != benchmark.target.head.size()) {
    return false;
  }
  NormalForms g_src = Normalize(generated.source, source);
  NormalForms g_tgt = Normalize(generated.target, target);
  // The frontier orders of independently produced mappings may differ; try
  // every alignment of the benchmark's frontier (frontiers are tiny).
  const size_t n = benchmark.source.head.size();
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  do {
    logic::Tgd permuted = benchmark;
    for (size_t i = 0; i < n; ++i) {
      permuted.source.head[i] = benchmark.source.head[perm[i]];
      permuted.target.head[i] = benchmark.target.head[perm[i]];
    }
    NormalForms b_src = Normalize(permuted.source, source);
    NormalForms b_tgt = Normalize(permuted.target, target);
    if (EquivalentUnderConstraints(g_src, b_src) &&
        EquivalentUnderConstraints(g_tgt, b_tgt)) {
      return true;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

CaseResult ScoreCase(const std::string& name,
                     const std::vector<std::vector<logic::Tgd>>& generated,
                     const std::vector<logic::Tgd>& benchmark,
                     const sem::AnnotatedSchema& source,
                     const sem::AnnotatedSchema& target) {
  CaseResult result;
  result.name = name;
  result.generated = generated.size();
  result.expected = benchmark.size();
  std::vector<bool> benchmark_used(benchmark.size(), false);
  for (const std::vector<logic::Tgd>& variants : generated) {
    bool mapping_matched = false;
    for (size_t i = 0; i < benchmark.size() && !mapping_matched; ++i) {
      if (benchmark_used[i]) continue;
      for (const logic::Tgd& variant : variants) {
        if (MatchesBenchmark(variant, benchmark[i], source, target)) {
          benchmark_used[i] = true;
          ++result.matched;
          mapping_matched = true;
          break;
        }
      }
    }
  }
  result.precision = result.generated == 0
                         ? 0.0
                         : static_cast<double>(result.matched) /
                               static_cast<double>(result.generated);
  result.recall = result.expected == 0
                      ? 0.0
                      : static_cast<double>(result.matched) /
                            static_cast<double>(result.expected);
  return result;
}

MethodResult EvaluateSemantic(const Domain& domain,
                              const rew::SemanticMapperOptions& options) {
  MethodResult out;
  out.method = "semantic";
  for (const TestCase& test_case : domain.cases) {
    auto start = std::chrono::steady_clock::now();
    auto mappings = rew::GenerateSemanticMappings(
        domain.source, domain.target, test_case.correspondences, options);
    double elapsed = Seconds(start);
    std::vector<std::vector<logic::Tgd>> generated;
    if (mappings.ok()) {
      for (const rew::GeneratedMapping& m : *mappings) {
        generated.push_back(m.variants);
      }
    }
    CaseResult cr = ScoreCase(test_case.name, generated, test_case.benchmark,
                              domain.source, domain.target);
    cr.seconds = elapsed;
    out.total_seconds += elapsed;
    out.cases.push_back(std::move(cr));
  }
  for (const CaseResult& cr : out.cases) {
    out.avg_precision += cr.precision;
    out.avg_recall += cr.recall;
  }
  if (!out.cases.empty()) {
    out.avg_precision /= static_cast<double>(out.cases.size());
    out.avg_recall /= static_cast<double>(out.cases.size());
  }
  return out;
}

MethodResult EvaluateRic(const Domain& domain,
                         const baseline::RicMapperOptions& options) {
  MethodResult out;
  out.method = "ric";
  for (const TestCase& test_case : domain.cases) {
    auto start = std::chrono::steady_clock::now();
    auto mappings = baseline::GenerateRicMappings(
        domain.source.schema(), domain.target.schema(),
        test_case.correspondences, options);
    double elapsed = Seconds(start);
    std::vector<std::vector<logic::Tgd>> generated;
    if (mappings.ok()) {
      for (const baseline::RicMapping& m : *mappings) {
        generated.push_back({m.tgd});
      }
    }
    CaseResult cr = ScoreCase(test_case.name, generated, test_case.benchmark,
                              domain.source, domain.target);
    cr.seconds = elapsed;
    out.total_seconds += elapsed;
    out.cases.push_back(std::move(cr));
  }
  for (const CaseResult& cr : out.cases) {
    out.avg_precision += cr.precision;
    out.avg_recall += cr.recall;
  }
  if (!out.cases.empty()) {
    out.avg_precision /= static_cast<double>(out.cases.size());
    out.avg_recall /= static_cast<double>(out.cases.size());
  }
  return out;
}

}  // namespace semap::eval
