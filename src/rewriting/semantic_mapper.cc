#include "rewriting/semantic_mapper.h"

#include <algorithm>
#include <set>

#include "baseline/logical_relations.h"
#include "exec/explain_capture.h"
#include "logic/containment.h"
#include "rewriting/algebra.h"
#include "rewriting/rewriter.h"
#include "semantics/compiled_side.h"
#include "semantics/encoder.h"

namespace semap::rew {

using logic::ConjunctiveQuery;
using logic::Substitution;
using logic::Term;

namespace {

/// Encode one CSG side of a candidate as a CM-level query whose head is
/// v0..v{n-1}, one variable per covered correspondence.
Result<ConjunctiveQuery> EncodeCsgQuery(
    const cm::CmGraph& graph, const disc::MappingCandidate& cand,
    const std::vector<disc::LiftedCorrespondence>& lifted, bool source_side) {
  const disc::Csg& csg = source_side ? cand.source_csg : cand.target_csg;
  sem::Fragment fragment = csg.fragment;
  std::vector<std::string> head_vars;
  for (size_t k = 0; k < cand.covered.size(); ++k) {
    const disc::LiftedCorrespondence& lc = lifted[cand.covered[k]];
    int node = source_side ? lc.source_node : lc.target_node;
    // Attachments keep correspondences on the concept *copy* their column
    // is bound to (recursive relationships).
    int node_idx = cand.AttachNode(cand.covered[k], node, source_side);
    if (node_idx < 0) {
      return Status::Internal("covered correspondence node missing from CSG");
    }
    std::string var = "v" + std::to_string(k);
    fragment.attrs.push_back(
        {node_idx, source_side ? lc.source_attribute : lc.target_attribute,
         var});
    head_vars.push_back(std::move(var));
  }
  return sem::EncodeFragment(graph, fragment, head_vars);
}

}  // namespace

Result<std::vector<GeneratedMapping>> GenerateSemanticMappings(
    const sem::AnnotatedSchema& source, const sem::AnnotatedSchema& target,
    const std::vector<disc::Correspondence>& correspondences,
    const SemanticMapperOptions& options) {
  // Deprecated shim: see GenerateMappings.
  return GenerateSemanticMappings(source, target, correspondences, options,
                                  exec::RunContext{});
}

Result<std::vector<GeneratedMapping>> GenerateSemanticMappings(
    const sem::AnnotatedSchema& source, const sem::AnnotatedSchema& target,
    const std::vector<disc::Correspondence>& correspondences,
    const SemanticMapperOptions& options, const exec::RunContext& ctx) {
  // Deprecated shim: build a MapRequest and call GenerateMappings.
  MapRequest req;
  req.source = &source;
  req.target = &target;
  req.correspondences = &correspondences;
  req.options = options;
  return GenerateMappings(req, ctx);
}

Result<std::vector<GeneratedMapping>> GenerateMappings(
    const MapRequest& req, const exec::RunContext& run_ctx) {
  const sem::AnnotatedSchema& source = *req.source;
  const sem::AnnotatedSchema& target = *req.target;
  const std::vector<disc::Correspondence>& correspondences =
      *req.correspondences;
  const SemanticMapperOptions& options = req.options;
  // Discovery and rewriting share one governor: a deadline covers the
  // pipeline end to end, not each stage separately.
  exec::RunContext ctx = run_ctx;
  if (ctx.governor == nullptr) ctx.governor = options.discovery.governor;
  if (ctx.sink == nullptr) ctx.sink = options.discovery.sink;
  disc::Discoverer discoverer(source, target, correspondences,
                              options.discovery, ctx);
  SEMAP_ASSIGN_OR_RETURN(std::vector<disc::MappingCandidate> candidates,
                         discoverer.Run());
  const std::vector<disc::LiftedCorrespondence>& lifted = discoverer.lifted();

  // Inverse rules and constraint lists depend only on each side's
  // s-trees and CM: read the sides' compiled forms (built on first use).
  const sem::CompiledSide& source_side = source.compiled();
  SEMAP_RETURN_NOT_OK(source_side.rules.status());
  const sem::CompiledSide& target_side = target.compiled();
  SEMAP_RETURN_NOT_OK(target_side.rules.status());
  const std::vector<sem::InverseRule>& source_rules = *source_side.rules;
  const std::vector<sem::InverseRule>& target_rules = *target_side.rules;

  // Homomorphism searches run here, outside the rewriting sessions'
  // caches (normalizer minimization, uncached tgd comparisons).
  logic::HomStats mapper_hom;
  // Normalizers for rewriting comparison: chase under the side's key,
  // CM-derived and cross-table FDs, then minimize. EGDs only: cheap,
  // never grows the query, and suffices to collapse rewritings that read
  // an attribute from a second key-joined row. The lambdas point at the
  // compiled lists, so copying one into each candidate's options copies
  // no FD list, and the chase assembles none per call.
  auto make_normalizer = [&mapper_hom](const sem::AnnotatedSchema& side,
                                       const sem::CompiledSide& compiled) {
    baseline::ChaseOptions chase_opts;
    chase_opts.apply_rics = false;
    chase_opts.extra_fds_complete = true;
    return [schema = &side.schema(), egds = &compiled.egds,
            cross = &compiled.cross_fds, chase_opts,
            hom = &mapper_hom](const ConjunctiveQuery& q) {
      return logic::Minimize(baseline::ChaseQueryWithConstraints(
                                 *schema, q, *egds, *cross, chase_opts),
                             hom);
    };
  };
  auto source_normalize = make_normalizer(source, source_side);
  auto target_normalize = make_normalizer(target, target_side);

  // One TermFactory for the whole run, shared by both sessions and the
  // tgd cache. One rewriting session per schema side: the inverse rules
  // are interned (source side first) and indexed once, and the viability
  // / normalize / equivalence memo tables persist across candidates. A
  // third, mapper-level cache memoizes the tgd-side equivalence checks of
  // the variant and duplicate filters.
  logic::TermFactory run_factory;
  RewriteSession source_session(source_rules, options.tuning, &run_factory);
  RewriteSession target_session(target_rules, options.tuning, &run_factory);
  logic::EquivCache tgd_equiv(&run_factory);
  tgd_equiv.use_memo = options.tuning.use_memo;
  tgd_equiv.use_signatures = options.tuning.use_signatures;
  logic::EquivCache* tgd_cache =
      options.tuning.use_memo || options.tuning.use_signatures ? &tgd_equiv
                                                               : nullptr;

  auto source_columns = [&](const std::string& table)
      -> const std::vector<std::string>* {
    const rel::Table* t = source.schema().FindTable(table);
    return t == nullptr ? nullptr : &t->columns();
  };
  auto target_columns = [&](const std::string& table)
      -> const std::vector<std::string>* {
    const rel::Table* t = target.schema().FindTable(table);
    return t == nullptr ? nullptr : &t->columns();
  };

  obs::Span rewriting_span = ctx.Span("rewriting");
  std::vector<GeneratedMapping> mappings;
  // Interned handles of each emitted mapping's primary tgd sides, parallel
  // to `mappings`: cross-candidate dedup compares by handle instead of
  // re-hashing every accepted mapping per new candidate.
  std::vector<std::pair<logic::CqRef, logic::CqRef>> mapping_refs;
  size_t candidates_rendered = 0;
  for (const disc::MappingCandidate& cand : candidates) {
    if (mappings.size() >= options.max_mappings) break;
    if (!ctx.Charge()) break;
    ++candidates_rendered;
    SEMAP_ASSIGN_OR_RETURN(
        ConjunctiveQuery src_cm,
        EncodeCsgQuery(source.graph(), cand, lifted, /*source_side=*/true));
    SEMAP_ASSIGN_OR_RETURN(
        ConjunctiveQuery tgt_cm,
        EncodeCsgQuery(target.graph(), cand, lifted, /*source_side=*/false));

    RewriteOptions src_opts;
    src_opts.max_rewritings = options.max_rewritings_per_side * 4;
    src_opts.normalize = source_normalize;
    for (size_t idx : cand.covered) {
      src_opts.required_tables.insert(lifted[idx].corr.source.table);
    }
    RewriteOptions tgt_opts;
    tgt_opts.max_rewritings = options.max_rewritings_per_side * 4;
    tgt_opts.normalize = target_normalize;
    for (size_t idx : cand.covered) {
      tgt_opts.required_tables.insert(lifted[idx].corr.target.table);
    }

    Request src_req;
    src_req.query = &src_cm;
    src_req.session = &source_session;
    src_req.options = std::move(src_opts);
    Request tgt_req;
    tgt_req.query = &tgt_cm;
    tgt_req.session = &target_session;
    tgt_req.options = std::move(tgt_opts);
    SEMAP_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> src_rewritings,
                           Rewrite(src_req, ctx));
    SEMAP_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> tgt_rewritings,
                           Rewrite(tgt_req, ctx));
    if (src_rewritings.empty() || tgt_rewritings.empty()) {
      if (ctx.provenance != nullptr) {
        obs::RejectionRecord rejection;
        rejection.candidate = cand.ToString(source.graph(), target.graph());
        rejection.filter = "no-rewriting";
        rejection.detail =
            std::string(src_rewritings.empty() ? "source" : "target") +
            " CM query has no relational rewriting over the required tables";
        rejection.covered = cand.covered.size();
        rejection.penalty = cand.penalty;
        ctx.provenance->RecordRejection(std::move(rejection));
      }
      continue;
    }
    // Most compact rewriting first (Occam: the paper returns the single
    // q'3-style expression); the rest become alternative variants.
    auto by_size = [](const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
      return a.body.size() < b.body.size();
    };
    std::stable_sort(src_rewritings.begin(), src_rewritings.end(), by_size);
    std::stable_sort(tgt_rewritings.begin(), tgt_rewritings.end(), by_size);
    if (src_rewritings.size() > options.max_rewritings_per_side) {
      src_rewritings.resize(options.max_rewritings_per_side);
    }
    if (tgt_rewritings.size() > options.max_rewritings_per_side) {
      tgt_rewritings.resize(options.max_rewritings_per_side);
    }

    GeneratedMapping mapping;
    std::vector<std::pair<logic::CqRef, logic::CqRef>> variant_refs;
    for (const ConjunctiveQuery& rs : src_rewritings) {
      for (const ConjunctiveQuery& rt : tgt_rewritings) {
        logic::Tgd tgd = logic::AlignTgd(rs, rt);
        // Intern each side once; the handles ride along with the variant
        // so no query is ever re-hashed by the dedup loops below.
        logic::CqRef tgd_src = nullptr;
        logic::CqRef tgd_tgt = nullptr;
        if (tgd_cache != nullptr) {
          tgd_src = tgd_cache->Intern(tgd.source);
          tgd_tgt = tgd_cache->Intern(tgd.target);
        }
        bool duplicate = false;
        for (size_t vi = 0; vi < mapping.variants.size(); ++vi) {
          const bool equal =
              tgd_cache != nullptr
                  ? logic::EquivalentTgds(
                        mapping.variants[vi], variant_refs[vi].first,
                        variant_refs[vi].second, tgd, tgd_src, tgd_tgt,
                        *tgd_cache)
                  : logic::EquivalentTgds(mapping.variants[vi], tgd,
                                           &mapper_hom);
          if (equal) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) {
          mapping.variants.push_back(std::move(tgd));
          variant_refs.emplace_back(tgd_src, tgd_tgt);
        }
      }
    }
    if (mapping.variants.empty()) continue;
    mapping.tgd = mapping.variants.front();
    // A candidate whose primary rendering duplicates an earlier mapping's
    // is the same mapping expression; skip it.
    bool duplicate_mapping = false;
    for (size_t mi = 0; mi < mappings.size(); ++mi) {
      const bool equal =
          tgd_cache != nullptr
              ? logic::EquivalentTgds(mappings[mi].tgd, mapping_refs[mi].first,
                                      mapping_refs[mi].second, mapping.tgd,
                                      variant_refs.front().first,
                                      variant_refs.front().second, *tgd_cache)
              : logic::EquivalentTgds(mappings[mi].tgd, mapping.tgd,
                                       &mapper_hom);
      if (equal) {
        duplicate_mapping = true;
        break;
      }
    }
    if (duplicate_mapping) {
      if (ctx.provenance != nullptr) {
        obs::RejectionRecord rejection;
        rejection.candidate = cand.ToString(source.graph(), target.graph());
        rejection.filter = "duplicate";
        rejection.detail =
            "primary rendering equivalent to an earlier candidate's mapping";
        rejection.covered = cand.covered.size();
        rejection.penalty = cand.penalty;
        ctx.provenance->RecordRejection(std::move(rejection));
      }
      continue;
    }
    mapping.source_algebra = RenderAlgebra(mapping.tgd.source, source_columns);
    mapping.target_algebra = RenderAlgebra(mapping.tgd.target, target_columns);
    mapping.source_join_hints = DeriveJoinHints(source.graph(), cand.source_csg);
    mapping.target_join_hints = DeriveJoinHints(target.graph(), cand.target_csg);
    for (size_t idx : cand.covered) {
      mapping.covered.push_back(lifted[idx].corr);
    }
    mapping.candidate = cand;
    if (ctx.provenance != nullptr) {
      obs::DerivationRecord derivation;
      derivation.tgd = mapping.tgd.ToString();
      derivation.origin = "semantic";
      for (size_t idx : cand.covered) {
        derivation.covered.push_back(lifted[idx].corr.ToString());
      }
      derivation.source_csg = cand.source_csg.ToString(source.graph());
      derivation.target_csg = cand.target_csg.ToString(target.graph());
      derivation.penalty = cand.penalty;
      derivation.variants = mapping.variants.size();
      // The rendered TGD is function-free; the Skolem-merge choices that
      // shaped it are the ones its tables' inverse rules made.
      std::set<std::string> src_tables;
      for (const logic::Atom& a : mapping.tgd.source.body) {
        src_tables.insert(a.predicate);
      }
      std::set<std::string> tgt_tables;
      for (const logic::Atom& a : mapping.tgd.target.body) {
        tgt_tables.insert(a.predicate);
      }
      derivation.skolems =
          exec::SkolemDecisionsFromRules(source_rules, src_tables);
      for (obs::SkolemDecision& d :
           exec::SkolemDecisionsFromRules(target_rules, tgt_tables)) {
        bool seen = false;
        for (const obs::SkolemDecision& have : derivation.skolems) {
          if (have.function == d.function) {
            seen = true;
            break;
          }
        }
        if (!seen) derivation.skolems.push_back(std::move(d));
      }
      derivation.source_algebra = mapping.source_algebra;
      derivation.target_algebra = mapping.target_algebra;
      ctx.provenance->RecordDerivation(std::move(derivation));
    }
    mappings.push_back(std::move(mapping));
    mapping_refs.push_back(variant_refs.front());
  }
  if (ctx.Exhausted() && candidates_rendered < candidates.size()) {
    ctx.governor->NoteTruncation(
        "GenerateSemanticMappings: rendered " +
        std::to_string(candidates_rendered) + "/" +
        std::to_string(candidates.size()) + " discovered candidates");
    if (ctx.provenance != nullptr) {
      obs::RejectionRecord rejection;
      rejection.candidate =
          std::to_string(candidates.size() - candidates_rendered) +
          " unrendered discovered candidate(s)";
      rejection.filter = "budget";
      rejection.detail = "rewriting budget exhausted after rendering " +
                         std::to_string(candidates_rendered) + "/" +
                         std::to_string(candidates.size()) + " candidates";
      ctx.provenance->RecordRejection(std::move(rejection));
    }
  }
  rewriting_span.AddAttr("mappings", static_cast<int64_t>(mappings.size()));
  rewriting_span.End();
  ctx.Count("rewriting.candidates_rendered",
            static_cast<int64_t>(candidates_rendered));
  ctx.Count("rewriting.mappings_emitted",
            static_cast<int64_t>(mappings.size()));
  ctx.Count("rewriting.hom_step_capped",
            mapper_hom.step_capped + tgd_equiv.stats().hom_step_capped);
  return mappings;
}

}  // namespace semap::rew
