#include "baseline/ric_mapper.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "exec/explain_capture.h"
#include "logic/memo.h"

namespace semap::baseline {

using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Term;

namespace {

/// Prune unnecessary joins ("ones that did not introduce new attributes
/// not covered by correspondences"): repeatedly strip atoms of
/// non-corresponded tables that sit at the edge of the var-sharing graph,
/// leaving the minimal connected subquery around the corresponded tables.
std::vector<Atom> PruneJoins(const std::vector<Atom>& atoms,
                             const std::set<std::string>& protected_tables) {
  std::vector<Atom> current = atoms;
  bool changed = true;
  while (changed && current.size() > 1) {
    changed = false;
    for (size_t i = 0; i < current.size(); ++i) {
      if (protected_tables.count(current[i].predicate) > 0) continue;
      // Count how many other atoms this one shares variables with.
      std::set<std::string> my_vars;
      for (const Term& t : current[i].terms) my_vars.insert(t.name);
      int neighbors = 0;
      for (size_t j = 0; j < current.size(); ++j) {
        if (i == j) continue;
        for (const Term& t : current[j].terms) {
          if (my_vars.count(t.name) > 0) {
            ++neighbors;
            break;
          }
        }
      }
      if (neighbors <= 1) {
        current.erase(current.begin() + static_cast<long>(i));
        changed = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace

Result<std::vector<RicMapping>> GenerateRicMappings(
    const rel::RelationalSchema& source, const rel::RelationalSchema& target,
    const std::vector<disc::Correspondence>& correspondences,
    const RicMapperOptions& options) {
  return GenerateRicMappings(source, target, correspondences, options,
                             exec::RunContext{});
}

Result<std::vector<RicMapping>> GenerateRicMappings(
    const rel::RelationalSchema& source, const rel::RelationalSchema& target,
    const std::vector<disc::Correspondence>& correspondences,
    const RicMapperOptions& options, const exec::RunContext& run_ctx) {
  exec::RunContext ctx = run_ctx;
  if (ctx.governor == nullptr) ctx.governor = options.governor;
  obs::Span span = ctx.Span("ric_baseline");
  for (const disc::Correspondence& corr : correspondences) {
    if (!source.HasColumn(corr.source)) {
      return Status::NotFound("unknown source column " +
                              corr.source.ToString());
    }
    if (!target.HasColumn(corr.target)) {
      return Status::NotFound("unknown target column " +
                              corr.target.ToString());
    }
  }
  // One equivalence engine for the call: the logical-relation dedup and
  // the mapping dedup below share its interner, signatures and memos.
  logic::Interner interner;
  logic::EquivCache equiv(&interner);
  std::vector<LogicalRelation> source_lrs =
      LogicalRelationsOf(source, options.chase, &equiv);
  std::vector<LogicalRelation> target_lrs =
      LogicalRelationsOf(target, options.chase, &equiv);

  ctx.Count("baseline.logical_relations",
            static_cast<int64_t>(source_lrs.size() + target_lrs.size()));
  // PruneJoins depends only on the relation and its protected tables, and
  // every partner on the other side asks again: memoize per relation.
  using PruneMemo =
      std::vector<std::map<std::set<std::string>, std::vector<Atom>>>;
  PruneMemo source_pruned(source_lrs.size());
  PruneMemo target_pruned(target_lrs.size());
  auto body_of = [&](PruneMemo& memo, size_t lr,
                     const std::vector<Atom>& atoms,
                     const std::set<std::string>& tables) {
    if (!options.prune_unnecessary_joins) return atoms;
    auto it = memo[lr].find(tables);
    if (it == memo[lr].end()) {
      it = memo[lr].emplace(tables, PruneJoins(atoms, tables)).first;
    }
    return it->second;
  };
  std::vector<RicMapping> mappings;
  // Interned sides of each kept mapping's tgd, parallel to `mappings`.
  std::vector<std::pair<logic::CqRef, logic::CqRef>> mapping_refs;
  size_t pairs_tried = 0;
  const size_t total_pairs = source_lrs.size() * target_lrs.size();
  // Emitted on every exit path (cap hit, exhaustion, completion).
  auto finish = [&] {
    ctx.Count("baseline.pairs_examined", static_cast<int64_t>(pairs_tried));
    ctx.Count("baseline.mappings_emitted",
              static_cast<int64_t>(mappings.size()));
    ctx.Count("baseline.hom_step_capped", equiv.stats().hom_step_capped);
    span.AddAttr("mappings", static_cast<int64_t>(mappings.size()));
    span.End();
  };
  for (size_t si = 0; si < source_lrs.size(); ++si) {
    const LogicalRelation& slr = source_lrs[si];
    if (ctx.Exhausted()) break;
    for (size_t ti = 0; ti < target_lrs.size(); ++ti) {
      const LogicalRelation& tlr = target_lrs[ti];
      if (!ctx.Charge()) break;
      ++pairs_tried;
      // Covered correspondences: both ends present in the pair.
      std::vector<size_t> covered;
      for (size_t i = 0; i < correspondences.size(); ++i) {
        if (slr.MentionsTable(correspondences[i].source.table) &&
            tlr.MentionsTable(correspondences[i].target.table)) {
          covered.push_back(i);
        }
      }
      if (covered.empty()) continue;

      // Heads: one frontier position per covered correspondence.
      ConjunctiveQuery src_q;
      ConjunctiveQuery tgt_q;
      std::set<std::string> src_tables;
      std::set<std::string> tgt_tables;
      for (size_t i : covered) {
        std::string sv = slr.VariableFor(source, correspondences[i].source);
        std::string tv = tlr.VariableFor(target, correspondences[i].target);
        src_q.head.push_back(Term::Var(sv));
        tgt_q.head.push_back(Term::Var(tv));
        src_tables.insert(correspondences[i].source.table);
        tgt_tables.insert(correspondences[i].target.table);
      }
      src_q.body = body_of(source_pruned, si, slr.atoms, src_tables);
      tgt_q.body = body_of(target_pruned, ti, tlr.atoms, tgt_tables);

      RicMapping mapping;
      mapping.tgd = logic::AlignTgd(src_q, tgt_q);
      for (size_t i : covered) mapping.covered.push_back(correspondences[i]);
      const logic::CqRef src_ref = equiv.Intern(mapping.tgd.source);
      const logic::CqRef tgt_ref = equiv.Intern(mapping.tgd.target);
      bool duplicate = false;
      for (size_t k = 0; k < mappings.size(); ++k) {
        if (logic::EquivalentTgds(mappings[k].tgd, mapping_refs[k].first,
                                  mapping_refs[k].second, mapping.tgd,
                                  src_ref, tgt_ref, equiv)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        if (ctx.provenance != nullptr) {
          // Render the logical-relation pair the way discovery renders a
          // CSG: the joined table predicates on each side.
          auto lr_text = [](const LogicalRelation& lr) {
            std::string out = "lr{";
            for (size_t a = 0; a < lr.atoms.size(); ++a) {
              if (a > 0) out += ",";
              out += lr.atoms[a].predicate;
            }
            return out + "}";
          };
          obs::DerivationRecord derivation;
          derivation.tgd = mapping.tgd.ToString();
          derivation.origin = "ric-baseline";
          for (const disc::Correspondence& corr : mapping.covered) {
            derivation.covered.push_back(corr.ToString());
          }
          derivation.source_csg = lr_text(slr);
          derivation.target_csg = lr_text(tlr);
          derivation.skolems = exec::SkolemDecisionsOf(mapping.tgd);
          ctx.provenance->RecordDerivation(std::move(derivation));
        }
        mappings.push_back(std::move(mapping));
        mapping_refs.emplace_back(src_ref, tgt_ref);
        if (mappings.size() >= options.max_mappings) {
          finish();
          return mappings;
        }
      }
    }
  }
  if (ctx.Exhausted() && pairs_tried < total_pairs) {
    ctx.governor->NoteTruncation(
        "GenerateRicMappings: examined " + std::to_string(pairs_tried) + "/" +
        std::to_string(total_pairs) + " logical-relation pairs");
  }
  finish();
  return mappings;
}

}  // namespace semap::baseline
