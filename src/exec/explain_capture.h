// Provenance capture helpers shared by the mapping generators.
//
// obs/provenance.h deliberately knows nothing about logic::Tgd (it sits
// below exec/run_context.h in the layering), so the translation from a
// TGD to its recorded Skolem-merge decisions lives here, header-only,
// where rewriting/, baseline/ and exec/ can all reach it without a link
// dependency.
#ifndef SEMAP_EXEC_EXPLAIN_CAPTURE_H_
#define SEMAP_EXEC_EXPLAIN_CAPTURE_H_

#include <string>
#include <vector>

#include "logic/tgd.h"
#include "obs/provenance.h"

namespace semap::exec {

namespace internal {

inline void CollectSkolemTerms(const logic::Term& term,
                               std::vector<obs::SkolemDecision>* out) {
  if (term.kind == logic::TermKind::kFunction) {
    bool seen = false;
    for (const obs::SkolemDecision& d : *out) {
      if (d.function == term.name) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      obs::SkolemDecision decision;
      decision.function = term.name;
      // The naming convention of semantics/inverse_rules.h encodes the
      // merge decision: id_<Class> terms merge instances on a composite
      // key across tables; sk_<table>_<var> terms are table-local
      // (unidentified concept, no cross-table merge).
      if (term.name.rfind("id_", 0) == 0) {
        decision.kind = "key-merge";
      } else if (term.name.rfind("sk_", 0) == 0) {
        decision.kind = "table-local";
      } else {
        decision.kind = "unknown";
      }
      out->push_back(std::move(decision));
    }
  }
  for (const logic::Term& arg : term.args) CollectSkolemTerms(arg, out);
}

}  // namespace internal

/// \brief The distinct Skolem functions a TGD applies (both sides — the
/// existential witnesses live on the target side, but inverse rules can
/// surface them in the source rewriting too), each classified by the
/// merge decision its name encodes.
inline std::vector<obs::SkolemDecision> SkolemDecisionsOf(
    const logic::Tgd& tgd) {
  std::vector<obs::SkolemDecision> out;
  for (const logic::Atom& atom : tgd.source.body) {
    for (const logic::Term& term : atom.terms) {
      internal::CollectSkolemTerms(term, &out);
    }
  }
  for (const logic::Atom& atom : tgd.target.body) {
    for (const logic::Term& term : atom.terms) {
      internal::CollectSkolemTerms(term, &out);
    }
  }
  return out;
}

/// \brief Skolem-merge decisions drawn from a rule set, restricted to the
/// rules of the given tables. The emitted TGDs are function-free by
/// construction (the rewriter rejects results still carrying a Skolem
/// term), so the decisions that shaped a mapping live in the inverse
/// rules of the tables it mentions, not in the TGD text.
///
/// RuleRange is any range of rule-like objects with `head` and
/// `table_atom` logic::Atom members (sem::InverseRule — taken as a
/// template so this header does not pull semantics/ into exec/'s
/// interface).
template <typename RuleRange, typename TableSet>
inline std::vector<obs::SkolemDecision> SkolemDecisionsFromRules(
    const RuleRange& rules, const TableSet& tables) {
  std::vector<obs::SkolemDecision> out;
  for (const auto& rule : rules) {
    if (tables.count(rule.table_atom.predicate) == 0) continue;
    for (const logic::Term& term : rule.head.terms) {
      internal::CollectSkolemTerms(term, &out);
    }
  }
  return out;
}

}  // namespace semap::exec

#endif  // SEMAP_EXEC_EXPLAIN_CAPTURE_H_
