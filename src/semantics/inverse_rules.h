// Inverse rules (Section 3.4, Example 3.4): from the LAV semantics of each
// table, derive one rule per CM predicate produced by the table, with
// Skolem functions naming the existential class instances.
//
// Key-based Skolem merging: when an s-tree node's class is fully
// identified by bound key columns, the instance term is the key column
// variable itself (single-attribute key) or a shared "id_<Class>" function
// of the key columns (composite key) — so instances produced by different
// tables join, exactly as the paper's "use z instead of x as the internal
// identifier". Unidentified instances get a table-local Skolem
// "sk_<table>_<var>" applied to all columns, which never joins across
// tables.
//
// A whole side's rules are compiled once per schema: see
// AnnotatedSchema::compiled() (semantics/compiled_side.h).
#ifndef SEMAP_SEMANTICS_INVERSE_RULES_H_
#define SEMAP_SEMANTICS_INVERSE_RULES_H_

#include <string>
#include <vector>

#include "logic/cq.h"
#include "semantics/stree.h"
#include "util/result.h"

namespace semap::sem {

/// \brief head :- table_atom. Head terms are built from the table atom's
/// column variables (possibly under Skolem functions).
struct InverseRule {
  logic::Atom head;
  logic::Atom table_atom;

  bool operator==(const InverseRule&) const = default;

  std::string ToString() const {
    return head.ToString() + " :- " + table_atom.ToString();
  }
};

/// \brief All inverse rules of one table, in the order of the encoded
/// s-tree's atoms.
Result<std::vector<InverseRule>> InverseRulesForTable(
    const cm::CmGraph& graph, const rel::Table& table_def, const STree& stree);

}  // namespace semap::sem

#endif  // SEMAP_SEMANTICS_INVERSE_RULES_H_
