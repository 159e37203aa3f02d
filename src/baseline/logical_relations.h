// Clio-style logical relations: for each table, chase the referential
// integrity constraints to assemble the maximal set of logically connected
// elements (Popa et al., VLDB'02; the paper's Example 1.1 baseline).
#ifndef SEMAP_BASELINE_LOGICAL_RELATIONS_H_
#define SEMAP_BASELINE_LOGICAL_RELATIONS_H_

#include <map>
#include <string>
#include <vector>

#include "logic/cq.h"
#include "semantics/fd.h"
#include "relational/schema.h"

namespace semap::logic {
class EquivCache;
}  // namespace semap::logic

namespace semap::baseline {

/// \brief One logical relation: a join query over tables, produced by
/// chasing one table's atom over the schema's RICs. Variables are shared
/// across atoms exactly where the RICs equate columns.
struct LogicalRelation {
  std::string seed_table;
  std::vector<logic::Atom> atoms;

  /// The variable at `table`.`column` (first atom of that table), or "".
  std::string VariableFor(const rel::RelationalSchema& schema,
                          const rel::ColumnRef& ref) const;
  /// True if some atom is over `table`.
  bool MentionsTable(const std::string& table) const;

  std::string ToString() const;
};

struct ChaseOptions {
  /// Bound on total atoms per logical relation; terminates the chase in
  /// the presence of cyclic RICs (the standard chase need not terminate).
  size_t max_atoms = 24;
  /// In ChaseQueryWithConstraints: expand referenced atoms over the RICs.
  /// Disable to apply only the (EGD) functional dependencies, which never
  /// grow the query — the cheap normal form used when deduplicating
  /// rewritings.
  bool apply_rics = true;
  /// In ChaseQueryWithConstraints: treat `extra_fds` as the complete EGD
  /// set and skip assembling the per-table primary-key FDs. Callers that
  /// chase many queries against one schema pass the list assembled once
  /// (sem::CompiledSide::egds, key FDs in `schema.tables()` order,
  /// matching the default assembly) instead of copying every table's
  /// column list per call.
  bool extra_fds_complete = false;
};

/// \brief Chase a whole query over the schema's RICs *and* functional
/// dependencies (primary keys plus `extra_fds`, e.g. the s-tree FDs of
/// sem::DeriveTableFds): tgds add referenced atoms; EGDs unify the
/// determined columns of same-table atoms agreeing on the determinant
/// (which may rename head variables). Queries
/// equivalent under the constraints become plainly equivalent after this,
/// which is how the evaluation compares generated mappings to benchmarks.
logic::ConjunctiveQuery ChaseQueryWithConstraints(
    const rel::RelationalSchema& schema, logic::ConjunctiveQuery query,
    const std::vector<sem::TableFd>& extra_fds = {},
    const ChaseOptions& options = {});

/// \brief Overload that additionally applies cross-table EGDs
/// (sem::CrossTableFd): rows of two tables agreeing on their identifying
/// columns agree on columns realizing the same CM attribute.
logic::ConjunctiveQuery ChaseQueryWithConstraints(
    const rel::RelationalSchema& schema, logic::ConjunctiveQuery query,
    const std::vector<sem::TableFd>& extra_fds,
    const std::vector<sem::CrossTableFd>& cross_fds,
    const ChaseOptions& options = {});

/// \brief Chase an arbitrary atom set over the schema's RICs: add every
/// implied referenced atom until fixpoint (or the atom cap). Also used to
/// decide query equivalence *under constraints* in the evaluation.
std::vector<logic::Atom> ChaseAtoms(const rel::RelationalSchema& schema,
                                    std::vector<logic::Atom> atoms,
                                    const ChaseOptions& options = {});

/// \brief Chase `seed_table` over the schema's RICs.
LogicalRelation ChaseTable(const rel::RelationalSchema& schema,
                           const std::string& seed_table,
                           const ChaseOptions& options = {});

/// \brief All logical relations of a schema (one per table), with exact
/// duplicates (same atom multiset up to variable renaming) removed. The
/// duplicate checks run through `cache` when given — a caller that
/// compares further queries shares its interner and counters — and
/// through a cache local to the call otherwise.
std::vector<LogicalRelation> LogicalRelationsOf(
    const rel::RelationalSchema& schema, const ChaseOptions& options = {},
    logic::EquivCache* cache = nullptr);

}  // namespace semap::baseline

#endif  // SEMAP_BASELINE_LOGICAL_RELATIONS_H_
