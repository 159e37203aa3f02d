// Functional dependencies implied by table semantics.
//
// "Functional properties in the CM determine functional dependencies"
// (Section 3.2): if s-tree node A is identified by bound key columns X and
// node B is reachable from A along a functional-direction tree path, then
// X functionally determines every column bound at B. The evaluation
// harness chases with these FDs (as equality-generating dependencies) so
// that rewritings that differ only by functionally-redundant joins compare
// as equivalent.
#ifndef SEMAP_SEMANTICS_FD_H_
#define SEMAP_SEMANTICS_FD_H_

#include <string>
#include <vector>

#include "semantics/stree.h"

namespace semap::sem {

/// \brief X -> Y over the columns of one table.
struct TableFd {
  std::string table;
  std::vector<std::string> lhs;
  std::vector<std::string> rhs;

  bool operator==(const TableFd&) const = default;
  std::string ToString() const;
};

/// \brief FDs implied by one table's s-tree (includes the primary key FD
/// when the key identifies the anchor).
std::vector<TableFd> DeriveTableFds(const cm::CmGraph& graph,
                                    const STree& stree);

/// \brief FDs of every table of a schema side.
std::vector<TableFd> DeriveSchemaFds(const AnnotatedSchema& side);

/// \brief A cross-table dependency: when a row of `table_a` and a row of
/// `table_b` agree on the identifying columns (`key_a` == `key_b`), the
/// value columns agree too (`col_a` == `col_b`) — because both columns
/// realize the *same CM attribute* of the *same identified concept* (e.g.
/// prof.pername and grad.pername both store Person.pername keyed by
/// perid).
struct CrossTableFd {
  std::string table_a;
  std::vector<std::string> key_a;
  std::string col_a;
  std::string table_b;
  std::vector<std::string> key_b;
  std::string col_b;

  bool operator==(const CrossTableFd&) const = default;
  std::string ToString() const;
};

/// \brief All cross-table FDs implied by shared CM attributes across the
/// side's table semantics (pairs over distinct tables only; same-table
/// dependencies are covered by DeriveSchemaFds).
std::vector<CrossTableFd> DeriveCrossTableFds(const AnnotatedSchema& side);

}  // namespace semap::sem

#endif  // SEMAP_SEMANTICS_FD_H_
