// The compiled form of one schema side: everything the rewriting stage
// and the evaluation's normal forms derive from a side's s-trees and CM
// alone. None of it depends on the correspondences of a mapping case, so
// a side is compiled once and every GenerateMappings / ScoreCase call over
// it reads the same object (docs/LOGIC_CORE.md, "Compiled schema sides").
#ifndef SEMAP_SEMANTICS_COMPILED_SIDE_H_
#define SEMAP_SEMANTICS_COMPILED_SIDE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "semantics/fd.h"
#include "semantics/inverse_rules.h"
#include "semantics/stree.h"
#include "util/result.h"

namespace semap::sem {

/// \brief What AnnotatedSchema::compiled() returns. Immutable once built.
struct CompiledSide {
  /// Inverse rules of every table with semantics, tables in name order.
  /// An encoding error is kept, so every caller gets the same Status.
  Result<std::vector<InverseRule>> rules;
  /// The complete EGD list the normalizers chase with: the s-tree FDs
  /// (DeriveSchemaFds) followed by one key FD per table with a primary
  /// key, in schema.tables() order — exactly the list
  /// ChaseQueryWithConstraints would assemble from the s-tree FDs, so
  /// callers pass it with ChaseOptions::extra_fds_complete.
  std::vector<TableFd> egds;
  /// Length of the s-tree FD prefix of `egds`.
  size_t stree_fd_count = 0;
  /// DeriveCrossTableFds of the side.
  std::vector<CrossTableFd> cross_fds;

  /// The s-tree FDs alone (DeriveSchemaFds), a prefix of `egds`.
  std::span<const TableFd> stree_fds() const {
    return {egds.data(), stree_fd_count};
  }
};

}  // namespace semap::sem

#endif  // SEMAP_SEMANTICS_COMPILED_SIDE_H_
