// Semantic trees (s-trees): the representation of table semantics.
//
// An s-tree is a subtree of the CM graph whose class nodes may be
// *copies* of the same concept (to handle recursive and multiple
// relationships while staying a tree, per Section 2). Each table column is
// bound bijectively to an attribute of some s-tree node, and the tree may
// carry an *anchor* — the central object the table was derived from under
// an er2rel design.
//
// An AnnotatedSchema bundles one side of a mapping problem: the relational
// schema, its CM (compiled to a CmGraph), and an s-tree per table.
#ifndef SEMAP_SEMANTICS_STREE_H_
#define SEMAP_SEMANTICS_STREE_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cm/graph.h"
#include "relational/schema.h"
#include "util/result.h"

namespace semap::sem {

/// \brief A node of an s-tree. Distinct s-tree nodes may reference the same
/// CM-graph class node — those are the paper's concept copies
/// (Person, Person_copy1, ...).
struct STreeNode {
  std::string alias;   // unique within the tree, e.g. "p", "b"
  int graph_node = -1; // class node id in the CmGraph
};

/// \brief A directed edge of the s-tree, from nodes[from] to nodes[to],
/// realized by CM-graph edge `graph_edge` (whose endpoints must agree).
struct STreeEdge {
  int from = -1;
  int to = -1;
  int graph_edge = -1;
};

/// \brief Binding of a table column to an attribute of an s-tree node.
struct ColumnBinding {
  std::string column;
  int node = -1;          // index into STree::nodes
  std::string attribute;  // attribute name declared on that node's class
};

/// \brief The semantics of one table.
class STree {
 public:
  std::string table;
  std::vector<STreeNode> nodes;
  std::vector<STreeEdge> edges;
  std::vector<ColumnBinding> bindings;
  std::optional<int> anchor;  // index into nodes

  /// Index of the node with `alias`, or -1.
  int FindNode(const std::string& alias) const;
  /// The binding for `column`, or nullptr.
  const ColumnBinding* FindBinding(const std::string& column) const;

  /// Class node ids (in the CM graph) covered by this tree.
  std::set<int> GraphNodes() const;
  /// Graph edge ids used by this tree, including inverse partners.
  std::set<int> GraphEdges(const cm::CmGraph& graph) const;

  /// Columns that identify the class at node `node_idx`: bindings whose
  /// attribute is a key attribute of that class. Drives Skolem merging in
  /// the rewriting stage.
  std::vector<std::string> IdentifierColumns(const cm::CmGraph& graph,
                                             int node_idx) const;

  /// Structural checks against `graph` and `table_def`: aliases unique,
  /// edges well-formed and endpoint-consistent, bindings bijective onto the
  /// table's columns, the edge set forms a tree over the nodes (connected,
  /// acyclic) when the tree has more than one node.
  Status Validate(const cm::CmGraph& graph, const rel::Table& table_def) const;

  std::string ToString(const cm::CmGraph& graph) const;
};

struct CompiledSide;  // semantics/compiled_side.h

/// \brief One side (source or target) of a mapping problem.
class AnnotatedSchema {
 public:
  AnnotatedSchema() = default;
  AnnotatedSchema(rel::RelationalSchema schema, cm::CmGraph graph)
      : schema_(std::move(schema)),
        graph_(std::make_shared<cm::CmGraph>(std::move(graph))) {}

  const rel::RelationalSchema& schema() const { return schema_; }
  const cm::CmGraph& graph() const { return *graph_; }

  /// Attach the semantics of one table (validates against schema + graph).
  /// Invalidates compiled(): the schema gets a fresh, unbuilt slot.
  Status AddSemantics(STree stree);

  const STree* FindSemantics(const std::string& table) const;
  const std::map<std::string, STree>& semantics() const { return semantics_; }

  /// Resolve a column to the CM-graph class node carrying its attribute,
  /// via the table's s-tree; -1 when the table has no semantics or the
  /// column is unbound.
  int ClassNodeForColumn(const rel::ColumnRef& ref) const;
  /// Resolve a column to (class node, attribute name); nullopt when
  /// unbound.
  std::optional<std::pair<int, std::string>> AttributeForColumn(
      const rel::ColumnRef& ref) const;

  /// The side's compiled form: inverse rules, EGD list and cross-table
  /// FDs (semantics/compiled_side.h). Built on the first call, exactly
  /// once even when threads race to it, and shared by copies of this
  /// schema until one of them is mutated. The reference stays valid until
  /// this schema is mutated, assigned or destroyed.
  const CompiledSide& compiled() const;

 private:
  struct CompiledSlot;
  static std::shared_ptr<CompiledSlot> NewCompiledSlot();

  rel::RelationalSchema schema_;
  std::shared_ptr<cm::CmGraph> graph_;  // shared: STrees index into it
  std::map<std::string, STree> semantics_;
  std::shared_ptr<CompiledSlot> compiled_ = NewCompiledSlot();
};

}  // namespace semap::sem

#endif  // SEMAP_SEMANTICS_STREE_H_
