#include "semantics/stree.h"

#include <algorithm>

#include "util/string_util.h"

namespace semap::sem {

int STree::FindNode(const std::string& alias) const {
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].alias == alias) return static_cast<int>(i);
  }
  return -1;
}

const ColumnBinding* STree::FindBinding(const std::string& column) const {
  for (const ColumnBinding& b : bindings) {
    if (b.column == column) return &b;
  }
  return nullptr;
}

std::set<int> STree::GraphNodes() const {
  std::set<int> out;
  for (const STreeNode& n : nodes) out.insert(n.graph_node);
  return out;
}

std::set<int> STree::GraphEdges(const cm::CmGraph& graph) const {
  std::set<int> out;
  for (const STreeEdge& e : edges) {
    out.insert(e.graph_edge);
    int partner = graph.edge(e.graph_edge).partner;
    if (partner >= 0) out.insert(partner);
  }
  return out;
}

std::vector<std::string> STree::IdentifierColumns(const cm::CmGraph& graph,
                                                  int node_idx) const {
  std::vector<std::string> out;
  for (const ColumnBinding& b : bindings) {
    if (b.node != node_idx) continue;
    const cm::GraphNode& cls = graph.node(nodes[static_cast<size_t>(b.node)].graph_node);
    int attr_node = graph.FindAttributeNode(cls.name, b.attribute);
    if (attr_node >= 0 && graph.node(attr_node).is_key_attribute) {
      out.push_back(b.column);
    }
  }
  return out;
}

Status STree::Validate(const cm::CmGraph& graph,
                       const rel::Table& table_def) const {
  if (nodes.empty()) {
    return Status::InvalidArgument("s-tree for '" + table + "' has no nodes");
  }
  std::set<std::string> aliases;
  for (const STreeNode& n : nodes) {
    if (!aliases.insert(n.alias).second) {
      return Status::InvalidArgument("duplicate alias '" + n.alias +
                                     "' in s-tree for '" + table + "'");
    }
    if (n.graph_node < 0 ||
        n.graph_node >= static_cast<int>(graph.nodes().size()) ||
        !graph.node(n.graph_node).IsClass()) {
      return Status::InvalidArgument("s-tree node '" + n.alias +
                                     "' does not reference a class node");
    }
  }
  for (const STreeEdge& e : edges) {
    if (e.from < 0 || e.from >= static_cast<int>(nodes.size()) || e.to < 0 ||
        e.to >= static_cast<int>(nodes.size())) {
      return Status::InvalidArgument("s-tree edge out of range in '" + table +
                                     "'");
    }
    const cm::GraphEdge& ge = graph.edge(e.graph_edge);
    if (ge.from != nodes[static_cast<size_t>(e.from)].graph_node ||
        ge.to != nodes[static_cast<size_t>(e.to)].graph_node) {
      return Status::InvalidArgument(
          "s-tree edge endpoints disagree with graph edge '" + ge.Label() +
          "' in '" + table + "'");
    }
  }
  // Tree shape: undirected-connected and |edges| == |nodes| - 1.
  if (nodes.size() > 1) {
    if (edges.size() != nodes.size() - 1) {
      return Status::InvalidArgument("s-tree for '" + table + "' has " +
                                     std::to_string(edges.size()) +
                                     " edges for " +
                                     std::to_string(nodes.size()) + " nodes");
    }
    std::vector<std::vector<int>> adj(nodes.size());
    for (const STreeEdge& e : edges) {
      adj[static_cast<size_t>(e.from)].push_back(e.to);
      adj[static_cast<size_t>(e.to)].push_back(e.from);
    }
    std::vector<bool> visited(nodes.size(), false);
    std::vector<int> stack = {0};
    visited[0] = true;
    size_t reached = 1;
    while (!stack.empty()) {
      int cur = stack.back();
      stack.pop_back();
      for (int next : adj[static_cast<size_t>(cur)]) {
        if (!visited[static_cast<size_t>(next)]) {
          visited[static_cast<size_t>(next)] = true;
          ++reached;
          stack.push_back(next);
        }
      }
    }
    if (reached != nodes.size()) {
      return Status::InvalidArgument("s-tree for '" + table +
                                     "' is not connected");
    }
  }
  // Bindings: bijective onto the table's columns; attributes exist.
  std::set<std::string> bound;
  for (const ColumnBinding& b : bindings) {
    if (!table_def.HasColumn(b.column)) {
      return Status::NotFound("s-tree binds unknown column '" + b.column +
                              "' of table '" + table + "'");
    }
    if (!bound.insert(b.column).second) {
      return Status::InvalidArgument("column '" + b.column +
                                     "' bound twice in s-tree for '" + table +
                                     "'");
    }
    if (b.node < 0 || b.node >= static_cast<int>(nodes.size())) {
      return Status::InvalidArgument("binding for '" + b.column +
                                     "' references missing node");
    }
    const cm::GraphNode& cls =
        graph.node(nodes[static_cast<size_t>(b.node)].graph_node);
    if (graph.FindAttributeNode(cls.name, b.attribute) < 0) {
      return Status::NotFound("class '" + cls.name + "' has no attribute '" +
                              b.attribute + "' (s-tree for '" + table + "')");
    }
  }
  for (const std::string& col : table_def.columns()) {
    if (bound.count(col) == 0) {
      return Status::InvalidArgument("column '" + col + "' of table '" + table +
                                     "' is not bound by its s-tree");
    }
  }
  if (anchor.has_value() &&
      (*anchor < 0 || *anchor >= static_cast<int>(nodes.size()))) {
    return Status::InvalidArgument("anchor out of range in s-tree for '" +
                                   table + "'");
  }
  return Status::OK();
}

std::string STree::ToString(const cm::CmGraph& graph) const {
  std::string out = "s-tree for " + table + ": ";
  std::vector<std::string> node_strs;
  for (const STreeNode& n : nodes) {
    std::string s = n.alias + ":" + graph.node(n.graph_node).name;
    if (anchor.has_value() && nodes[static_cast<size_t>(*anchor)].alias == n.alias) {
      s += "(anchor)";
    }
    node_strs.push_back(s);
  }
  out += Join(node_strs, ", ");
  if (!edges.empty()) {
    out += "; edges: ";
    std::vector<std::string> edge_strs;
    for (const STreeEdge& e : edges) {
      edge_strs.push_back(nodes[static_cast<size_t>(e.from)].alias + " -" +
                          graph.edge(e.graph_edge).Label() + "-> " +
                          nodes[static_cast<size_t>(e.to)].alias);
    }
    out += Join(edge_strs, ", ");
  }
  return out;
}

Status AnnotatedSchema::AddSemantics(STree stree) {
  const rel::Table* table_def = schema_.FindTable(stree.table);
  if (table_def == nullptr) {
    return Status::NotFound("semantics for unknown table '" + stree.table +
                            "'");
  }
  SEMAP_RETURN_NOT_OK(stree.Validate(*graph_, *table_def));
  if (semantics_.count(stree.table) > 0) {
    return Status::AlreadyExists("semantics for table '" + stree.table +
                                 "' already attached");
  }
  semantics_.emplace(stree.table, std::move(stree));
  compiled_ = NewCompiledSlot();
  return Status::OK();
}

const STree* AnnotatedSchema::FindSemantics(const std::string& table) const {
  auto it = semantics_.find(table);
  if (it == semantics_.end()) return nullptr;
  return &it->second;
}

int AnnotatedSchema::ClassNodeForColumn(const rel::ColumnRef& ref) const {
  auto attr = AttributeForColumn(ref);
  if (!attr.has_value()) return -1;
  return attr->first;
}

std::optional<std::pair<int, std::string>> AnnotatedSchema::AttributeForColumn(
    const rel::ColumnRef& ref) const {
  const STree* stree = FindSemantics(ref.table);
  if (stree == nullptr) return std::nullopt;
  const ColumnBinding* binding = stree->FindBinding(ref.column);
  if (binding == nullptr) return std::nullopt;
  int graph_node = stree->nodes[static_cast<size_t>(binding->node)].graph_node;
  return std::make_pair(graph_node, binding->attribute);
}

}  // namespace semap::sem
