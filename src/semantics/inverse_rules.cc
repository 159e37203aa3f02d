#include "semantics/inverse_rules.h"

#include <algorithm>
#include <map>
#include <set>

#include "semantics/encoder.h"

namespace semap::sem {

using logic::Atom;
using logic::Substitution;
using logic::Term;

Result<std::vector<InverseRule>> InverseRulesForTable(
    const cm::CmGraph& graph, const rel::Table& table_def, const STree& stree) {
  Fragment fragment = FragmentFromSTree(stree);
  std::vector<std::string> var_of_node;
  SEMAP_ASSIGN_OR_RETURN(
      logic::ConjunctiveQuery encoded,
      EncodeFragment(graph, fragment, table_def.columns(), stree.table,
                     &var_of_node));

  std::vector<Term> column_vars;
  column_vars.reserve(table_def.columns().size());
  for (const std::string& col : table_def.columns()) {
    column_vars.push_back(Term::Var(col));
  }

  // Identifier term per instance variable.
  Substitution id_subst;
  std::set<std::string> instance_vars(var_of_node.begin(), var_of_node.end());
  for (const std::string& v : instance_vars) {
    Term id_term = Term::Func("sk_" + stree.table + "_" + v, column_vars);
    for (size_t i = 0; i < stree.nodes.size(); ++i) {
      if (var_of_node[i] != v) continue;
      const cm::GraphNode& cls = graph.node(stree.nodes[i].graph_node);
      const cm::CmClass* model_cls = graph.model().FindClass(cls.name);
      if (model_cls == nullptr) continue;  // reified nodes have no keys here
      std::vector<std::string> key_attrs = model_cls->KeyAttributes();
      if (key_attrs.empty()) continue;
      // All key attributes must be bound at this node.
      std::vector<std::string> key_cols;
      bool complete = true;
      for (const std::string& ka : key_attrs) {
        const ColumnBinding* found = nullptr;
        for (const ColumnBinding& b : stree.bindings) {
          if (b.node == static_cast<int>(i) && b.attribute == ka) {
            found = &b;
            break;
          }
        }
        if (found == nullptr) {
          complete = false;
          break;
        }
        key_cols.push_back(found->column);
      }
      if (!complete) continue;
      if (key_cols.size() == 1) {
        id_term = Term::Var(key_cols[0]);
      } else {
        std::vector<Term> args;
        args.reserve(key_cols.size());
        for (const std::string& c : key_cols) args.push_back(Term::Var(c));
        id_term = Term::Func("id_" + cls.name, std::move(args));
      }
      break;
    }
    id_subst[v] = std::move(id_term);
  }
  // Fresh variables introduced by un-reification of partially present
  // auto-reified nodes are existential too: skolemize them.
  for (const std::string& v : encoded.ExistentialVariables()) {
    if (id_subst.count(v) > 0) continue;
    bool is_column = table_def.HasColumn(v);
    if (is_column) continue;
    id_subst[v] = Term::Func("sk_" + stree.table + "_" + v, column_vars);
  }

  Atom table_atom{stree.table, column_vars};
  std::vector<InverseRule> rules;
  rules.reserve(encoded.body.size());
  for (const Atom& atom : encoded.body) {
    rules.push_back(
        InverseRule{logic::ApplySubstitution(atom, id_subst), table_atom});
  }
  return rules;
}

}  // namespace semap::sem
