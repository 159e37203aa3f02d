#include "baseline/logical_relations.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

#include "logic/memo.h"
#include "util/string_util.h"

namespace semap::baseline {

using logic::Atom;
using logic::Term;

namespace {

// In-place ApplySubstitution: an EGD firing rewrites terms across the
// whole query anyway, and the query here is a throwaway intermediate, so
// substituting in place spares a full-query copy per fired dependency.
// Images are inserted verbatim, exactly like logic::ApplySubstitution.
void SubstituteInPlace(logic::ConjunctiveQuery& query,
                       const logic::Substitution& sub) {
  auto fix = [&sub](auto&& self, Term& t) -> void {
    if (t.IsVar()) {
      auto it = sub.find(t.name);
      if (it != sub.end()) t = it->second;
      return;
    }
    for (Term& a : t.args) self(self, a);
  };
  for (Term& t : query.head) fix(fix, t);
  for (Atom& a : query.body) {
    for (Term& t : a.terms) fix(fix, t);
  }
}

}  // namespace

std::string LogicalRelation::VariableFor(const rel::RelationalSchema& schema,
                                         const rel::ColumnRef& ref) const {
  const rel::Table* table = schema.FindTable(ref.table);
  if (table == nullptr) return "";
  int pos = table->ColumnIndex(ref.column);
  if (pos < 0) return "";
  for (const Atom& atom : atoms) {
    if (atom.predicate == ref.table &&
        pos < static_cast<int>(atom.terms.size())) {
      return atom.terms[static_cast<size_t>(pos)].name;
    }
  }
  return "";
}

bool LogicalRelation::MentionsTable(const std::string& table) const {
  for (const Atom& atom : atoms) {
    if (atom.predicate == table) return true;
  }
  return false;
}

std::string LogicalRelation::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(atoms.size());
  for (const Atom& a : atoms) parts.push_back(a.ToString());
  return Join(parts, " join ");
}

std::vector<Atom> ChaseAtoms(const rel::RelationalSchema& schema,
                             std::vector<Atom> atoms,
                             const ChaseOptions& options) {
  // Fresh variables must avoid everything already used.
  std::set<std::string> used;
  for (const Atom& a : atoms) {
    for (const Term& t : a.terms) {
      if (t.kind == logic::TermKind::kVariable) used.insert(t.name);
    }
  }
  int fresh = 0;
  auto fresh_var = [&fresh, &used]() {
    std::string name;
    do {
      name = "ch_x" + std::to_string(fresh++);
    } while (used.count(name) > 0);
    used.insert(name);
    return Term::Var(name);
  };

  // Standard chase: for each atom and applicable RIC, add the referenced
  // atom unless one agreeing on the referenced key columns already exists.
  bool changed = true;
  while (changed && atoms.size() < options.max_atoms) {
    changed = false;
    for (size_t ai = 0; ai < atoms.size() && !changed; ++ai) {
      const Atom atom = atoms[ai];  // copy: the vector may grow
      const rel::Table* atom_table = schema.FindTable(atom.predicate);
      if (atom_table == nullptr) continue;
      for (const rel::Ric* ric : schema.RicsFrom(atom.predicate)) {
        const rel::Table* to_table = schema.FindTable(ric->to_table);
        if (to_table == nullptr) continue;
        // Variables on the referencing side.
        std::vector<Term> ref_vars;
        bool ok = true;
        for (const std::string& col : ric->from_columns) {
          int pos = atom_table->ColumnIndex(col);
          if (pos < 0) {
            ok = false;
            break;
          }
          ref_vars.push_back(atom.terms[static_cast<size_t>(pos)]);
        }
        if (!ok) continue;
        // Does an atom of to_table already agree on the referenced columns?
        bool satisfied = false;
        for (const Atom& other : atoms) {
          if (other.predicate != ric->to_table) continue;
          bool agrees = true;
          for (size_t k = 0; k < ric->to_columns.size(); ++k) {
            int pos = to_table->ColumnIndex(ric->to_columns[k]);
            if (pos < 0 ||
                !(other.terms[static_cast<size_t>(pos)] == ref_vars[k])) {
              agrees = false;
              break;
            }
          }
          if (agrees) {
            satisfied = true;
            break;
          }
        }
        if (satisfied) continue;
        Atom added;
        added.predicate = ric->to_table;
        added.terms.resize(to_table->columns().size());
        for (size_t p = 0; p < added.terms.size(); ++p) {
          added.terms[p] = fresh_var();
        }
        for (size_t k = 0; k < ric->to_columns.size(); ++k) {
          int pos = to_table->ColumnIndex(ric->to_columns[k]);
          added.terms[static_cast<size_t>(pos)] = ref_vars[k];
        }
        atoms.push_back(std::move(added));
        changed = true;
        break;
      }
    }
  }
  return atoms;
}

logic::ConjunctiveQuery ChaseQueryWithConstraints(
    const rel::RelationalSchema& schema, logic::ConjunctiveQuery query,
    const std::vector<ColumnFd>& extra_fds, const ChaseOptions& options) {
  return ChaseQueryWithConstraints(schema, std::move(query), extra_fds, {},
                                   options);
}

logic::ConjunctiveQuery ChaseQueryWithConstraints(
    const rel::RelationalSchema& schema, logic::ConjunctiveQuery query,
    const std::vector<ColumnFd>& extra_fds,
    const std::vector<sem::CrossTableFd>& cross_fds,
    const ChaseOptions& options) {
  if (options.apply_rics) {
    query.body = ChaseAtoms(schema, std::move(query.body), options);
  }

  // Assemble the EGDs: the primary key of each table plus the extras
  // (unless the caller pre-assembled the full list).
  std::vector<ColumnFd> assembled;
  if (!options.extra_fds_complete) {
    assembled = extra_fds;
    for (const rel::Table& table : schema.tables()) {
      if (table.primary_key().empty()) continue;
      assembled.push_back(
          ColumnFd{table.name(), table.primary_key(), table.columns()});
    }
  }
  const std::vector<ColumnFd>& fds =
      options.extra_fds_complete ? extra_fds : assembled;

  // Applicability screen: an EGD can only fire on a same-table atom pair
  // (key / extra FDs, duplicate collapse) or on a pair over some
  // cross-FD's two tables. Most queries join distinct tables and match
  // neither, so the quadratic FD scan below is skipped outright.
  // Substitutions never change predicates and atoms are only removed, so
  // the screen stays valid across iterations.
  bool same_table_pair = false;
  for (size_t i = 0; i < query.body.size() && !same_table_pair; ++i) {
    for (size_t j = i + 1; j < query.body.size(); ++j) {
      if (query.body[i].predicate == query.body[j].predicate) {
        same_table_pair = true;
        break;
      }
    }
  }
  // Cross-FD plans: table pointers and column positions resolved once per
  // call instead of once per atom pair per chase iteration. Cross-FDs
  // whose tables or columns do not resolve (or whose key is empty) can
  // never fire and are dropped here — the fixpoint below is unaffected.
  struct CrossPlan {
    const sem::CrossTableFd* cfd;
    std::vector<std::pair<size_t, size_t>> key_pos;  // (pos in a, pos in b)
    size_t col_a_pos;
    size_t col_b_pos;
  };
  std::vector<CrossPlan> cross_plans;
  for (const sem::CrossTableFd& cfd : cross_fds) {
    bool has_a = false;
    bool has_b = false;
    for (const Atom& atom : query.body) {
      has_a = has_a || atom.predicate == cfd.table_a;
      has_b = has_b || atom.predicate == cfd.table_b;
    }
    if (!has_a || !has_b) continue;
    const rel::Table* ta = schema.FindTable(cfd.table_a);
    const rel::Table* tb = schema.FindTable(cfd.table_b);
    if (ta == nullptr || tb == nullptr ||
        cfd.key_a.size() != cfd.key_b.size() || cfd.key_a.empty()) {
      continue;
    }
    CrossPlan plan;
    plan.cfd = &cfd;
    bool ok = true;
    for (size_t k = 0; k < cfd.key_a.size(); ++k) {
      int pos_a = ta->ColumnIndex(cfd.key_a[k]);
      int pos_b = tb->ColumnIndex(cfd.key_b[k]);
      if (pos_a < 0 || pos_b < 0) {
        ok = false;
        break;
      }
      plan.key_pos.emplace_back(static_cast<size_t>(pos_a),
                                static_cast<size_t>(pos_b));
    }
    int col_a = ta->ColumnIndex(cfd.col_a);
    int col_b = tb->ColumnIndex(cfd.col_b);
    if (!ok || col_a < 0 || col_b < 0) continue;
    plan.col_a_pos = static_cast<size_t>(col_a);
    plan.col_b_pos = static_cast<size_t>(col_b);
    cross_plans.push_back(std::move(plan));
  }

  // Same-table FD plans, grouped by table with column positions resolved
  // up front (preserving the scan order of `fds` within each table). FDs
  // with an empty or unresolvable left-hand side can never fire.
  struct FdPlan {
    std::vector<size_t> lhs_pos;
    std::vector<size_t> rhs_pos;  // unresolvable rhs columns dropped, as before
  };
  std::unordered_map<std::string, std::vector<FdPlan>> fd_plans;
  if (same_table_pair) {
    for (const ColumnFd& fd : fds) {
      const rel::Table* table = schema.FindTable(fd.table);
      if (table == nullptr || fd.lhs.empty()) continue;
      FdPlan plan;
      bool ok = true;
      for (const std::string& col : fd.lhs) {
        int pos = table->ColumnIndex(col);
        if (pos < 0) {
          ok = false;
          break;
        }
        plan.lhs_pos.push_back(static_cast<size_t>(pos));
      }
      if (!ok) continue;
      for (const std::string& col : fd.rhs) {
        int pos = table->ColumnIndex(col);
        if (pos >= 0) plan.rhs_pos.push_back(static_cast<size_t>(pos));
      }
      fd_plans[fd.table].push_back(std::move(plan));
    }
  }

  bool changed = same_table_pair || !cross_plans.empty();
  while (changed) {
    changed = false;
    for (size_t i = 0; i < query.body.size() && !changed; ++i) {
      for (size_t j = i + 1; j < query.body.size() && !changed; ++j) {
        const Atom& a = query.body[i];
        const Atom& b = query.body[j];
        // Cross-table EGDs apply to pairs over (possibly) different tables.
        for (const CrossPlan& plan : cross_plans) {
          const Atom* pa = nullptr;
          const Atom* pb = nullptr;
          if (a.predicate == plan.cfd->table_a &&
              b.predicate == plan.cfd->table_b) {
            pa = &a;
            pb = &b;
          } else if (b.predicate == plan.cfd->table_a &&
                     a.predicate == plan.cfd->table_b) {
            pa = &b;
            pb = &a;
          } else {
            continue;
          }
          bool keys_agree = true;
          for (const auto& [pos_a, pos_b] : plan.key_pos) {
            if (!(pa->terms[pos_a] == pb->terms[pos_b])) {
              keys_agree = false;
              break;
            }
          }
          if (!keys_agree) continue;
          const Term& va = pa->terms[plan.col_a_pos];
          const Term& vb = pb->terms[plan.col_b_pos];
          if (va == vb) continue;
          logic::Substitution sub;
          if (va.IsVar()) {
            sub[va.name] = vb;
          } else if (vb.IsVar()) {
            sub[vb.name] = va;
          } else {
            continue;
          }
          SubstituteInPlace(query, sub);
          changed = true;
          break;
        }
        if (changed) break;
        if (a.predicate != b.predicate) continue;
        if (a == b) {
          query.body.erase(query.body.begin() + static_cast<long>(j));
          changed = true;
          break;
        }
        auto plans_it = fd_plans.find(a.predicate);
        if (plans_it == fd_plans.end()) continue;
        for (const FdPlan& plan : plans_it->second) {
          bool lhs_agree = true;
          for (size_t pos : plan.lhs_pos) {
            if (!(a.terms[pos] == b.terms[pos])) {
              lhs_agree = false;
              break;
            }
          }
          if (!lhs_agree) continue;
          logic::Substitution sub;
          for (size_t p : plan.rhs_pos) {
            Term ta = logic::ApplySubstitution(a.terms[p], sub);
            Term tb = logic::ApplySubstitution(b.terms[p], sub);
            if (ta == tb) continue;
            if (ta.IsVar()) {
              sub[ta.name] = tb;
            } else if (tb.IsVar()) {
              sub[tb.name] = ta;
            }
          }
          if (!sub.empty()) {
            SubstituteInPlace(query, sub);
            changed = true;
            break;
          }
        }
      }
    }
  }
  std::sort(query.body.begin(), query.body.end());
  query.body.erase(std::unique(query.body.begin(), query.body.end()),
                   query.body.end());
  return query;
}

LogicalRelation ChaseTable(const rel::RelationalSchema& schema,
                           const std::string& seed_table,
                           const ChaseOptions& options) {
  LogicalRelation lr;
  lr.seed_table = seed_table;
  const rel::Table* seed = schema.FindTable(seed_table);
  if (seed == nullptr) return lr;

  Atom seed_atom;
  seed_atom.predicate = seed_table;
  for (size_t i = 0; i < seed->columns().size(); ++i) {
    seed_atom.terms.push_back(
        Term::Var(seed_table + "_x" + std::to_string(i)));
  }
  lr.atoms = ChaseAtoms(schema, {std::move(seed_atom)}, options);
  return lr;
}

std::vector<LogicalRelation> LogicalRelationsOf(
    const rel::RelationalSchema& schema, const ChaseOptions& options,
    logic::EquivCache* cache) {
  logic::Interner local_interner;
  logic::EquivCache local_cache(&local_interner);
  if (cache == nullptr) cache = &local_cache;
  std::vector<LogicalRelation> out;
  std::vector<logic::CqRef> kept;  // interned bodies, parallel to `out`
  for (const rel::Table& table : schema.tables()) {
    LogicalRelation lr = ChaseTable(schema, table.name(), options);
    // Skip exact duplicates (same query up to renaming): a table fully
    // subsumed by another's chase still yields its own logical relation in
    // Clio, so only *identical* ones (same atom count and mutual
    // containment of the head-less bodies) are merged.
    logic::ConjunctiveQuery q;
    q.body = lr.atoms;
    const logic::CqRef ref = cache->Intern(q);
    bool duplicate = false;
    for (size_t k = 0; k < out.size() && !duplicate; ++k) {
      duplicate = out[k].atoms.size() == lr.atoms.size() &&
                  cache->EquivalentRefs(kept[k], ref, /*minimized=*/false);
    }
    if (!duplicate) {
      out.push_back(std::move(lr));
      kept.push_back(ref);
    }
  }
  return out;
}

}  // namespace semap::baseline
