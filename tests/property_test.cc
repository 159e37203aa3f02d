// Property-style test sweeps (parameterized over seeds): random
// conceptual models are forward-engineered and must produce internally
// consistent annotated schemas; the Steiner search is validated against a
// brute-force reference; containment and chase obey their algebraic laws.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>

#include "baseline/logical_relations.h"
#include "discovery/compat.h"
#include "discovery/tree_search.h"
#include "logic/containment.h"
#include "logic/parser.h"
#include "rewriting/inverse_rules.h"
#include "semantics/er2rel.h"
#include "semantics/fd.h"

namespace semap {
namespace {

/// Deterministic random CM: `classes` classes with keys, some extra
/// attributes, and random relationships of every flavor.
cm::ConceptualModel RandomModel(std::mt19937& rng, int classes) {
  cm::ConceptualModel model;
  for (int i = 0; i < classes; ++i) {
    cm::CmClass cls;
    cls.name = "C" + std::to_string(i);
    cls.attributes.push_back({"k" + std::to_string(i), true});
    int extra = static_cast<int>(rng() % 3);
    for (int a = 0; a < extra; ++a) {
      cls.attributes.push_back(
          {"a" + std::to_string(i) + "_" + std::to_string(a), false});
    }
    EXPECT_TRUE(model.AddClass(std::move(cls)).ok());
  }
  int rels = classes + static_cast<int>(rng() % classes);
  for (int r = 0; r < rels; ++r) {
    cm::CmRelationship rel;
    rel.name = "r" + std::to_string(r);
    rel.from_class = "C" + std::to_string(rng() % classes);
    rel.to_class = "C" + std::to_string(rng() % classes);
    switch (rng() % 4) {
      case 0:
        rel.forward = cm::Cardinality::ExactlyOne();
        break;
      case 1:
        rel.forward = cm::Cardinality::AtMostOne();
        break;
      case 2:
        rel.forward = cm::Cardinality::Any();
        rel.inverse = cm::Cardinality::AtMostOne();
        break;
      default:
        rel.forward = cm::Cardinality::Any();
        rel.inverse = cm::Cardinality::AtLeastOne();
        break;
    }
    if (rng() % 5 == 0) rel.semantic_type = cm::SemanticType::kPartOf;
    EXPECT_TRUE(model.AddRelationship(std::move(rel)).ok());
  }
  return model;
}

class RandomCmTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomCmTest, Er2RelProducesConsistentAnnotatedSchema) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  cm::ConceptualModel model = RandomModel(rng, 3 + GetParam() % 5);
  auto annotated = sem::Er2Rel(model, "random");
  ASSERT_TRUE(annotated.ok()) << annotated.status();
  // Every table has validated semantics (AddSemantics validated them) and
  // every column is bound.
  for (const rel::Table& t : annotated->schema().tables()) {
    const sem::STree* stree = annotated->FindSemantics(t.name());
    ASSERT_NE(stree, nullptr) << t.name();
    EXPECT_TRUE(stree->Validate(annotated->graph(), t).ok());
  }
}

TEST_P(RandomCmTest, InverseRulesCoverEverySemanticAtom) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 77u + 5u);
  cm::ConceptualModel model = RandomModel(rng, 4);
  auto annotated = sem::Er2Rel(model, "random");
  ASSERT_TRUE(annotated.ok());
  auto rules = rew::InverseRulesForSchema(*annotated);
  ASSERT_TRUE(rules.ok());
  for (const rew::InverseRule& rule : *rules) {
    // Heads only mention variables of their table atom (or Skolems over
    // them).
    std::set<std::string> table_vars;
    for (const auto& t : rule.table_atom.terms) table_vars.insert(t.name);
    logic::ConjunctiveQuery q;
    q.body = {rule.head};
    for (const std::string& v : q.Variables()) {
      EXPECT_TRUE(table_vars.count(v) > 0) << rule.ToString();
    }
  }
}

TEST_P(RandomCmTest, DerivedFdsAreWithinTableColumns) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31u + 1u);
  cm::ConceptualModel model = RandomModel(rng, 5);
  auto annotated = sem::Er2Rel(model, "random");
  ASSERT_TRUE(annotated.ok());
  for (const sem::TableFd& fd : sem::DeriveSchemaFds(*annotated)) {
    const rel::Table* t = annotated->schema().FindTable(fd.table);
    ASSERT_NE(t, nullptr);
    for (const std::string& c : fd.lhs) EXPECT_TRUE(t->HasColumn(c));
    for (const std::string& c : fd.rhs) EXPECT_TRUE(t->HasColumn(c));
  }
}

/// Brute-force minimal functional tree: enumerate all edge subsets up to
/// size 4 and find the cheapest connected functional subtree covering the
/// terminals (exponential; only for tiny graphs).
int64_t BruteForceTreeCost(const cm::CmGraph& g, const disc::CostModel& costs,
                           const std::vector<int>& terminals) {
  std::vector<int> usable;
  for (const cm::GraphEdge& e : g.edges()) {
    if (e.kind == cm::EdgeKind::kAttribute) continue;
    if (!e.IsFunctional()) continue;
    usable.push_back(e.id);
  }
  int64_t best = std::numeric_limits<int64_t>::max();
  size_t n = usable.size();
  for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
    std::vector<int> edges;
    int64_t cost = 0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) {
        edges.push_back(usable[i]);
        cost += costs.EdgeCost(usable[i]);
      }
    }
    if (cost >= best) continue;
    // Every terminal must be connected to some common root through the
    // chosen edges, each node reached by exactly one path (tree shape is
    // implied by minimality; connectivity is what we check).
    // Build reachability: candidate roots = all class nodes.
    for (int root : g.ClassNodes()) {
      std::set<int> reached = {root};
      bool grew = true;
      while (grew) {
        grew = false;
        for (int eid : edges) {
          const cm::GraphEdge& e = g.edge(eid);
          if (reached.count(e.from) > 0 && reached.insert(e.to).second) {
            grew = true;
          }
        }
      }
      bool all = true;
      for (int t : terminals) {
        if (reached.count(t) == 0) {
          all = false;
          break;
        }
      }
      if (all) {
        best = std::min(best, cost);
        break;
      }
    }
  }
  return best;
}

class SteinerTest : public ::testing::TestWithParam<int> {};

TEST_P(SteinerTest, MatchesBruteForceOnSmallGraphs) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 1337u + 11u);
  cm::ConceptualModel model = RandomModel(rng, 4);
  auto g = cm::CmGraph::Build(model);
  ASSERT_TRUE(g.ok());
  disc::CostModel costs(*g, {});
  std::vector<int> class_nodes = g->ClassNodes();
  // Pick 2 distinct plain-class terminals.
  std::vector<int> plain;
  for (int n : class_nodes) {
    if (!g->node(n).reified) plain.push_back(n);
  }
  ASSERT_GE(plain.size(), 2u);
  std::vector<int> terminals = {plain[0],
                                plain[1 + rng() % (plain.size() - 1)]};
  if (terminals[0] == terminals[1]) return;
  disc::TreeSearchOptions opts;
  auto trees = disc::MinimalTrees(*g, costs, terminals, opts);
  int64_t brute = BruteForceTreeCost(*g, costs, terminals);
  if (trees.empty()) {
    EXPECT_EQ(brute, std::numeric_limits<int64_t>::max());
  } else {
    EXPECT_EQ(trees[0].cost, brute) << trees[0].ToString(*g);
  }
}

class ContainmentLawTest : public ::testing::TestWithParam<int> {};

logic::ConjunctiveQuery RandomQuery(std::mt19937& rng) {
  logic::ConjunctiveQuery q;
  q.head = {logic::Term::Var("h0"), logic::Term::Var("h1")};
  int atoms = 2 + static_cast<int>(rng() % 3);
  std::vector<std::string> vars = {"h0", "h1", "x", "y", "z"};
  for (int i = 0; i < atoms; ++i) {
    logic::Atom a;
    a.predicate = "p" + std::to_string(rng() % 3);
    a.terms = {logic::Term::Var(vars[rng() % vars.size()]),
               logic::Term::Var(vars[rng() % vars.size()])};
    q.body.push_back(std::move(a));
  }
  return q;
}

TEST_P(ContainmentLawTest, MinimizePreservesEquivalence) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 3u);
  logic::ConjunctiveQuery q = RandomQuery(rng);
  logic::ConjunctiveQuery m = logic::Minimize(q);
  EXPECT_TRUE(logic::Equivalent(q, m)) << q.ToString() << " vs "
                                       << m.ToString();
  EXPECT_LE(m.body.size(), q.body.size());
  // Minimization is idempotent.
  EXPECT_EQ(logic::Minimize(m).body.size(), m.body.size());
}

TEST_P(ContainmentLawTest, RenamingPreservesEquivalence) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729u + 9u);
  logic::ConjunctiveQuery q = RandomQuery(rng);
  logic::ConjunctiveQuery r = logic::RenameApart(q, "rn_");
  EXPECT_TRUE(logic::Equivalent(q, r));
}

TEST_P(ContainmentLawTest, DroppingAnAtomGeneralizes) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 65537u + 21u);
  logic::ConjunctiveQuery q = RandomQuery(rng);
  logic::ConjunctiveQuery g = q;
  g.body.pop_back();
  bool heads_survive = true;
  std::set<std::string> remaining;
  for (const auto& a : g.body) {
    for (const auto& t : a.terms) remaining.insert(t.name);
  }
  for (const auto& h : g.head) {
    if (remaining.count(h.name) == 0) heads_survive = false;
  }
  if (!heads_survive) return;  // dropping made the query unsafe; skip
  EXPECT_TRUE(logic::Contains(g, q));
}

TEST_P(ContainmentLawTest, ChaseIsIdempotentUnderConstraints) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 271u + 13u);
  cm::ConceptualModel model = RandomModel(rng, 4);
  auto annotated = sem::Er2Rel(model, "random");
  ASSERT_TRUE(annotated.ok());
  // Seed with a random table's full atom.
  const auto& tables = annotated->schema().tables();
  ASSERT_FALSE(tables.empty());
  const rel::Table& t = tables[rng() % tables.size()];
  logic::ConjunctiveQuery q;
  logic::Atom atom;
  atom.predicate = t.name();
  for (const std::string& c : t.columns()) {
    atom.terms.push_back(logic::Term::Var(c));
  }
  q.head = {atom.terms[0]};
  q.body = {atom};
  auto once = baseline::ChaseQueryWithConstraints(annotated->schema(), q);
  // Idempotence only holds when the chase terminated on its own; cyclic
  // RICs that hit the atom cap yield an arbitrary truncation.
  if (once.body.size() >= baseline::ChaseOptions{}.max_atoms) {
    GTEST_SKIP() << "chase hit the atom cap (cyclic RICs)";
  }
  auto twice = baseline::ChaseQueryWithConstraints(annotated->schema(), once);
  EXPECT_TRUE(logic::Equivalent(once, twice));
}

// ---- Planned homomorphism search vs brute force ---------------------

// Random term over a small pool: variables, constants, and Skolem terms
// (one level deep) so function matching and variables binding to
// function terms are both exercised.
logic::Term RandomTerm(std::mt19937& rng, const std::string& var_prefix,
                       bool allow_function = true) {
  const unsigned roll = rng() % 10;
  if (roll < 6) return logic::Term::Var(var_prefix + std::to_string(rng() % 4));
  if (roll < 8 || !allow_function) {
    return logic::Term::Const(rng() % 2 == 0 ? "a" : "b");
  }
  std::vector<logic::Term> args;
  const unsigned arity = 1 + rng() % 2;
  for (unsigned i = 0; i < arity; ++i) {
    args.push_back(RandomTerm(rng, var_prefix, /*allow_function=*/false));
  }
  return logic::Term::Func(rng() % 2 == 0 ? "f" : "g", std::move(args));
}

// Random CQ: few predicates so they repeat, arities mostly fixed per
// predicate (occasionally not, to exercise the arity bucket key), head of
// arity `head_arity` over the body's terms or fresh constants.
logic::ConjunctiveQuery RandomHomQuery(std::mt19937& rng,
                                       const std::string& var_prefix,
                                       size_t atoms, size_t head_arity) {
  static const char* kPredicates[] = {"p", "q", "r"};
  static const size_t kArity[] = {2, 1, 3};
  logic::ConjunctiveQuery q;
  for (size_t i = 0; i < atoms; ++i) {
    const size_t pred = rng() % 3;
    size_t arity = kArity[pred];
    if (rng() % 8 == 0) arity = (arity + 1) % 4;
    logic::Atom atom;
    atom.predicate = kPredicates[pred];
    for (size_t k = 0; k < arity; ++k) {
      atom.terms.push_back(RandomTerm(rng, var_prefix));
    }
    q.body.push_back(std::move(atom));
  }
  std::vector<logic::Term> pool;
  for (const logic::Atom& a : q.body) {
    pool.insert(pool.end(), a.terms.begin(), a.terms.end());
  }
  for (size_t i = 0; i < head_arity; ++i) {
    q.head.push_back(pool.empty() || rng() % 6 == 0
                         ? logic::Term::Const("a")
                         : pool[rng() % pool.size()]);
  }
  return q;
}

bool BruteMatchTerm(const logic::Term& p, const logic::Term& t,
                    logic::Substitution& sub) {
  if (p.IsVar()) {
    auto [it, inserted] = sub.emplace(p.name, t);
    return inserted || it->second == t;
  }
  if (p.kind != t.kind || p.name != t.name || p.args.size() != t.args.size()) {
    return false;
  }
  for (size_t i = 0; i < p.args.size(); ++i) {
    if (!BruteMatchTerm(p.args[i], t.args[i], sub)) return false;
  }
  return true;
}

// Reference: try every assignment of `from`'s atoms to `to`'s atoms.
bool BruteHomomorphism(const logic::ConjunctiveQuery& from,
                       const logic::ConjunctiveQuery& to) {
  if (from.head.size() != to.head.size()) return false;
  const size_t n = from.body.size();
  const size_t m = to.body.size();
  if (n > 0 && m == 0) return false;
  std::vector<size_t> choice(n, 0);
  while (true) {
    logic::Substitution sub;
    bool ok = true;
    for (size_t i = 0; i < from.head.size() && ok; ++i) {
      ok = BruteMatchTerm(from.head[i], to.head[i], sub);
    }
    for (size_t j = 0; j < n && ok; ++j) {
      const logic::Atom& p = from.body[j];
      const logic::Atom& t = to.body[choice[j]];
      ok = p.predicate == t.predicate && p.terms.size() == t.terms.size();
      for (size_t k = 0; k < p.terms.size() && ok; ++k) {
        ok = BruteMatchTerm(p.terms[k], t.terms[k], sub);
      }
    }
    if (ok) return true;
    size_t k = 0;
    while (k < n && ++choice[k] == m) choice[k++] = 0;
    if (k == n) return false;
  }
}

// A target that often admits a homomorphism: the pattern's image under a
// random substitution, shuffled, plus a few random atoms.
logic::ConjunctiveQuery ImageOf(std::mt19937& rng,
                                const logic::ConjunctiveQuery& from) {
  logic::Substitution sub;
  for (const std::string& v : from.Variables()) {
    sub[v] = RandomTerm(rng, "y");
  }
  logic::ConjunctiveQuery to = logic::ApplySubstitution(from, sub);
  std::shuffle(to.body.begin(), to.body.end(), rng);
  logic::ConjunctiveQuery extra =
      RandomHomQuery(rng, "y", rng() % 3, /*head_arity=*/0);
  to.body.insert(to.body.end(), extra.body.begin(), extra.body.end());
  return to;
}

TEST(HomSearchDifferentialTest, AgreesWithBruteForce) {
  std::mt19937 rng(20070415u);
  int found = 0;
  int refuted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t head_arity = rng() % 4;
    logic::ConjunctiveQuery from =
        RandomHomQuery(rng, "x", 1 + rng() % 4, head_arity);
    logic::ConjunctiveQuery to =
        rng() % 2 == 0 ? ImageOf(rng, from)
                       : RandomHomQuery(rng, "y", 1 + rng() % 5, head_arity);
    const bool expected = BruteHomomorphism(from, to);
    logic::HomStats stats;
    std::optional<logic::Substitution> sub =
        logic::FindHomomorphism(from, to, &stats);
    ASSERT_EQ(sub.has_value(), expected)
        << from.ToString() << " -> " << to.ToString();
    ASSERT_EQ(logic::Contains(from, to, &stats), expected)
        << from.ToString() << " -> " << to.ToString();
    EXPECT_EQ(stats.step_capped, 0);
    if (!expected) {
      ++refuted;
      continue;
    }
    ++found;
    // The witness is a real homomorphism: it binds every variable of
    // `from`, maps the head onto the head and every atom into `to`.
    for (const std::string& v : from.Variables()) {
      EXPECT_EQ(sub->count(v), 1u) << v;
    }
    logic::ConjunctiveQuery image = logic::ApplySubstitution(from, *sub);
    EXPECT_EQ(image.head, to.head) << from.ToString() << " -> "
                                   << to.ToString();
    for (const logic::Atom& atom : image.body) {
      EXPECT_NE(std::find(to.body.begin(), to.body.end(), atom),
                to.body.end())
          << atom.ToString() << " not in " << to.ToString();
    }
    // Minimization keeps the query equivalent (checked by the reference).
    logic::ConjunctiveQuery core = logic::Minimize(to);
    EXPECT_TRUE(BruteHomomorphism(to, core) && BruteHomomorphism(core, to))
        << to.ToString() << " vs " << core.ToString();
  }
  // Both verdicts are well represented.
  EXPECT_GT(found, 500);
  EXPECT_GT(refuted, 500);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCmTest, ::testing::Range(0, 12));
INSTANTIATE_TEST_SUITE_P(Seeds, SteinerTest, ::testing::Range(0, 12));
INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentLawTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace semap
