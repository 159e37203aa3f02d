#include <gtest/gtest.h>

#include "logic/containment.h"
#include "logic/cq.h"
#include "logic/parser.h"
#include "logic/tgd.h"
#include "logic/unify.h"

namespace semap::logic {
namespace {

ConjunctiveQuery Cq(const char* text) {
  auto q = ParseCq(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

TEST(TermTest, ToString) {
  EXPECT_EQ(Term::Var("x").ToString(), "x");
  EXPECT_EQ(Term::Const("c").ToString(), "'c'");
  EXPECT_EQ(Term::Func("f", {Term::Var("x"), Term::Var("y")}).ToString(),
            "f(x, y)");
}

TEST(TermTest, EqualityAndOrdering) {
  EXPECT_EQ(Term::Var("x"), Term::Var("x"));
  EXPECT_FALSE(Term::Var("x") == Term::Const("x"));
  EXPECT_FALSE(Term::Func("f", {Term::Var("x")}) ==
               Term::Func("f", {Term::Var("y")}));
}

TEST(CqTest, VariablesInOrder) {
  ConjunctiveQuery q = Cq("ans(a, b) :- p(a, c), q(b, f(d))");
  auto vars = q.Variables();
  ASSERT_EQ(vars.size(), 4u);
  EXPECT_EQ(vars[0], "a");
  EXPECT_EQ(vars[1], "b");
  EXPECT_EQ(vars[2], "c");
  EXPECT_EQ(vars[3], "d");
}

TEST(CqTest, ExistentialVariables) {
  ConjunctiveQuery q = Cq("ans(a) :- p(a, b), q(b, c)");
  auto ex = q.ExistentialVariables();
  ASSERT_EQ(ex.size(), 2u);
  EXPECT_EQ(ex[0], "b");
  EXPECT_EQ(ex[1], "c");
}

TEST(CqTest, SubstitutionAppliesInsideFunctions) {
  Substitution sub{{"x", Term::Var("z")}};
  Term t = ApplySubstitution(Term::Func("f", {Term::Var("x")}), sub);
  EXPECT_EQ(t.ToString(), "f(z)");
}

TEST(CqTest, RenameApartDisjointVariables) {
  ConjunctiveQuery q = Cq("ans(a) :- p(a, b)");
  ConjunctiveQuery r = RenameApart(q, "fresh_");
  for (const std::string& v : r.Variables()) {
    EXPECT_EQ(v.rfind("fresh_", 0), 0u) << v;
  }
}

TEST(HomomorphismTest, IdentityAlwaysExists) {
  ConjunctiveQuery q = Cq("ans(a) :- p(a, b), q(b)");
  EXPECT_TRUE(FindHomomorphism(q, q).has_value());
}

TEST(HomomorphismTest, HeadMustMap) {
  ConjunctiveQuery q1 = Cq("ans(a) :- p(a)");
  ConjunctiveQuery q2 = Cq("ans(x) :- p(y)");  // head var not in the atom
  EXPECT_FALSE(FindHomomorphism(q1, q2).has_value());
  EXPECT_TRUE(FindHomomorphism(q2, q1).has_value());
}

TEST(ContainmentTest, MoreAtomsIsMoreRestrictive) {
  ConjunctiveQuery general = Cq("ans(a) :- p(a, b)");
  ConjunctiveQuery specific = Cq("ans(a) :- p(a, b), q(b)");
  EXPECT_TRUE(Contains(general, specific));
  EXPECT_FALSE(Contains(specific, general));
}

TEST(ContainmentTest, JoinFoldsOntoSelfJoin) {
  // p(a,b) ∧ p(b,c) contains p(a,a) (hom maps both atoms onto one).
  ConjunctiveQuery path = Cq("ans(a) :- p(a, b), p(b, c)");
  ConjunctiveQuery loop = Cq("ans(a) :- p(a, a)");
  EXPECT_TRUE(Contains(path, loop));
  EXPECT_FALSE(Contains(loop, path));
}

TEST(ContainmentTest, ReflexiveAndTransitive) {
  ConjunctiveQuery a = Cq("ans(x) :- p(x, y)");
  ConjunctiveQuery b = Cq("ans(x) :- p(x, y), q(y)");
  ConjunctiveQuery c = Cq("ans(x) :- p(x, y), q(y), r(y)");
  EXPECT_TRUE(Contains(a, a));
  EXPECT_TRUE(Contains(a, b));
  EXPECT_TRUE(Contains(b, c));
  EXPECT_TRUE(Contains(a, c));  // transitivity
}

TEST(EquivalentTest, RenamedQueriesAreEquivalent) {
  ConjunctiveQuery a = Cq("ans(x) :- p(x, y), q(y)");
  ConjunctiveQuery b = Cq("ans(u) :- p(u, v), q(v)");
  EXPECT_TRUE(Equivalent(a, b));
}

TEST(MinimizeTest, RemovesRedundantAtom) {
  // p(a, b2) is subsumed by p(a, b) since b2 is existential and unused.
  ConjunctiveQuery q = Cq("ans(a, b) :- p(a, b), p(a, b2)");
  ConjunctiveQuery m = Minimize(q);
  EXPECT_EQ(m.body.size(), 1u);
  EXPECT_TRUE(Equivalent(q, m));
}

TEST(MinimizeTest, KeepsNecessaryAtoms) {
  ConjunctiveQuery q = Cq("ans(a, c) :- p(a, b), p(b, c)");
  EXPECT_EQ(Minimize(q).body.size(), 2u);
}

// K_n: edges e(vi, vj) for every ordered pair i != j. A homomorphism
// K_n -> K_m is a proper m-colouring of K_n, so none exists for m < n —
// and proving that by backtracking takes far more than kMaxHomSteps.
ConjunctiveQuery Clique(int n, const std::string& prefix) {
  ConjunctiveQuery q;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      q.body.push_back(Atom{"e", {Term::Var(prefix + std::to_string(i)),
                                  Term::Var(prefix + std::to_string(j))}});
    }
  }
  return q;
}

TEST(HomomorphismTest, StepBoundAnswersNoAndIsCounted) {
  HomStats stats;
  EXPECT_FALSE(Contains(Clique(8, "v"), Clique(7, "c"), &stats));
  EXPECT_EQ(stats.step_capped, 1);
  EXPECT_EQ(stats.steps, kMaxHomSteps);

  HomStats feasible;
  EXPECT_TRUE(Contains(Clique(3, "v"), Clique(7, "c"), &feasible));
  EXPECT_EQ(feasible.step_capped, 0);
  EXPECT_GT(feasible.steps, 0);
}

TEST(HomomorphismTest, MissingPredicateFailsWithoutSearching) {
  HomStats stats;
  EXPECT_FALSE(Contains(Cq("ans(a) :- p(a), q(a)"), Cq("ans(a) :- p(a)"),
                        &stats));
  EXPECT_EQ(stats.steps, 0);
  // Arity is part of the bucket key: p/1 never maps onto p/2.
  EXPECT_FALSE(Contains(Cq("ans(a) :- p(a)"), Cq("ans(a) :- p(a, a)"),
                        &stats));
  EXPECT_EQ(stats.steps, 0);
}

TEST(MinimizeTest, CoreOfTriangleWithHead) {
  ConjunctiveQuery q = Cq("ans(a) :- e(a, b), e(b, c), e(c, a)");
  // The 3-cycle with a distinguished node is its own core.
  EXPECT_EQ(Minimize(q).body.size(), 3u);
}

TEST(UnifyTest, BindsBothDirections) {
  Substitution sub;
  EXPECT_TRUE(Unify(Term::Var("x"), Term::Var("y"), sub));
  EXPECT_TRUE(Unify(Term::Var("x"), Term::Const("c"), sub));
  EXPECT_EQ(Resolve(Term::Var("y"), sub), Term::Const("c"));
}

TEST(UnifyTest, FunctionsUnifyRecursively) {
  Substitution sub;
  Term a = Term::Func("f", {Term::Var("x"), Term::Const("c")});
  Term b = Term::Func("f", {Term::Const("d"), Term::Var("y")});
  EXPECT_TRUE(Unify(a, b, sub));
  EXPECT_EQ(Resolve(Term::Var("x"), sub), Term::Const("d"));
  EXPECT_EQ(Resolve(Term::Var("y"), sub), Term::Const("c"));
}

TEST(UnifyTest, OccursCheck) {
  Substitution sub;
  EXPECT_FALSE(
      Unify(Term::Var("x"), Term::Func("f", {Term::Var("x")}), sub));
}

TEST(UnifyTest, MismatchedFunctorsFail) {
  Substitution sub;
  EXPECT_FALSE(Unify(Term::Func("f", {Term::Var("x")}),
                     Term::Func("g", {Term::Var("y")}), sub));
  EXPECT_FALSE(Unify(Term::Const("a"), Term::Const("b"), sub));
}

TEST(UnifyAtomsTest, PredicateAndArityMustMatch) {
  Substitution sub;
  Atom a{"p", {Term::Var("x")}};
  Atom b{"p", {Term::Var("y"), Term::Var("z")}};
  EXPECT_FALSE(UnifyAtoms(a, b, sub));
}

TEST(TgdTest, ParseComputesSharedFrontier) {
  auto tgd = ParseTgd("p(a, b), q(b, c) -> r(a, d), s(d, c)");
  ASSERT_TRUE(tgd.ok());
  ASSERT_EQ(tgd->frontier().size(), 2u);
  EXPECT_EQ(tgd->frontier()[0].name, "a");
  EXPECT_EQ(tgd->frontier()[1].name, "c");
}

TEST(TgdTest, ToStringShowsQuantifiers) {
  auto tgd = ParseTgd("p(a) -> q(a, y)");
  ASSERT_TRUE(tgd.ok());
  std::string s = tgd->ToString();
  EXPECT_NE(s.find("forall a"), std::string::npos);
  EXPECT_NE(s.find("exists y"), std::string::npos);
}

TEST(TgdTest, EquivalenceUpToRenaming) {
  auto a = ParseTgd("p(a, b) -> q(a, b)");
  auto b = ParseTgd("p(x, y) -> q(x, y)");
  EXPECT_TRUE(EquivalentTgds(*a, *b));
}

TEST(TgdTest, EquivalenceUpToFrontierPermutation) {
  auto a = ParseTgd("p(a), q(b) -> r(a, b)");
  auto b = ParseTgd("q(b), p(a) -> r(a, b)");
  EXPECT_TRUE(EquivalentTgds(*a, *b));
}

TEST(TgdTest, DifferentBodiesNotEquivalent) {
  auto a = ParseTgd("p(a) -> q(a)");
  auto b = ParseTgd("p2(a) -> q(a)");
  EXPECT_FALSE(EquivalentTgds(*a, *b));
}

TEST(TgdTest, DifferentFrontierSizesNotEquivalent) {
  auto a = ParseTgd("p(a, b) -> q(a, b)");
  auto b = ParseTgd("p(a, b) -> q(a, c)");
  EXPECT_FALSE(EquivalentTgds(*a, *b));
}

TEST(AlignTgdTest, BuildsSharedFrontier) {
  ConjunctiveQuery src = Cq("ans(x, y) :- p(x, y, e)");
  ConjunctiveQuery tgt = Cq("ans(u, v) :- q(u, v, f)");
  Tgd tgd = AlignTgd(src, tgt);
  ASSERT_EQ(tgd.source.head.size(), 2u);
  EXPECT_EQ(tgd.source.head[0].name, "w0");
  EXPECT_EQ(tgd.target.head[0].name, "w0");
  // Existentials got side prefixes.
  EXPECT_EQ(tgd.source.body[0].terms[2].name, "s_e");
  EXPECT_EQ(tgd.target.body[0].terms[2].name, "t_f");
}

TEST(AlignTgdTest, RepeatedSourceHeadVariable) {
  ConjunctiveQuery src = Cq("ans(x, x) :- p(x)");
  ConjunctiveQuery tgt = Cq("ans(u, v) :- q(u, v)");
  Tgd tgd = AlignTgd(src, tgt);
  EXPECT_EQ(tgd.source.head[0], tgd.source.head[1]);
  // Target frontier terms both resolve to source frontier names.
  EXPECT_EQ(tgd.target.head[0].name, "w0");
}

TEST(ParserTest, ParseAtomWithDottedPredicate) {
  auto atom = ParseAtom("Person.name(x, v0)");
  ASSERT_TRUE(atom.ok());
  EXPECT_EQ(atom->predicate, "Person.name");
  EXPECT_EQ(atom->terms.size(), 2u);
}

TEST(ParserTest, ParseAtomRejectsTrailing) {
  EXPECT_FALSE(ParseAtom("p(x) q").ok());
}

TEST(ParserTest, ParseCqRejectsGarbage) {
  EXPECT_FALSE(ParseCq("ans(x) - p(x)").ok());
  EXPECT_FALSE(ParseCq("ans(x) :- ").ok());
}

TEST(ParserTest, FunctionTermsInQueries) {
  auto q = ParseCq("ans(x) :- p(x, sk_t(x, y))");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->body[0].terms[1].kind, TermKind::kFunction);
}

}  // namespace
}  // namespace semap::logic
