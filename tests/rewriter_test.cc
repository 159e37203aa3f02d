#include <gtest/gtest.h>

#include <fstream>
#include <latch>
#include <sstream>
#include <thread>

#include "cm/parser.h"
#include "datasets/builder_util.h"
#include "datasets/domains.h"
#include "datasets/examples.h"
#include "logic/containment.h"
#include "logic/parser.h"
#include "relational/schema_parser.h"
#include "rewriting/algebra.h"
#include "rewriting/rewriter.h"
#include "rewriting/semantic_mapper.h"
#include "semantics/compiled_side.h"
#include "semantics/inverse_rules.h"
#include "semantics/semantics_parser.h"
#include "validate/scenario_loader.h"

namespace semap::rew {
namespace {

constexpr char kBookstoreSchema[] =
    R"(table person(pname) key(pname);
       table book(bid) key(bid);
       table bookstore(sid) key(sid);
       table writes(pname, bid) key(pname, bid)
         fk (pname) -> person(pname) fk (bid) -> book(bid);
       table soldAt(bid, sid) key(bid, sid)
         fk (bid) -> book(bid) fk (sid) -> bookstore(sid);)";
constexpr char kBookstoreCm[] =
    R"(class Person { pname key; }
       class Book { bid key; }
       class Bookstore { sid key; }
       rel writes Person -- Book fwd 0..* inv 1..*;
       rel soldAt Book -- Bookstore fwd 0..* inv 0..*;)";
// Semantics of every table but soldAt.
constexpr char kBookstoreSemantics[] =
    R"(semantics person { node p: Person; anchor p; col pname -> p.pname; }
       semantics book { node b: Book; anchor b; col bid -> b.bid; }
       semantics bookstore { node s: Bookstore; anchor s; col sid -> s.sid; }
       semantics writes { node p: Person; node b: Book; edge writes p b;
         anchor writes$0; col pname -> p.pname; col bid -> b.bid; })";
constexpr char kSoldAtSemantics[] =
    R"(semantics soldAt { node b: Book; node s: Bookstore; edge soldAt b s;
         anchor soldAt$0; col bid -> b.bid; col sid -> s.sid; })";

sem::AnnotatedSchema Bookstore() {
  auto side = data::AnnotatedFromText(
      kBookstoreSchema, kBookstoreCm,
      std::string(kBookstoreSemantics) + "\n" + kSoldAtSemantics);
  EXPECT_TRUE(side.ok()) << side.status();
  return *side;
}

TEST(InverseRulesTest, KeyIdentifiedInstances) {
  sem::AnnotatedSchema side = Bookstore();
  auto rules = sem::InverseRulesForTable(side.graph(),
                                         *side.schema().FindTable("writes"),
                                         *side.FindSemantics("writes"));
  ASSERT_TRUE(rules.ok());
  bool person_rule = false;
  bool writes_rule = false;
  for (const sem::InverseRule& r : *rules) {
    if (r.head.predicate == "Person") {
      person_rule = true;
      // Identified by the pname key column, not a Skolem.
      EXPECT_TRUE(r.head.terms[0].IsVar());
      EXPECT_EQ(r.head.terms[0].name, "pname");
    }
    if (r.head.predicate == "writes") {
      writes_rule = true;
      EXPECT_EQ(r.head.terms.size(), 2u);
    }
    EXPECT_EQ(r.table_atom.predicate, "writes");
  }
  EXPECT_TRUE(person_rule);
  EXPECT_TRUE(writes_rule);
}

TEST(InverseRulesTest, UnidentifiedInstancesGetSkolems) {
  auto side = data::AnnotatedFromText(
      "table t(x) key(x);",
      "class A { x key; } class B { y key; } rel r A -- B fwd 0..1 inv 0..*;",
      R"(semantics t { node a: A; node b: B; edge r a b; anchor a;
           col x -> a.x; })");
  ASSERT_TRUE(side.ok()) << side.status();
  auto rules = sem::InverseRulesForTable(side->graph(),
                                         *side->schema().FindTable("t"),
                                         *side->FindSemantics("t"));
  ASSERT_TRUE(rules.ok());
  for (const sem::InverseRule& r : *rules) {
    if (r.head.predicate == "B") {
      // B's key y is unbound: the instance term must be a Skolem function.
      EXPECT_EQ(r.head.terms[0].kind, logic::TermKind::kFunction);
    }
  }
}

TEST(InverseRulesTest, SchemaWideRuleCount) {
  sem::AnnotatedSchema side = Bookstore();
  const auto& rules = side.compiled().rules;
  ASSERT_TRUE(rules.ok());
  // person:2, book:2, bookstore:2, writes:5, soldAt:5.
  EXPECT_EQ(rules->size(), 16u);
}

TEST(RewriterTest, ReproducesPaperQ3) {
  sem::AnnotatedSchema side = Bookstore();
  const auto& rules = side.compiled().rules;
  ASSERT_TRUE(rules.ok());
  // The CSG query of Example 3.3.
  auto q = logic::ParseCq(
      "ans(v0, v1) :- Person(x1), Person.pname(x1, v0), writes(x1, x2), "
      "Book(x2), soldAt(x2, x3), Bookstore(x3), Bookstore.sid(x3, v1)");
  ASSERT_TRUE(q.ok());
  RewriteOptions options;
  options.required_tables = {"person", "bookstore"};
  auto rewritings = RewriteQuery(*q, *rules, options);
  ASSERT_TRUE(rewritings.ok());
  ASSERT_EQ(rewritings->size(), 1u);
  // q'3: person ⋈ writes ⋈ soldAt ⋈ bookstore (book folded away).
  auto expected = logic::ParseCq(
      "ans(v0, v1) :- person(v0), writes(v0, y), soldAT(y, v1), "
      "bookstore(v1)");
  // Predicate name is lowercase soldAt in our schema.
  auto expected2 = logic::ParseCq(
      "ans(v0, v1) :- person(v0), writes(v0, y), soldAt(y, v1), "
      "bookstore(v1)");
  EXPECT_TRUE(logic::Equivalent((*rewritings)[0], *expected2))
      << (*rewritings)[0].ToString();
  (void)expected;
}

TEST(RewriterTest, RequiredTablesEliminateQ1) {
  sem::AnnotatedSchema side = Bookstore();
  const auto& rules = side.compiled().rules;
  ASSERT_TRUE(rules.ok());
  auto q = logic::ParseCq(
      "ans(v0, v1) :- Person.pname(x1, v0), writes(x1, x2), "
      "soldAt(x2, x3), Bookstore.sid(x3, v1)");
  ASSERT_TRUE(q.ok());
  RewriteOptions loose;
  auto all = RewriteQuery(*q, *rules, loose);
  ASSERT_TRUE(all.ok());
  // Without required tables, the writes ⋈ soldAt rewriting (q'1) shows up.
  bool q1_present = false;
  for (const auto& r : *all) {
    if (r.body.size() == 2u) q1_present = true;
  }
  EXPECT_TRUE(q1_present);
  RewriteOptions strict;
  strict.required_tables = {"person", "bookstore"};
  auto filtered = RewriteQuery(*q, *rules, strict);
  ASSERT_TRUE(filtered.ok());
  for (const auto& r : *filtered) {
    bool person = false;
    bool store = false;
    for (const auto& a : r.body) {
      person |= a.predicate == "person";
      store |= a.predicate == "bookstore";
    }
    EXPECT_TRUE(person && store);
  }
}

TEST(RewriterTest, UnanswerableQueryYieldsNothing) {
  sem::AnnotatedSchema side = Bookstore();
  const auto& rules = side.compiled().rules;
  auto q = logic::ParseCq("ans(v0) :- Unknown.attr(x, v0)");
  auto rewritings = RewriteQuery(*q, *rules, {});
  ASSERT_TRUE(rewritings.ok());
  EXPECT_TRUE(rewritings->empty());
}

TEST(RewriterTest, SkolemHeadRejected) {
  // A query exporting an attribute no table binds cannot be rewritten.
  auto side = data::AnnotatedFromText(
      "table t(x) key(x);",
      "class A { x key; y; }",
      "semantics t { node a: A; anchor a; col x -> a.x; }");
  ASSERT_TRUE(side.ok());
  const auto& rules = side->compiled().rules;
  auto q = logic::ParseCq("ans(v0) :- A(i), A.y(i, v0)");
  auto rewritings = RewriteQuery(*q, *rules, {});
  ASSERT_TRUE(rewritings.ok());
  EXPECT_TRUE(rewritings->empty());
}

TEST(AlgebraTest, RendersProjectionAndJoins) {
  auto q = logic::ParseCq("ans(a, c) :- r(a, b), s(b, c)");
  std::vector<std::string> r_cols = {"x", "y"};
  std::vector<std::string> s_cols = {"u", "v"};
  std::string text = RenderAlgebra(
      *q, [&](const std::string& table) -> const std::vector<std::string>* {
        if (table == "r") return &r_cols;
        if (table == "s") return &s_cols;
        return nullptr;
      });
  EXPECT_NE(text.find("project[t0.x, t1.v]"), std::string::npos) << text;
  EXPECT_NE(text.find("r t0 join s t1"), std::string::npos) << text;
  EXPECT_NE(text.find("t0.y = t1.u"), std::string::npos) << text;
}

TEST(AlgebraTest, UnknownTableColumnsPositional) {
  auto q = logic::ParseCq("ans(a) :- mystery(a)");
  std::string text = RenderAlgebra(
      *q, [](const std::string&) -> const std::vector<std::string>* {
        return nullptr;
      });
  EXPECT_NE(text.find("$0"), std::string::npos);
}

TEST(SemanticMapperTest, BookstoreEndToEnd) {
  auto domain = data::BuildBookstoreExample();
  ASSERT_TRUE(domain.ok());
  auto mappings = GenerateSemanticMappings(
      domain->source, domain->target, domain->cases[0].correspondences);
  ASSERT_TRUE(mappings.ok()) << mappings.status();
  ASSERT_EQ(mappings->size(), 1u);
  const GeneratedMapping& m = (*mappings)[0];
  EXPECT_EQ(m.covered.size(), 2u);
  EXPECT_FALSE(m.source_algebra.empty());
  EXPECT_FALSE(m.target_algebra.empty());
  EXPECT_NE(m.source_algebra.find("join"), std::string::npos);
  // Primary tgd source mentions all four tables of M5's q'3 form.
  for (const char* table : {"person", "writes", "soldAt", "bookstore"}) {
    bool found = false;
    for (const auto& a : m.tgd.source.body) {
      if (a.predicate == table) found = true;
    }
    EXPECT_TRUE(found) << table << " missing: " << m.tgd.ToString();
  }
}

TEST(SemanticMapperTest, VariantsShareCandidate) {
  auto domain = data::BuildEmployeeIsaExample();
  ASSERT_TRUE(domain.ok());
  auto mappings = GenerateSemanticMappings(
      domain->source, domain->target, domain->cases[0].correspondences);
  ASSERT_TRUE(mappings.ok());
  ASSERT_EQ(mappings->size(), 1u);
  EXPECT_GE((*mappings)[0].variants.size(), 1u);
  EXPECT_TRUE(
      logic::EquivalentTgds((*mappings)[0].tgd, (*mappings)[0].variants[0]));
}

TEST(SemanticMapperTest, MaxMappingsRespected) {
  auto domain = data::BuildPartOfExample();
  ASSERT_TRUE(domain.ok());
  SemanticMapperOptions options;
  options.max_mappings = 1;
  options.discovery.use_semantic_type_filter = false;  // both candidates
  auto mappings = GenerateSemanticMappings(
      domain->source, domain->target, domain->cases[0].correspondences,
      options);
  ASSERT_TRUE(mappings.ok());
  EXPECT_EQ(mappings->size(), 1u);
}

// A fresh derivation of everything AnnotatedSchema::compiled() caches,
// built from the per-table and per-side primitives on every call, checked
// element by element against the compiled form.
void ExpectMatchesFreshDerivation(const sem::AnnotatedSchema& side,
                                  const std::string& label) {
  const sem::CompiledSide& compiled = side.compiled();
  std::vector<sem::InverseRule> rules;
  for (const auto& [table, stree] : side.semantics()) {
    auto table_rules = sem::InverseRulesForTable(
        side.graph(), *side.schema().FindTable(table), stree);
    ASSERT_TRUE(table_rules.ok()) << label << ": " << table_rules.status();
    rules.insert(rules.end(), table_rules->begin(), table_rules->end());
  }
  ASSERT_TRUE(compiled.rules.ok()) << label << ": " << compiled.rules.status();
  ASSERT_EQ(compiled.rules->size(), rules.size()) << label;
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ((*compiled.rules)[i], rules[i])
        << label << " rule " << i << ": " << (*compiled.rules)[i].ToString()
        << " vs " << rules[i].ToString();
  }

  // The EGD list the chase would assemble: s-tree FDs, then key FDs.
  std::vector<sem::TableFd> egds = sem::DeriveSchemaFds(side);
  const size_t stree_fds = egds.size();
  for (const rel::Table& table : side.schema().tables()) {
    if (table.primary_key().empty()) continue;
    egds.push_back({table.name(), table.primary_key(), table.columns()});
  }
  EXPECT_EQ(compiled.stree_fd_count, stree_fds) << label;
  EXPECT_EQ(compiled.stree_fds().size(), stree_fds) << label;
  ASSERT_EQ(compiled.egds.size(), egds.size()) << label;
  for (size_t i = 0; i < egds.size(); ++i) {
    EXPECT_EQ(compiled.egds[i], egds[i])
        << label << " egd " << i << ": " << compiled.egds[i].ToString()
        << " vs " << egds[i].ToString();
  }

  std::vector<sem::CrossTableFd> cross = sem::DeriveCrossTableFds(side);
  ASSERT_EQ(compiled.cross_fds.size(), cross.size()) << label;
  for (size_t i = 0; i < cross.size(); ++i) {
    EXPECT_EQ(compiled.cross_fds[i], cross[i])
        << label << " cross fd " << i << ": "
        << compiled.cross_fds[i].ToString() << " vs " << cross[i].ToString();
  }
}

validate::ArtifactText Slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return {buffer.str(), path};
}

validate::LoadedScenario LoadExample(const std::string& name) {
  const std::string dir =
      std::string(SEMAP_TEST_DATA_DIR) + "/../../examples/data/" + name + "/";
  validate::ScenarioTexts texts;
  texts.source_schema = Slurp(dir + "source.schema");
  texts.source_cm = Slurp(dir + "source.cm");
  texts.source_sem = Slurp(dir + "source.sem");
  texts.target_schema = Slurp(dir + "target.schema");
  texts.target_cm = Slurp(dir + "target.cm");
  texts.target_sem = Slurp(dir + "target.sem");
  texts.correspondences = Slurp(dir + "correspondences.txt");
  DiagnosticSink sink;
  auto loaded = validate::LoadScenario(texts, sink);
  EXPECT_TRUE(loaded.ok()) << name << ": " << loaded.status();
  EXPECT_FALSE(sink.has_errors()) << name << ": " << sink.ToString();
  return std::move(*loaded);
}

sem::STree SoldAtSemantics(const sem::AnnotatedSchema& side) {
  auto trees = sem::ParseSemantics(side.graph(), kSoldAtSemantics);
  EXPECT_TRUE(trees.ok()) << trees.status();
  EXPECT_EQ(trees->size(), 1u);
  return (*trees)[0];
}

bool HasRuleOf(const sem::CompiledSide& compiled, const std::string& table) {
  for (const sem::InverseRule& rule : *compiled.rules) {
    if (rule.table_atom.predicate == table) return true;
  }
  return false;
}

TEST(CompiledSideTest, MatchesFreshDerivationOnEveryDomainAndExample) {
  auto domains = data::BuildAllDomains();
  ASSERT_TRUE(domains.ok()) << domains.status();
  ASSERT_EQ(domains->size(), 7u);
  for (const eval::Domain& domain : *domains) {
    ExpectMatchesFreshDerivation(domain.source, domain.name + " source");
    ExpectMatchesFreshDerivation(domain.target, domain.name + " target");
  }
  for (const std::string name : {"bookstore", "bookstore_lite", "teams"}) {
    validate::LoadedScenario scenario = LoadExample(name);
    ExpectMatchesFreshDerivation(scenario.source, name + " source");
    ExpectMatchesFreshDerivation(scenario.target, name + " target");
  }
}

TEST(CompiledSideTest, AddSemanticsAfterFirstUseYieldsTheNewTablesRules) {
  auto side = data::AnnotatedFromText(kBookstoreSchema, kBookstoreCm,
                                      kBookstoreSemantics);
  ASSERT_TRUE(side.ok()) << side.status();
  ASSERT_TRUE(side->compiled().rules.ok());
  EXPECT_FALSE(HasRuleOf(side->compiled(), "soldAt"));
  const size_t before = side->compiled().rules->size();

  ASSERT_TRUE(side->AddSemantics(SoldAtSemantics(*side)).ok());
  ASSERT_TRUE(side->compiled().rules.ok());
  EXPECT_TRUE(HasRuleOf(side->compiled(), "soldAt"));
  EXPECT_EQ(side->compiled().rules->size(), before + 5);  // soldAt: 5 rules
  ExpectMatchesFreshDerivation(*side, "bookstore after AddSemantics");
}

TEST(CompiledSideTest, MutatingACopyLeavesTheOriginalsCompiledFormUntouched) {
  auto original = data::AnnotatedFromText(kBookstoreSchema, kBookstoreCm,
                                          kBookstoreSemantics);
  ASSERT_TRUE(original.ok()) << original.status();
  const sem::CompiledSide* built = &original->compiled();
  const size_t rules = built->rules->size();
  const size_t egds = built->egds.size();

  sem::AnnotatedSchema copy = *original;
  EXPECT_EQ(&copy.compiled(), built);  // copies share the built form
  ASSERT_TRUE(copy.AddSemantics(SoldAtSemantics(copy)).ok());
  EXPECT_NE(&copy.compiled(), built);
  EXPECT_TRUE(HasRuleOf(copy.compiled(), "soldAt"));

  EXPECT_EQ(&original->compiled(), built);
  EXPECT_EQ(original->compiled().rules->size(), rules);
  EXPECT_EQ(original->compiled().egds.size(), egds);
  EXPECT_FALSE(HasRuleOf(original->compiled(), "soldAt"));
  ExpectMatchesFreshDerivation(*original, "original");
  ExpectMatchesFreshDerivation(copy, "mutated copy");
}

TEST(CompiledSideTest, SameObjectAcrossEveryTable1Case) {
  auto domains = data::BuildAllDomains();
  ASSERT_TRUE(domains.ok()) << domains.status();
  size_t cases = 0;
  for (const eval::Domain& domain : *domains) {
    const sem::CompiledSide* source = &domain.source.compiled();
    const sem::CompiledSide* target = &domain.target.compiled();
    for (const eval::TestCase& test_case : domain.cases) {
      MapRequest req;
      req.source = &domain.source;
      req.target = &domain.target;
      req.correspondences = &test_case.correspondences;
      auto mappings = GenerateMappings(req, exec::RunContext{});
      ASSERT_TRUE(mappings.ok()) << test_case.name << ": " << mappings.status();
      ++cases;
      EXPECT_EQ(&domain.source.compiled(), source) << test_case.name;
      EXPECT_EQ(&domain.target.compiled(), target) << test_case.name;
    }
  }
  EXPECT_EQ(cases, 34u);
}

// Four threads race to make the first compiled() call on one schema: all
// of them must get the one object a single build produced (run under
// TSan in tier-1, where a racy build would also be reported).
TEST(CompiledSideConcurrencyTest, RacingFirstCallsSeeOneBuild) {
  auto domains = data::BuildAllDomains();
  ASSERT_TRUE(domains.ok()) << domains.status();
  const sem::AnnotatedSchema& side = (*domains)[0].source;
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<const sem::CompiledSide*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[static_cast<size_t>(t)] = &side.compiled();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const sem::CompiledSide* compiled : seen) {
    EXPECT_EQ(compiled, seen[0]);
  }
  EXPECT_EQ(&side.compiled(), seen[0]);
  ExpectMatchesFreshDerivation(side, (*domains)[0].name + " source");
}

}  // namespace
}  // namespace semap::rew
