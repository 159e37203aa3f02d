#include <gtest/gtest.h>

#include "baseline/logical_relations.h"
#include "baseline/ric_mapper.h"
#include "logic/containment.h"
#include "logic/parser.h"
#include "relational/schema_parser.h"

namespace semap::baseline {
namespace {

rel::RelationalSchema BookstoreSource() {
  auto s = rel::ParseSchema(R"(
    table person(pname) key(pname);
    table book(bid) key(bid);
    table bookstore(sid) key(sid);
    table writes(pname, bid) key(pname, bid)
      fk (pname) -> person(pname)
      fk (bid) -> book(bid);
    table soldAt(bid, sid) key(bid, sid)
      fk (bid) -> book(bid)
      fk (sid) -> bookstore(sid);
  )");
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(ChaseTest, AssemblesLogicalRelation) {
  rel::RelationalSchema schema = BookstoreSource();
  LogicalRelation lr = ChaseTable(schema, "writes");
  // writes ⋈ person ⋈ book — the paper's S1.
  EXPECT_EQ(lr.atoms.size(), 3u);
  EXPECT_TRUE(lr.MentionsTable("person"));
  EXPECT_TRUE(lr.MentionsTable("book"));
  EXPECT_FALSE(lr.MentionsTable("soldAt"));
}

TEST(ChaseTest, VariableSharingAcrossRics) {
  rel::RelationalSchema schema = BookstoreSource();
  LogicalRelation lr = ChaseTable(schema, "writes");
  std::string writes_pname = lr.VariableFor(schema, {"writes", "pname"});
  std::string person_pname = lr.VariableFor(schema, {"person", "pname"});
  EXPECT_EQ(writes_pname, person_pname);
  EXPECT_EQ(lr.VariableFor(schema, {"ghost", "x"}), "");
}

TEST(ChaseTest, SingleTableWithoutRics) {
  rel::RelationalSchema schema = BookstoreSource();
  LogicalRelation lr = ChaseTable(schema, "person");
  EXPECT_EQ(lr.atoms.size(), 1u);
}

TEST(ChaseTest, CyclicRicsTerminate) {
  auto s = rel::ParseSchema(R"(
    table a(x, y) key(x) fk (y) -> b(x);
    table b(x, y) key(x) fk (y) -> a(x);
  )");
  ASSERT_TRUE(s.ok());
  ChaseOptions options;
  options.max_atoms = 10;
  LogicalRelation lr = ChaseTable(*s, "a", options);
  EXPECT_LE(lr.atoms.size(), 10u);
}

TEST(ChaseTest, LogicalRelationsDeduplicated) {
  rel::RelationalSchema schema = BookstoreSource();
  auto lrs = LogicalRelationsOf(schema);
  // person, book, bookstore, writes-chase, soldAt-chase.
  EXPECT_EQ(lrs.size(), 5u);
}

TEST(ChaseQueryTest, RicsExpandQuery) {
  rel::RelationalSchema schema = BookstoreSource();
  auto q = logic::ParseCq("ans(p) :- writes(p, b)");
  auto chased = ChaseQueryWithConstraints(schema, *q);
  EXPECT_EQ(chased.body.size(), 3u);  // + person + book
}

TEST(ChaseQueryTest, KeyEgdUnifiesRows) {
  rel::RelationalSchema schema = BookstoreSource();
  auto q = logic::ParseCq(
      "ans(b1, b2) :- writes(p, b1), writes(p, b2x), book(b2x), book(b2)");
  // Not unifiable: different book vars. But two writes atoms sharing the
  // full key (pname, bid) must merge:
  auto q2 = logic::ParseCq("ans(p) :- writes(p, b), writes(p, b)");
  auto chased = ChaseQueryWithConstraints(schema, *q2);
  size_t writes_count = 0;
  for (const auto& a : chased.body) {
    if (a.predicate == "writes") ++writes_count;
  }
  EXPECT_EQ(writes_count, 1u);
}

TEST(ChaseQueryTest, FdUnifiesDependentColumns) {
  auto s = rel::ParseSchema("table t(k, v) key(k);");
  ASSERT_TRUE(s.ok());
  auto q = logic::ParseCq("ans(v1, v2) :- t(k, v1), t(k, v2)");
  auto chased = ChaseQueryWithConstraints(*s, *q);
  ASSERT_EQ(chased.body.size(), 1u);
  EXPECT_EQ(chased.head[0], chased.head[1]);
}

TEST(ChaseQueryTest, ExtraFdApplied) {
  auto s = rel::ParseSchema("table t(k, a, b);");  // no primary key
  ASSERT_TRUE(s.ok());
  std::vector<sem::TableFd> fds = {{"t", {"a"}, {"b"}}};
  auto q = logic::ParseCq("ans(b1, b2) :- t(k1, a, b1), t(k2, a, b2)");
  auto chased = ChaseQueryWithConstraints(*s, *q, fds);
  EXPECT_EQ(chased.head[0], chased.head[1]);
}

TEST(ChaseQueryTest, CrossTableFdApplied) {
  auto s = rel::ParseSchema(R"(
    table prof(pid, name) key(pid);
    table grad(pid, name) key(pid);
  )");
  ASSERT_TRUE(s.ok());
  std::vector<sem::CrossTableFd> cross = {
      {"prof", {"pid"}, "name", "grad", {"pid"}, "name"}};
  auto q = logic::ParseCq("ans(n1, n2) :- prof(p, n1), grad(p, n2)");
  auto chased = ChaseQueryWithConstraints(*s, *q, {}, cross);
  EXPECT_EQ(chased.head[0], chased.head[1]);
}

TEST(ChaseQueryTest, RicsCanBeDisabled) {
  rel::RelationalSchema schema = BookstoreSource();
  ChaseOptions options;
  options.apply_rics = false;
  auto q = logic::ParseCq("ans(p) :- writes(p, b)");
  auto chased = ChaseQueryWithConstraints(schema, *q, {}, {}, options);
  EXPECT_EQ(chased.body.size(), 1u);
}

rel::RelationalSchema BookstoreTarget() {
  auto s = rel::ParseSchema(R"(
    table author(aname) key(aname);
    table store(sid) key(sid);
    table hasBookSoldAt(aname, sid) key(aname, sid)
      fk (aname) -> author(aname)
      fk (sid) -> store(sid);
  )");
  EXPECT_TRUE(s.ok());
  return *s;
}

TEST(RicMapperTest, GeneratesCoveringPairs) {
  auto mappings = GenerateRicMappings(
      BookstoreSource(), BookstoreTarget(),
      {{{"person", "pname"}, {"hasBookSoldAt", "aname"}},
       {{"bookstore", "sid"}, {"hasBookSoldAt", "sid"}}});
  ASSERT_TRUE(mappings.ok()) << mappings.status();
  EXPECT_FALSE(mappings->empty());
  // Every mapping covers at least one correspondence.
  for (const RicMapping& m : *mappings) {
    EXPECT_FALSE(m.covered.empty());
  }
}

TEST(RicMapperTest, NeverComposesAcrossRelationshipTables) {
  auto mappings = GenerateRicMappings(
      BookstoreSource(), BookstoreTarget(),
      {{{"person", "pname"}, {"hasBookSoldAt", "aname"}},
       {{"bookstore", "sid"}, {"hasBookSoldAt", "sid"}}});
  ASSERT_TRUE(mappings.ok());
  // No source side may mention both writes and soldAt: the chase never
  // joins two relationship tables (the paper's Example 1.1 gap).
  for (const RicMapping& m : *mappings) {
    bool writes = false;
    bool soldat = false;
    for (const auto& atom : m.tgd.source.body) {
      if (atom.predicate == "writes") writes = true;
      if (atom.predicate == "soldAt") soldat = true;
    }
    EXPECT_FALSE(writes && soldat) << m.tgd.ToString();
  }
}

TEST(RicMapperTest, PruningRemovesUnnecessaryJoins) {
  auto mappings = GenerateRicMappings(
      BookstoreSource(), BookstoreTarget(),
      {{{"person", "pname"}, {"hasBookSoldAt", "aname"}}});
  ASSERT_TRUE(mappings.ok());
  // With only the pname correspondence, the writes-chase pair must prune
  // down to person alone (and then dedup with the person-chase pair).
  for (const RicMapping& m : *mappings) {
    for (const auto& atom : m.tgd.source.body) {
      EXPECT_EQ(atom.predicate, "person") << m.tgd.ToString();
    }
  }
}

TEST(RicMapperTest, PruningKeepsConnectors) {
  auto src = rel::ParseSchema(R"(
    table a(x, y) key(x) fk (y) -> b(y);
    table b(y, z) key(y) fk (z) -> c(z);
    table c(z) key(z);
  )");
  auto tgt = rel::ParseSchema("table t(u, v) key(u);");
  ASSERT_TRUE(src.ok());
  ASSERT_TRUE(tgt.ok());
  auto mappings = GenerateRicMappings(
      *src, *tgt, {{{"a", "x"}, {"t", "u"}}, {{"c", "z"}, {"t", "v"}}});
  ASSERT_TRUE(mappings.ok());
  bool found_full_chain = false;
  for (const RicMapping& m : *mappings) {
    bool a = false;
    bool b = false;
    bool c = false;
    for (const auto& atom : m.tgd.source.body) {
      a |= atom.predicate == "a";
      b |= atom.predicate == "b";
      c |= atom.predicate == "c";
    }
    // b carries no corresponded column but connects a and c.
    if (a && c) {
      EXPECT_TRUE(b);
      found_full_chain = true;
    }
  }
  EXPECT_TRUE(found_full_chain);
}

TEST(RicMapperTest, UnknownColumnRejected) {
  auto mappings = GenerateRicMappings(BookstoreSource(), BookstoreTarget(),
                                      {{{"ghost", "x"}, {"author", "aname"}}});
  EXPECT_FALSE(mappings.ok());
}

TEST(RicMapperTest, MappingsAreDeduplicated) {
  auto mappings = GenerateRicMappings(
      BookstoreSource(), BookstoreTarget(),
      {{{"person", "pname"}, {"author", "aname"}}});
  ASSERT_TRUE(mappings.ok());
  for (size_t i = 0; i < mappings->size(); ++i) {
    for (size_t j = i + 1; j < mappings->size(); ++j) {
      EXPECT_FALSE(logic::EquivalentTgds((*mappings)[i].tgd,
                                         (*mappings)[j].tgd));
    }
  }
}

}  // namespace
}  // namespace semap::baseline
