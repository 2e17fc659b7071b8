// Tests of the benchmark's result checks: each check must accept a
// correct result and reject a corrupted one — a dropped row, a binding
// moved to a node with the wrong tag, a broken containment, a '/' edge
// bound to a grandchild, a disagreeing optimizer, a wrong conserved count.
//
// Built and run by `python3 perfbench/run.py --selftest` (or ctest in the
// perfbench build directory). Exit code 0 when every test passes.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "query/pattern_parser.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using sjos::NodeId;

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

/// A Pers engine small enough for NaiveMatch, and one query's result.
struct Fixture {
  std::unique_ptr<sjos::Engine> engine;
  sjos::BenchQuery query;
  std::vector<sjos::PatternNodeId> columns;
  std::vector<NodeId> rows;  // row-major
  Digest naive;

  explicit Fixture(const std::string& id) {
    OpenedDataset ds = OpenDataset("Pers", 2000, 7);
    engine = MakeEngine(std::move(ds.db));
    query = sjos::FindQuery(id).value();
    sjos::Result<sjos::QueryResult> r = engine->Query(query.pattern);
    SJOS_CHECK(r.ok(), "fixture query failed");
    columns = r.value().tuples.slots();
    for (size_t i = 0; i < r.value().tuples.size(); ++i) {
      const NodeId* row = r.value().tuples.Row(i);
      rows.insert(rows.end(), row, row + columns.size());
    }
    naive = NaiveDigest(engine->db().doc(), query.pattern);
  }

  size_t num_rows() const { return rows.size() / columns.size(); }
  size_t ColumnOf(sjos::PatternNodeId p) const {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (columns[c] == p) return c;
    }
    return columns.size();
  }
  sjos::Status Sound(const std::vector<NodeId>& data) const {
    return CheckSoundness(engine->db().View(), query.pattern, columns,
                          data.data(), data.size() / columns.size());
  }
  Digest DigestOf(const std::vector<NodeId>& data) const {
    return DigestRows(columns, data.data(), data.size() / columns.size())
        .value();
  }
  /// First node with tag `tag` satisfying `pred`.
  template <typename Pred>
  NodeId FindNode(const std::string& tag, Pred pred) const {
    const sjos::Document& doc = engine->db().doc();
    for (NodeId k = 0; k < doc.NumNodes(); ++k) {
      if (doc.TagNameOf(k) == tag && pred(k)) return k;
    }
    return sjos::kInvalidNode;
  }
};

void TestCorrectResultPasses() {
  Fixture f("Q.Pers.3.d");
  EXPECT(f.num_rows() > 0);
  EXPECT(f.Sound(f.rows).ok());
  EXPECT(CheckDigest("ok", f.naive, f.DigestOf(f.rows)).ok());
}

void TestDroppedRowIsRejected() {
  Fixture f("Q.Pers.1.a");
  std::vector<NodeId> dropped(f.rows.begin() + f.columns.size(), f.rows.end());
  EXPECT(f.Sound(dropped).ok());  // every remaining row is still sound
  EXPECT(!CheckDigest("dropped", f.naive, f.DigestOf(dropped)).ok());
  // Swapping one row for a duplicate of another keeps the count but not
  // the hash.
  std::vector<NodeId> duplicated = f.rows;
  for (size_t c = 0; c < f.columns.size(); ++c) {
    duplicated[c] = duplicated[f.columns.size() + c];
  }
  EXPECT(!CheckDigest("duplicated", f.naive, f.DigestOf(duplicated)).ok());
}

void TestWrongTagIsRejected() {
  Fixture f("Q.Pers.1.a");
  // Move the first row's name binding to its parent, an employee.
  const size_t name_col = f.ColumnOf(2);
  std::vector<NodeId> moved = f.rows;
  moved[name_col] = f.engine->db().doc().ParentOf(moved[name_col]);
  const sjos::Status st = f.Sound(moved);
  EXPECT(!st.ok());
  EXPECT(st.message().find("wrong tag") != std::string::npos);
}

void TestBrokenContainmentIsRejected() {
  Fixture f("Q.Pers.1.a");
  const sjos::Document& doc = f.engine->db().doc();
  const size_t manager_col = f.ColumnOf(0);
  const size_t employee_col = f.ColumnOf(1);
  const size_t name_col = f.ColumnOf(2);
  const NodeId manager = f.rows[manager_col];
  // An employee (and its name) outside the first row's manager.
  const NodeId outside = f.FindNode("employee", [&](NodeId k) {
    return !doc.IsAncestor(manager, k) && !doc.ChildrenOf(k).empty();
  });
  EXPECT(outside != sjos::kInvalidNode);
  NodeId name = sjos::kInvalidNode;
  for (NodeId c : doc.ChildrenOf(outside)) {
    if (doc.TagNameOf(c) == "name") name = c;
  }
  EXPECT(name != sjos::kInvalidNode);
  std::vector<NodeId> broken = f.rows;
  broken[employee_col] = outside;
  broken[name_col] = name;
  const sjos::Status st = f.Sound(broken);
  EXPECT(!st.ok());
  EXPECT(st.message().find("not contained") != std::string::npos);
}

void TestChildEdgeToGrandchildIsRejected() {
  // manager[/name]: bind name to a name two levels down instead.
  OpenedDataset ds = OpenDataset("Pers", 2000, 7);
  const sjos::Document& doc = ds.db.doc();
  const sjos::Pattern pattern =
      sjos::ParsePattern("manager[//employee[/name]]").value();
  NodeId manager = sjos::kInvalidNode, employee = sjos::kInvalidNode,
         name = sjos::kInvalidNode;
  for (NodeId m = 0; m < doc.NumNodes() && name == sjos::kInvalidNode; ++m) {
    if (doc.TagNameOf(m) != "manager") continue;
    for (NodeId e : doc.ChildrenOf(m)) {
      if (doc.TagNameOf(e) != "employee") continue;
      for (NodeId n : doc.ChildrenOf(e)) {
        if (doc.TagNameOf(n) == "name") {
          manager = m;
          employee = e;
          name = n;
        }
      }
    }
  }
  EXPECT(name != sjos::kInvalidNode);
  const std::vector<sjos::PatternNodeId> columns = {0, 1, 2};
  std::vector<NodeId> good = {manager, employee, name};
  EXPECT(CheckSoundness(doc, pattern, columns, good.data(), 1).ok());
  // employee[/name] bound to (manager, name): a '//' pair, not a '/' one.
  std::vector<NodeId> skipped = {manager, manager, name};
  EXPECT(!CheckSoundness(doc, pattern, columns, skipped.data(), 1).ok());
  const sjos::Pattern child = sjos::ParsePattern("manager[/name]").value();
  const std::vector<sjos::PatternNodeId> two = {0, 1};
  std::vector<NodeId> grandchild = {manager, name};
  const sjos::Status st = CheckSoundness(doc, child, two, grandchild.data(), 1);
  EXPECT(!st.ok());
  EXPECT(st.message().find("non-child") != std::string::npos);
}

void TestDigestIgnoresRowAndColumnOrder() {
  Fixture f("Q.Pers.2.c");
  // Reverse the rows and permute the columns: same set of bindings.
  const size_t arity = f.columns.size();
  std::vector<NodeId> reversed;
  for (size_t r = f.num_rows(); r-- > 0;) {
    for (size_t c = arity; c-- > 0;) reversed.push_back(f.rows[r * arity + c]);
  }
  std::vector<sjos::PatternNodeId> cols(f.columns.rbegin(), f.columns.rend());
  const Digest d = DigestRows(cols, reversed.data(), f.num_rows()).value();
  EXPECT(d == f.naive);
}

void TestOptimizerDisagreementIsRejected() {
  Fixture f("Q.Pers.4.d");
  LayerFigures layers;
  QueryDetail detail;
  EXPECT(SurveyOptimizers(f.engine.get(), f.query, f.naive, nullptr, &layers,
                          &detail)
             .ok());
  Digest wrong = f.naive;
  wrong.hash ^= 1;
  EXPECT(!SurveyOptimizers(f.engine.get(), f.query, wrong, nullptr, &layers,
                           &detail)
              .ok());
}

void TestConservedCount() {
  Fixture f("Q.Pers.3.d");
  sjos::Engine* engine = f.engine.get();
  EXPECT(SpaceKeys(engine).ok());
  MatchCounter counter(engine->db().MaterializeMerged().value());
  EXPECT(counter.Count(f.query.pattern) == f.naive.rows);
  // Predict the rows one fragment under the 5th manager adds.
  const std::vector<NodeId> order = engine->db().MergedOrder();
  const NodeId parent = OriginalManagers(engine->db())[5];
  const size_t rank = static_cast<size_t>(
      std::lower_bound(order.begin(), order.end(), parent) - order.begin());
  const sjos::Document fragment = sjos::ParseXml(kFragmentXml).value();
  const size_t root = counter.Graft(rank, fragment);
  const uint64_t predicted = counter.Count(f.query.pattern);
  counter.Prune(root);
  EXPECT(counter.Count(f.query.pattern) == f.naive.rows);
  EXPECT(predicted > f.naive.rows);

  EXPECT(engine->Apply(sjos::InsertSubtree{parent, 0, kFragmentXml}).ok());
  sjos::Result<sjos::QueryResult> r = engine->Query(f.query.pattern);
  EXPECT(r.ok() && r.value().tuples.size() == predicted);
  // The overlay answer, in rank space, equals NaiveMatch over the merged
  // document; a dropped row does not.
  const sjos::Document merged = engine->db().MaterializeMerged().value();
  const std::vector<NodeId> ranks = engine->db().MergedOrder();
  const Digest naive = NaiveDigest(merged, f.query.pattern);
  EXPECT(naive.rows == predicted);
  EXPECT(CheckResult(*engine, f.query.pattern, r.value().tuples, naive,
                     "overlay", &ranks)
             .ok());
  sjos::TupleSet dropped(r.value().tuples.slots());
  for (size_t i = 1; i < r.value().tuples.size(); ++i) {
    dropped.AppendRow(r.value().tuples.Row(i));
  }
  EXPECT(!CheckResult(*engine, f.query.pattern, dropped, naive, "dropped",
                      &ranks)
              .ok());
  // Deleting the fragment brings the count back.
  const std::vector<NodeId> roots = FragmentRoots(engine->db());
  EXPECT(roots.size() == 1);
  EXPECT(engine->Apply(sjos::DeleteSubtree{roots[0]}).ok());
  r = engine->Query(f.query.pattern);
  EXPECT(r.ok() && r.value().tuples.size() == f.naive.rows);
}

void TestMatchCounterAgreesWithNaiveMatch() {
  OpenedDataset ds = OpenDataset("Pers", 3000, 11);
  MatchCounter counter(ds.db.doc());
  for (const sjos::BenchQuery& q : QueriesOf("Pers")) {
    EXPECT(counter.Count(q.pattern) ==
           NaiveDigest(ds.db.doc(), q.pattern).rows);
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestCorrectResultPasses();
  TestDroppedRowIsRejected();
  TestWrongTagIsRejected();
  TestBrokenContainmentIsRejected();
  TestChildEdgeToGrandchildIsRejected();
  TestDigestIgnoresRowAndColumnOrder();
  TestOptimizerDisagreementIsRejected();
  TestConservedCount();
  TestMatchCounterAgreesWithNaiveMatch();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_checks_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_checks_test: all checks behave\n");
  return 0;
}
