// Focused cell-op coverage beyond what exec_test exercises: constant
// cells, equality narrowing, enumeration caps, and dedup behaviour.
#include <gtest/gtest.h>

#include "exec/cell_ops.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

class CellOpsEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = ParseMarkup("d", "alpha 42 beta 42 gamma 7");
    ASSERT_TRUE(doc.ok());
    d_ = corpus_.Add(std::move(doc).value());
    registry_ = CreateDefaultRegistry();
  }

  Result<PreparedConstraint> Prepare(const ConstraintLit& k) {
    return PrepareConstraint(corpus_, *registry_, k, /*want_memo=*/false);
  }

  Corpus corpus_;
  DocId d_ = 0;
  std::unique_ptr<FeatureRegistry> registry_;
  CellOpLimits limits_;
};

TEST_F(CellOpsEdgeTest, ConstantCellFromTerms) {
  Cell n = ConstantCell(Term::Number(42));
  ASSERT_EQ(n.assignments.size(), 1u);
  EXPECT_DOUBLE_EQ(*n.assignments[0].value.AsNumber(), 42);
  Cell s = ConstantCell(Term::Str("abc"));
  EXPECT_EQ(s.assignments[0].value.AsText(), "abc");
  Cell null = ConstantCell(Term::Null());
  EXPECT_TRUE(null.assignments[0].value.is_null());
}

TEST_F(CellOpsEdgeTest, NarrowByEqualityKeepsMatchingAssignments) {
  Cell cell;
  cell.assignments.push_back(Assignment::Exact(Value::Number(1)));
  cell.assignments.push_back(Assignment::Exact(Value::Number(2)));
  cell.assignments.push_back(Assignment::Exact(Value::String("2")));
  Cell two = Cell::Exact(Value::Number(2));
  bool partial = false;
  Cell narrowed = NarrowCellByEquality(corpus_, cell, two, limits_, &partial);
  // Both the number 2 and the string "2" equal 2 (numeric cast).
  EXPECT_EQ(narrowed.assignments.size(), 2u);
  EXPECT_FALSE(partial);  // kept assignments have only matching values
}

TEST_F(CellOpsEdgeTest, NarrowEmptyWhenNothingMatches) {
  Cell cell = Cell::Exact(Value::Number(1));
  Cell other = Cell::Exact(Value::Number(9));
  bool partial = false;
  Cell narrowed = NarrowCellByEquality(corpus_, cell, other, limits_, &partial);
  EXPECT_TRUE(narrowed.assignments.empty());
}

TEST_F(CellOpsEdgeTest, EnumerationCapDegradesToSome) {
  // A tiny cap forces the tri-state evaluation to admit uncertainty.
  CellOpLimits tiny;
  tiny.max_cell_enum = 2;
  Cell cell;
  cell.assignments.push_back(Assignment::Contain(corpus_.Get(d_).FullSpan()));
  Cell big = Cell::Exact(Value::Number(1000000));
  // No sub-span is > 1000000, but under the cap we must not claim kNone.
  EXPECT_EQ(CompareCells(corpus_, cell, CmpOp::kGt, big, tiny),
            SatResult::kSome);
  // With a generous cap the truth comes out.
  EXPECT_EQ(CompareCells(corpus_, cell, CmpOp::kGt, big, limits_),
            SatResult::kNone);
}

TEST_F(CellOpsEdgeTest, CompareCellsWithOffset) {
  Cell lhs = Cell::Exact(Value::Number(10));
  Cell rhs = Cell::Exact(Value::Number(6));
  // 10 < 6 + 5.
  EXPECT_EQ(CompareCells(corpus_, lhs, CmpOp::kLt, rhs, limits_, 5),
            SatResult::kAll);
  // 10 < 6 + 3 fails.
  EXPECT_EQ(CompareCells(corpus_, lhs, CmpOp::kLt, rhs, limits_, 3),
            SatResult::kNone);
  // Offsets make non-numeric right sides incomparable except under !=.
  Cell text = Cell::Exact(Value::String("abc"));
  EXPECT_EQ(CompareCells(corpus_, lhs, CmpOp::kLt, text, limits_, 5),
            SatResult::kNone);
  EXPECT_EQ(CompareCells(corpus_, lhs, CmpOp::kNe, text, limits_, 5),
            SatResult::kAll);
}

TEST_F(CellOpsEdgeTest, ConstraintDedupsIdenticalRefinements) {
  // Two overlapping contain assignments refine to the same numeric
  // tokens; the result must not double-store them.
  Cell cell;
  cell.assignments.push_back(Assignment::Contain(Span(d_, 0, 12)));
  cell.assignments.push_back(Assignment::Contain(Span(d_, 0, 12)));
  ConstraintLit k;
  k.feature = "numeric";
  k.var = "v";
  k.value = FeatureValue::kYes;
  auto pk = Prepare(k);
  ASSERT_TRUE(pk.ok());
  Cell out = ApplyPreparedConstraintToCell(corpus_, *pk, {}, cell, nullptr);
  EXPECT_EQ(out.assignments.size(), 1u);  // the token "42"
}

TEST_F(CellOpsEdgeTest, ConstraintOnEmptyCellStaysEmpty) {
  Cell cell;
  ConstraintLit k;
  k.feature = "numeric";
  k.var = "v";
  auto pk = Prepare(k);
  ASSERT_TRUE(pk.ok());
  Cell out = ApplyPreparedConstraintToCell(corpus_, *pk, {}, cell, nullptr);
  EXPECT_TRUE(out.assignments.empty());
}

TEST_F(CellOpsEdgeTest, ExpansionFlagSurvivesConstraint) {
  Cell cell = Cell::Expansion({Assignment::Contain(Span(d_, 0, 12))});
  ConstraintLit k;
  k.feature = "numeric";
  k.var = "v";
  auto pk = Prepare(k);
  ASSERT_TRUE(pk.ok());
  Cell out = ApplyPreparedConstraintToCell(corpus_, *pk, {}, cell, nullptr);
  EXPECT_TRUE(out.is_expansion);
}

TEST_F(CellOpsEdgeTest, UnknownFeatureFails) {
  ConstraintLit k;
  k.feature = "no_such_feature";
  k.var = "v";
  auto pk = Prepare(k);
  ASSERT_FALSE(pk.ok());
  EXPECT_EQ(pk.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace iflex
