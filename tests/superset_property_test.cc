// Property tests for the superset execution semantics (paper §4): every
// operator may over-approximate but must never lose a possible value,
// tuple, or world. Checked against brute-force enumeration on randomized
// small inputs.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "ctable/worlds.h"
#include "exec/annotate.h"
#include "exec/cell_ops.h"
#include "features/registry.h"
#include "text/markup_parser.h"

namespace iflex {
namespace {

// Deterministic small document with assorted markup and numbers.
Result<Document> MakeDoc(Rng* rng) {
  const char* words[] = {"alpha", "Beta",   "42",    "$1,250", "gamma",
                         "DELTA", "7",      "omega", "Sigma",  "99"};
  std::string markup;
  int open = 0;  // 0 none, 1 bold, 2 italic
  for (int i = 0; i < 12; ++i) {
    if (i > 0) markup += (rng->Bernoulli(0.2) ? "\n" : " ");
    int style = static_cast<int>(rng->Uniform(3));
    if (style != open) {
      if (open == 1) markup += "</b>";
      if (open == 2) markup += "</i>";
      if (style == 1) markup += "<b>";
      if (style == 2) markup += "<i>";
      open = style;
    }
    markup += words[rng->Uniform(std::size(words))];
  }
  if (open == 1) markup += "</b>";
  if (open == 2) markup += "</i>";
  return ParseMarkup("doc", markup);
}

class SupersetPropertyTest : public ::testing::TestWithParam<int> {};

// Property: ApplyPreparedConstraintToCell never loses a satisfying value.
// Every token-aligned sub-span that Verify accepts must still be encoded
// by the narrowed cell.
TEST_P(SupersetPropertyTest, ConstraintNarrowingIsSound) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 977 + 13);
  Corpus corpus;
  auto doc = MakeDoc(&rng);
  ASSERT_TRUE(doc.ok()) << doc.status();
  DocId d = corpus.Add(std::move(doc).value());
  auto registry = CreateDefaultRegistry();

  Cell cell;
  cell.assignments.push_back(Assignment::Contain(corpus.Get(d).FullSpan()));

  struct Case {
    const char* feature;
    FeatureParam param;
    FeatureValue value;
  };
  std::vector<Case> cases = {
      {"numeric", FeatureParam::None(), FeatureValue::kYes},
      {"numeric", FeatureParam::None(), FeatureValue::kNo},
      {"bold_font", FeatureParam::None(), FeatureValue::kYes},
      {"bold_font", FeatureParam::None(), FeatureValue::kDistinctYes},
      {"bold_font", FeatureParam::None(), FeatureValue::kNo},
      {"italic_font", FeatureParam::None(), FeatureValue::kYes},
      {"capitalized", FeatureParam::None(), FeatureValue::kYes},
      {"in_first_half", FeatureParam::None(), FeatureValue::kYes},
      {"min_value", FeatureParam::Num(40), FeatureValue::kYes},
      {"max_value", FeatureParam::Num(50), FeatureValue::kYes},
      {"max_length", FeatureParam::Num(8), FeatureValue::kYes},
      {"preceded_by", FeatureParam::Str("alpha"), FeatureValue::kYes},
      {"followed_by", FeatureParam::Str("42"), FeatureValue::kYes},
  };

  for (const Case& c : cases) {
    ConstraintLit k;
    k.feature = c.feature;
    k.var = "v";
    k.param = c.param;
    k.value = c.value;
    auto pk = PrepareConstraint(corpus, *registry, k, /*want_memo=*/false);
    ASSERT_TRUE(pk.ok()) << c.feature;
    Cell narrowed =
        ApplyPreparedConstraintToCell(corpus, *pk, {}, cell, nullptr);

    // Brute force: all satisfying token-aligned sub-spans.
    const Document& document = corpus.Get(d);
    std::vector<Span> all;
    ASSERT_TRUE(
        document.EnumerateSubSpans(document.FullSpan(), 100000, &all));
    const Feature* feature = *registry->Get(c.feature);
    std::vector<Value> encoded;
    narrowed.EnumerateValues(corpus, 1000000, &encoded);
    for (const Span& s : all) {
      if (!feature->Verify(document, s, c.param, c.value)) continue;
      bool found = false;
      for (const Value& v : encoded) {
        if (v.has_span() && v.span() == s) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << c.feature << "/" << FeatureValueToString(c.value)
                         << " lost satisfying span '"
                         << std::string(document.TextOf(s)) << "'";
    }
  }
}

// Property: NarrowCellByComparison keeps every satisfying value, and
// reports partial=true whenever it also keeps non-satisfying ones.
TEST_P(SupersetPropertyTest, ComparisonNarrowingIsSound) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 7);
  Corpus corpus;
  auto doc = MakeDoc(&rng);
  ASSERT_TRUE(doc.ok());
  DocId d = corpus.Add(std::move(doc).value());

  Cell cell;
  cell.assignments.push_back(Assignment::Contain(corpus.Get(d).FullSpan()));
  CellOpLimits limits;

  for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe,
                   CmpOp::kEq, CmpOp::kNe}) {
    double threshold = static_cast<double>(rng.UniformRange(1, 100));
    Cell other = Cell::Exact(Value::Number(threshold));
    bool partial = false;
    Cell narrowed =
        NarrowCellByComparison(corpus, cell, op, other, limits, &partial);

    std::vector<Value> before;
    cell.EnumerateValues(corpus, 1000000, &before);
    std::vector<Value> after;
    narrowed.EnumerateValues(corpus, 1000000, &after);

    size_t satisfying = 0;
    for (const Value& v : before) {
      if (!CompareValues(v, op, Value::Number(threshold))) continue;
      ++satisfying;
      bool found = false;
      for (const Value& w : after) {
        if (w.has_span() && v.has_span() && w.span() == v.span()) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "lost value " << v.ToString() << " under op "
                         << CmpOpToString(op) << " " << threshold;
    }
    // Superset may keep extra values, but then partial must be set.
    if (after.size() > satisfying) {
      EXPECT_TRUE(partial) << CmpOpToString(op);
    }
  }
}

// Reference implementation of Definition 2 on one concrete relation:
// group by non-annotated columns, then pick one value per annotated
// column per group — enumerate all picks.
std::set<std::string> AnnotateWorldsByDefinition(
    const World& relation, const std::vector<size_t>& annotated,
    size_t arity) {
  std::vector<bool> is_annotated(arity, false);
  for (size_t i : annotated) is_annotated[i] = true;
  // Group rows by key.
  std::map<std::string, std::vector<const std::vector<Value>*>> groups;
  for (const auto& row : relation) {
    std::string key;
    for (size_t i = 0; i < arity; ++i) {
      if (!is_annotated[i]) key += row[i].ToString() + "|";
    }
    groups[key].push_back(&row);
  }
  // Odometer over per-group row choices (choosing a row fixes one value
  // for every annotated attribute simultaneously — a superset of
  // column-independent choices is not needed for a containment check,
  // but per-column choices are what Definition 2 allows, so enumerate
  // per-column from the group's value sets).
  std::vector<std::vector<std::vector<Value>>> group_choices;
  std::vector<std::vector<Value>> group_keys;
  for (auto& [key, rows] : groups) {
    (void)key;
    std::vector<std::vector<Value>> per_col(arity);
    for (size_t i = 0; i < arity; ++i) {
      if (is_annotated[i]) {
        for (const auto* row : rows) {
          bool dup = false;
          for (const Value& v : per_col[i]) dup = dup || v.Equals((*row)[i]);
          if (!dup) per_col[i].push_back((*row)[i]);
        }
      } else {
        per_col[i].push_back((*rows[0])[i]);
      }
    }
    group_choices.push_back(std::move(per_col));
  }
  // Enumerate the cartesian product of annotated-column choices across
  // groups.
  std::set<std::string> out;
  std::vector<std::map<size_t, size_t>> idx(group_choices.size());
  std::function<void(size_t, World&)> rec = [&](size_t g, World& acc) {
    if (g == group_choices.size()) {
      out.insert(CanonicalWorld(acc));
      return;
    }
    // Per-group: choose one value per annotated column.
    std::vector<size_t> cols;
    for (size_t i = 0; i < arity; ++i) {
      if (group_choices[g][i].size() > 0) cols.push_back(i);
    }
    std::vector<size_t> pick(arity, 0);
    std::function<void(size_t)> choose = [&](size_t ci) {
      if (ci == arity) {
        std::vector<Value> row(arity);
        for (size_t i = 0; i < arity; ++i) {
          row[i] = group_choices[g][i][pick[i]];
        }
        acc.push_back(row);
        rec(g + 1, acc);
        acc.pop_back();
        return;
      }
      for (pick[ci] = 0; pick[ci] < group_choices[g][ci].size(); ++pick[ci]) {
        choose(ci + 1);
      }
    };
    choose(0);
  };
  World acc;
  rec(0, acc);
  return out;
}

// Property: BAnnotate's output represents a superset of the worlds that
// Definition 2 produces from each input world.
TEST_P(SupersetPropertyTest, BAnnotateIsSupersetOfDefinition) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 52361 + 3);
  // Random small a-table with 2 columns, annotated on column 1.
  ATable input({"k", "v"});
  size_t n = 1 + rng.Uniform(3);
  for (size_t i = 0; i < n; ++i) {
    ATuple t;
    t.maybe = rng.Bernoulli(0.4);
    std::vector<Value> keys;
    size_t nk = 1 + rng.Uniform(2);
    for (size_t j = 0; j < nk; ++j) {
      keys.push_back(Value::String(std::string(1, static_cast<char>(
                                                      'a' + rng.Uniform(3)))));
    }
    std::vector<Value> vals;
    size_t nv = 1 + rng.Uniform(2);
    for (size_t j = 0; j < nv; ++j) {
      vals.push_back(Value::Number(static_cast<double>(rng.Uniform(4))));
    }
    t.cells = {keys, vals};
    input.Add(std::move(t));
  }

  AnnotationSpec spec;
  spec.annotated = {1};
  auto output = BAnnotate(input, spec);
  ASSERT_TRUE(output.ok());

  auto out_worlds = WorldSet(*output);
  ASSERT_TRUE(out_worlds.ok());
  auto in_worlds = EnumerateWorlds(input);
  ASSERT_TRUE(in_worlds.ok());
  for (const World& w : *in_worlds) {
    for (const std::string& annotated_world :
         AnnotateWorldsByDefinition(w, {1}, 2)) {
      EXPECT_TRUE(out_worlds->count(annotated_world))
          << "BAnnotate lost world: " << annotated_world;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SupersetPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace iflex
