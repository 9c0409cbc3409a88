// Task-registry level checks: ids, scenario sizes, scaling behaviour, and
// the cost-model inputs each task carries.
#include <gtest/gtest.h>

#include "exec/executor.h"
#include "oracle/evaluate.h"
#include "tasks/task.h"
#include "xlog/precise.h"

namespace iflex {
namespace {

TEST(TaskRegistryTest, AllIdsBuild) {
  for (const std::string& id : AllTaskIds()) {
    auto task = MakeTask(id, 12);
    ASSERT_TRUE(task.ok()) << id << ": " << task.status();
    EXPECT_EQ((*task)->id, id);
    EXPECT_FALSE((*task)->description.empty());
    EXPECT_GT((*task)->gold.query_result.size(), 0u) << id;
    EXPECT_GT((*task)->n_procedures, 0u);
    EXPECT_GT((*task)->n_attributes, 0u);
    EXPECT_GT((*task)->n_rules, 0u);
  }
  for (const std::string& id : DblifeTaskIds()) {
    auto task = MakeTask(id, 40);
    ASSERT_TRUE(task.ok()) << id << ": " << task.status();
    EXPECT_GT((*task)->gold.query_result.size(), 0u) << id;
  }
  EXPECT_FALSE(MakeTask("T0", 10).ok());
}

TEST(TaskRegistryTest, ScenarioSizesMatchTableThree) {
  for (const std::string& id : AllTaskIds()) {
    auto sizes = ScenarioSizes(id);
    ASSERT_EQ(sizes.size(), 3u) << id;
    EXPECT_LT(sizes[0], sizes[1]);
    EXPECT_LT(sizes[1], sizes[2]);
  }
  // Paper anchors.
  EXPECT_EQ(ScenarioSizes("T1").back(), 250u);
  EXPECT_EQ(ScenarioSizes("T5").back(), 2136u);
  EXPECT_EQ(ScenarioSizes("T8").back(), 2490u);
}

TEST(TaskRegistryTest, ScaleControlsTableSize) {
  auto small = MakeTask("T7", 20);
  auto large = MakeTask("T7", 80);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_EQ((*small)->tuples_per_table, 20u);
  EXPECT_EQ((*large)->tuples_per_table, 80u);
  EXPECT_GT((*large)->gold.query_result.size(),
            (*small)->gold.query_result.size());
}

TEST(TaskRegistryTest, GoldExtractionSpansResolve) {
  for (const std::string& id : AllTaskIds()) {
    auto task = MakeTask(id, 15);
    ASSERT_TRUE(task.ok());
    for (const auto& [pred, extractions] : (*task)->gold.extractions) {
      for (const auto& e : extractions) {
        for (const Value& v : e.outputs) {
          if (!v.has_span()) continue;
          EXPECT_EQ((*task)->corpus->TextOf(v.span()), v.AsText())
              << id << "/" << pred;
        }
      }
    }
  }
}

TEST(TaskRegistryTest, PreciseBaselineIsIdempotent) {
  auto task = MakeTask("T1", 15);
  ASSERT_TRUE(task.ok());
  ASSERT_TRUE(AddPreciseBaseline(task->get()).ok());
  // Declaring twice must not fail (shared extractors are idempotent).
  ASSERT_TRUE(AddPreciseBaseline(task->get()).ok());
  EXPECT_FALSE((*task)->precise_program.rules().empty());
}

TEST(TaskRegistryTest, SampledCatalogPreservesAlignedJoinPartners) {
  auto task = MakeTask("T9", 60);
  ASSERT_TRUE(task.ok());
  // Equal-size tables sampled with one seed draw identical index sets.
  auto t6 = MakeTask("T6", 60);
  ASSERT_TRUE(t6.ok());
  Catalog sampled = (*t6)->catalog->CloneWithSampledTables(0.25, 99);
  const CompactTable* sig = *sampled.Table("sigmodPages");
  const CompactTable* icde = *sampled.Table("icdePages");
  ASSERT_EQ(sig->size(), icde->size());
}

// T6's query joins SIGMOD and ICDE author strings on similar() at 0.75,
// so its gold must follow the same similarity, not string equality. At
// these seeds two different generated teams are similar enough that an
// equality-based gold lacks titles the precise Xlog program returns.
TEST(TaskRegistryTest, T6GoldMatchesPreciseSimilarityJoin) {
  for (uint64_t seed : {15u, 23u}) {
    auto task = MakeTask("T6", 500, seed);
    ASSERT_TRUE(task.ok()) << task.status();
    TaskInstance& t = **task;
    ASSERT_TRUE(AddPreciseBaseline(&t).ok());
    Executor executor(*t.catalog);
    auto result = executor.Execute(t.precise_program);
    ASSERT_TRUE(result.ok()) << result.status();
    EvalReport report =
        EvaluateResult(*t.corpus, *result, t.gold.query_result);
    EXPECT_TRUE(report.exact) << "seed " << seed << ": " << report.ToString();
  }
}

}  // namespace
}  // namespace iflex
