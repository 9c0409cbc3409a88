// Contention stress for the session-shared structures the morsel scheduler
// runs against (docs/RUNTIME.md): 8 OS threads hammer one striped
// VerifyMemo and one striped ReuseCache, as concurrent morsels and
// simulation executors do. Runs under the `scaling` ctest label and the
// tsan-scaling preset — the invariants checked here (counter totals,
// first-insert-wins, pointer stability) must hold under every
// interleaving, and TSan must see no races on the stripes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "ctable/compact_table.h"
#include "exec/executor.h"
#include "exec/verify_memo.h"

namespace iflex {
namespace {

constexpr size_t kThreads = 8;

VerifyMemo::Key MakeKey(size_t i) {
  VerifyMemo::Key k{};
  k.feature = static_cast<ValueId>(i % 97);
  k.target_kind = 1;
  k.text = static_cast<ValueId>(i);
  return k;
}

// A verdict only thread `t` would insert, so a later insert overwriting
// an earlier one is visible in the stored value.
int8_t VerdictOfThread(size_t t) { return static_cast<int8_t>(t % 3) - 1; }

// 8 threads look up overlapping key ranges of one memo and insert their
// own verdict on a miss, reading it back right after. Every lookup is
// counted exactly once (hits + misses == lookups), and the first insert
// of a key wins: the verdict each thread reads back after its insert is
// the one the memo holds at the end, and pre-seeded keys keep their
// verdict against every thread's conflicting insert.
TEST(ScalingStressTest, VerifyMemoCountsEveryLookupAndKeepsFirstVerdict) {
  constexpr size_t kKeys = 4096;
  constexpr size_t kSeeded = 256;  // keys [0, kSeeded) hold verdict 1
  constexpr size_t kRounds = 32;
  constexpr size_t kLookupsPerRound = 512;

  VerifyMemo memo;
  for (size_t i = 0; i < kSeeded; ++i) memo.Insert(MakeKey(i), 1);

  struct ReadBack {
    size_t key;
    int8_t verdict;
  };
  std::vector<std::vector<ReadBack>> read_backs(kThreads);
  std::atomic<uint64_t> total_lookups{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t lookups = 0;
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < kLookupsPerRound; ++i) {
          // Overlapping strided ranges: plenty of cross-thread key
          // collisions and within-thread repeats.
          size_t key = (t * 13 + r * 251 + i * 7) % kKeys;
          std::optional<int8_t> verdict = memo.Lookup(MakeKey(key));
          ++lookups;
          if (key < kSeeded) {
            ASSERT_TRUE(verdict.has_value()) << "seeded key " << key;
            EXPECT_EQ(*verdict, 1) << "seeded key " << key;
          }
          if (verdict.has_value()) {
            // A conflicting insert of a present key must change nothing.
            memo.Insert(MakeKey(key), VerdictOfThread(t));
            continue;
          }
          memo.Insert(MakeKey(key), VerdictOfThread(t));
          std::optional<int8_t> stored = memo.Lookup(MakeKey(key));
          ++lookups;
          ASSERT_TRUE(stored.has_value()) << "key " << key;
          read_backs[t].push_back({key, *stored});
        }
      }
      total_lookups.fetch_add(lookups, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();

  uint64_t final_lookups = 0;
  for (size_t i = 0; i < kSeeded; ++i) {
    EXPECT_EQ(memo.Lookup(MakeKey(i)), std::optional<int8_t>(1));
    ++final_lookups;
  }
  size_t read_back_count = 0;
  for (const std::vector<ReadBack>& reads : read_backs) {
    for (const ReadBack& rb : reads) {
      EXPECT_EQ(memo.Lookup(MakeKey(rb.key)),
                std::optional<int8_t>(rb.verdict))
          << "key " << rb.key;
      ++final_lookups;
      ++read_back_count;
    }
  }
  EXPECT_GT(read_back_count, 0u);
  EXPECT_LE(memo.size(), kKeys);
  EXPECT_GT(memo.size(), kSeeded);
  EXPECT_EQ(memo.hits() + memo.misses(), total_lookups.load() + final_lookups);
}

// 8 threads insert overlapping fingerprints into one ReuseCache, each
// with its own copy of the table (tagged by its tuple count, t + 1). The
// first copy of a fingerprint wins, and every pointer Lookup returned
// while peers kept inserting still points at that same copy afterwards.
TEST(ScalingStressTest, ReuseCacheKeepsFirstCopyWithStablePointers) {
  constexpr size_t kFingerprints = 256;
  constexpr size_t kRounds = 16;

  auto table_of_thread = [](size_t t) {
    CompactTable table({"v"});
    for (size_t i = 0; i <= t; ++i) {
      CompactTuple tup;
      tup.cells.push_back(Cell::Exact(Value::Number(static_cast<double>(i))));
      table.Add(std::move(tup));
    }
    return table;
  };

  struct Seen {
    uint64_t fp;
    const CompactTable* table;
    size_t size;
  };
  ReuseCache cache;
  std::vector<std::vector<Seen>> seen(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < kFingerprints; ++i) {
          uint64_t fp = (t * 31 + r * 17 + i) % kFingerprints;
          if (cache.Lookup(fp) == nullptr) cache.Insert(fp, table_of_thread(t));
          const CompactTable* table = cache.Lookup(fp);
          ASSERT_NE(table, nullptr) << "fingerprint " << fp;
          seen[t].push_back({fp, table, table->size()});
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(cache.size(), kFingerprints);
  for (const std::vector<Seen>& thread_seen : seen) {
    for (const Seen& s : thread_seen) {
      const CompactTable* table = cache.Lookup(s.fp);
      ASSERT_NE(table, nullptr) << "fingerprint " << s.fp;
      EXPECT_EQ(table, s.table) << "fingerprint " << s.fp;
      EXPECT_EQ(table->size(), s.size) << "fingerprint " << s.fp;
    }
  }
}

}  // namespace
}  // namespace iflex
