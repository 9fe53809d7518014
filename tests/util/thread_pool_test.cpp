#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace linkpad::util {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, TaskCapturesAreReleasedBeforeWaitIdleReturns) {
  // A waiter must not race the worker's destructors: once wait_idle
  // returns, nothing the task captured is still held by the pool.
  ThreadPool pool(2);
  for (int round = 0; round < 200; ++round) {
    auto token = std::make_shared<int>(round);
    pool.submit([token] { EXPECT_GE(*token, 0); });
    pool.wait_idle();
    EXPECT_EQ(token.use_count(), 1) << "round " << round;
  }
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, HandlesZeroItems) {
  parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelFor, GrainLargerThanNRunsInline) {
  std::vector<int> hits(10, 0);
  parallel_for(10, [&](std::size_t i) { hits[i]++; }, /*grain=*/100);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100,
                   [](std::size_t i) {
                     if (i == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ResultIndependentOfGrain) {
  const std::size_t n = 5000;
  std::vector<double> a(n), b(n);
  parallel_for(n, [&](std::size_t i) { a[i] = static_cast<double>(i) * 0.5; }, 1);
  parallel_for(n, [&](std::size_t i) { b[i] = static_cast<double>(i) * 0.5; }, 128);
  EXPECT_EQ(a, b);
}

TEST(ParallelFor, NestedDispatchRunsInlineInsteadOfDeadlocking) {
  // A parallel_for issued from inside a task of the SAME pool must run
  // inline on that worker — waiting on the pool would deadlock because the
  // outer task itself still counts as in flight.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(pool, 4, [&](std::size_t outer) {
    EXPECT_TRUE(pool.on_worker_thread());
    parallel_for(pool, 16, [&](std::size_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

// ------------------------------------------------------ chunked dispatch

TEST(ParallelForChunks, CoversEveryIndexOnceAtAnyGrain) {
  ThreadPool pool(3);
  // Grain boundaries: grain 1, a grain that divides n, one that leaves a
  // ragged tail, one equal to n, and one past it.
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                              std::size_t{65}}) {
    for (const std::size_t grain :
         {std::size_t{1}, std::size_t{3}, std::size_t{16}, n, n + 9}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for_chunks(pool, n, grain,
                          [&](std::size_t, std::size_t begin, std::size_t end) {
                            ASSERT_LE(end, n);
                            // Chunks are grain-aligned: the partition derives
                            // from (n, grain) alone, never the pool.
                            EXPECT_EQ(begin % grain, 0u);
                            for (std::size_t i = begin; i < end; ++i) {
                              hits[i].fetch_add(1);
                            }
                          });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain;
      }
    }
  }
}

TEST(ParallelForChunks, SlotIdsStayBelowChunkSlots) {
  ThreadPool pool(4);
  const std::size_t n = 100, grain = 7;
  const std::size_t slots = chunk_slots(pool, n, grain);
  std::atomic<std::size_t> max_slot{0};
  parallel_for_chunks(pool, n, grain,
                      [&](std::size_t slot, std::size_t, std::size_t) {
                        std::size_t seen = max_slot.load();
                        while (slot > seen &&
                               !max_slot.compare_exchange_weak(seen, slot)) {
                        }
                      });
  EXPECT_LT(max_slot.load(), slots);
}

TEST(ParallelForChunks, PerSlotScratchSurvivesAcrossChunks) {
  // The point of the chunked shape: slot-indexed scratch is touched by one
  // task only, so per-chunk partial sums need no synchronization and their
  // total is exact.
  ThreadPool pool(4);
  const std::size_t n = 1000, grain = 9;
  std::vector<std::uint64_t> partial(chunk_slots(pool, n, grain), 0);
  parallel_for_chunks(pool, n, grain,
                      [&](std::size_t slot, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          partial[slot] += i;
                        }
                      });
  EXPECT_EQ(std::accumulate(partial.begin(), partial.end(), std::uint64_t{0}),
            static_cast<std::uint64_t>(n) * (n - 1) / 2);
}

TEST(ParallelForChunks, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      parallel_for_chunks(pool, 100, 4,
                          [](std::size_t, std::size_t begin, std::size_t) {
                            if (begin == 56) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
}

TEST(ParallelForChunks, NestedDispatchRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(60);
  parallel_for_chunks(pool, 3, 1, [&](std::size_t, std::size_t outer,
                                      std::size_t) {
    parallel_for_chunks(pool, 20, 4,
                        [&](std::size_t slot, std::size_t begin,
                            std::size_t end) {
                          EXPECT_EQ(slot, 0u);  // inline fallback: one slot
                          for (std::size_t i = begin; i < end; ++i) {
                            hits[outer * 20 + i].fetch_add(1);
                          }
                        });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForChunks, HandlesZeroItems) {
  ThreadPool pool(2);
  parallel_for_chunks(pool, 0, 8,
                      [](std::size_t, std::size_t, std::size_t) {
                        FAIL() << "body must not run";
                      });
}

TEST(ParallelForChunks, OneThreadPoolRunsInlineOnTheCaller) {
  // threads = 1 is the reference schedule every wider pool is bit-compared
  // against: on a one-thread pool both shapes run every chunk on the
  // calling thread, in ascending order, as slot 0.
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  const std::size_t n = 23, grain = 4;
  EXPECT_EQ(chunk_slots(pool, n, grain), 1u);

  std::vector<std::size_t> begins;
  parallel_for_chunks(pool, n, grain,
                      [&](std::size_t slot, std::size_t begin, std::size_t end) {
                        EXPECT_EQ(std::this_thread::get_id(), caller);
                        EXPECT_EQ(slot, 0u);
                        EXPECT_EQ(end, std::min(n, begin + grain));
                        begins.push_back(begin);
                      });
  const std::vector<std::size_t> chunk_starts = {0, 4, 8, 12, 16, 20};
  EXPECT_EQ(begins, chunk_starts);

  std::vector<std::size_t> indices;
  parallel_for(
      pool, n,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        indices.push_back(i);
      },
      grain);
  std::vector<std::size_t> ascending(n);
  std::iota(ascending.begin(), ascending.end(), std::size_t{0});
  EXPECT_EQ(indices, ascending);
}

// ----------------------------------------------------------- tree_reduce

TEST(TreeReduce, MatchesSerialLeftFoldForConcatenation) {
  // Adjacent-pair merging keeps element order, so reducing strings by
  // concatenation must reproduce the in-order join at every size — the
  // property the population reduction's ordered chunk merges rely on.
  for (std::size_t n = 1; n <= 9; ++n) {
    std::vector<std::string> items;
    std::string expected;
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back(std::string(1, static_cast<char>('a' + i)));
      expected += items.back();
    }
    const std::string reduced = tree_reduce(
        std::move(items),
        [](std::string& left, std::string& right) { left += right; });
    EXPECT_EQ(reduced, expected) << n;
  }
}

TEST(TreeReduce, FixedShapeIsDeterministic) {
  // The merge ORDER (tree shape) is a pure function of the item count:
  // tagging each merge must give the same trace on every run.
  auto trace = [] {
    std::vector<std::string> items = {"0", "1", "2", "3", "4"};
    std::vector<std::string> log;
    (void)tree_reduce(std::move(items),
                      [&](std::string& left, std::string& right) {
                        log.push_back(left + "+" + right);
                        left += right;
                      });
    return log;
  };
  const auto first = trace();
  EXPECT_EQ(first, trace());
  // Five leaves: (0+1)(2+3) carry 4, then (01+23), then (0123+4).
  const std::vector<std::string> expected = {"0+1", "2+3", "01+23", "0123+4"};
  EXPECT_EQ(first, expected);
}

TEST(TreeReduce, RejectsEmptyInput) {
  EXPECT_THROW(tree_reduce(std::vector<int>{}, [](int& a, int& b) { a += b; }),
               linkpad::ContractViolation);
}

}  // namespace
}  // namespace linkpad::util
