#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace sketchml::common {
namespace {

TEST(ThreadPoolTest, ReturnsTaskResults) {
  ThreadPool pool(4);
  auto a = pool.Submit([] { return 6 * 7; });
  auto b = pool.Submit([] { return std::string("ok"); });
  EXPECT_EQ(a.Get(), 42);
  EXPECT_EQ(b.Get(), "ok");
}

TEST(ThreadPoolTest, VoidTasksComplete) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto task = pool.Submit([&counter] { ++counter; });
  task.Get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  auto task =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(task.Get(), std::runtime_error);

  // The pool survives a throwing task and keeps serving.
  auto after = pool.Submit([] { return 7; });
  EXPECT_EQ(after.Get(), 7);
}

TEST(ThreadPoolTest, SingleThreadRunsTasksInSubmissionOrder) {
  // With one worker, task *starts* are FIFO; record the order bodies run.
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mu;
  std::vector<TaskFuture<void>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back(pool.Submit([i, &order, &mu] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    }));
  }
  // Get in reverse so inline help-running (claiming from the back of the
  // logical dependency order) would be detectable as a reordering only if
  // the worker had not yet started the task; either way every task runs
  // exactly once.
  for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) it->Get();
  ASSERT_EQ(order.size(), 16u);
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ThreadPoolTest, GetRunsUnstartedTaskInline) {
  // A pool whose only worker is blocked cannot start the second task; Get
  // must claim and run it on the calling thread instead of deadlocking.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto blocker = pool.Submit([gate] { gate.wait(); });
  const auto caller_id = std::this_thread::get_id();
  auto inline_task =
      pool.Submit([caller_id] { return std::this_thread::get_id() == caller_id; });
  EXPECT_TRUE(inline_task.Get());  // Ran inline on this thread.
  release.set_value();
  blocker.Get();
}

TEST(ThreadPoolTest, NestedSubmissionDoesNotDeadlock) {
  // Every task submits a subtask to the same (saturated) pool and waits
  // for it — the pattern SketchMlCodec::Encode uses from inside trainer
  // worker tasks. Help-first Get keeps this deadlock-free.
  ThreadPool pool(2);
  std::vector<TaskFuture<int>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.push_back(pool.Submit([&pool, i] {
      auto sub = pool.Submit([i] { return i * 2; });
      return sub.Get() + 1;
    }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(tasks[static_cast<size_t>(i)].Get(), i * 2 + 1);
}

TEST(ThreadPoolTest, StressManyTasksRunExactlyOnce) {
  ThreadPool pool(8);
  constexpr int kTasks = 2000;
  std::atomic<int> executions{0};
  std::vector<TaskFuture<int>> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(pool.Submit([i, &executions] {
      ++executions;
      return i;
    }));
  }
  long long sum = 0;
  for (auto& task : tasks) sum += task.Get();
  EXPECT_EQ(executions.load(), kTasks);
  EXPECT_EQ(sum, static_cast<long long>(kTasks) * (kTasks - 1) / 2);
}

TEST(ThreadPoolTest, FutureDestroyedWithoutGetJoinsItsTask) {
  // The only worker is blocked, so nothing but the future can start the
  // task: its destructor must claim and run it before returning, and the
  // worker must not run it a second time once released.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto blocker = pool.Submit([gate] { gate.wait(); });
  std::atomic<int> runs{0};
  { auto dropped = pool.Submit([&runs] { ++runs; }); }
  EXPECT_EQ(runs.load(), 1);
  release.set_value();
  blocker.Get();
  pool.Submit([] {}).Get();  // FIFO: the worker has passed the old node.
  EXPECT_EQ(runs.load(), 1);

  // A task a worker already started is waited for, its exception dropped.
  std::promise<void> started;
  std::atomic<bool> finished{false};
  {
    auto running = pool.Submit([&started, &finished]() -> int {
      started.set_value();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished = true;
      throw std::runtime_error("discarded");
    });
    started.get_future().wait();
  }
  EXPECT_TRUE(finished.load());
}

TEST(ThreadPoolTest, DeferredTaskRunsOnlyAtGetOnCallingThread) {
  std::atomic<int> runs{0};
  auto task = Deferred([&runs] {
    ++runs;
    return std::this_thread::get_id();
  });
  EXPECT_TRUE(task.valid());
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(task.Get(), std::this_thread::get_id());
  EXPECT_EQ(runs.load(), 1);
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

}  // namespace
}  // namespace sketchml::common
