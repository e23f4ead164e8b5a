#ifndef SKETCHML_COMMON_THREAD_POOL_H_
#define SKETCHML_COMMON_THREAD_POOL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "common/mutex.h"
#include "common/obs.h"
#include "common/thread_annotations.h"

namespace sketchml::common {

namespace internal {

/// One queued unit of work. The `claimed` flag arbitrates between a pool
/// worker popping the node and the submitter reclaiming it via
/// `TaskFuture::Get` (help-first scheduling): exactly one side wins, so a
/// task body runs exactly once and `Get` can never deadlock waiting for a
/// saturated pool.
struct TaskNode {
  std::function<void()> run;
  std::atomic<bool> claimed{false};

  /// Submission timestamp, captured only when metrics were enabled at
  /// submit time (0 otherwise); lets the run wrapper record queue wait.
  uint64_t enqueue_ns = 0;

  /// Returns true for exactly one caller.
  bool TryClaim() { return !claimed.exchange(true, std::memory_order_acq_rel); }
};

/// Metric handles for one pool. Unnamed pools share the process-wide
/// unlabeled `threadpool/*` slots; named pools get their own
/// `threadpool/*{pool=<name>}` slice so per-executor queue depth and
/// task latency are attributable (the trainer names its pool "trainer").
struct PoolObs {
  obs::Counter tasks;
  obs::Histogram task_wait_ns;
  obs::Histogram task_run_ns;
  obs::Gauge queue_depth;

  /// Shared unlabeled handles.
  static const PoolObs& Get();

  /// Handles labeled {pool=<pool_name>} (registration is idempotent, so
  /// two pools with the same name share a slice).
  static PoolObs Labeled(std::string_view pool_name);
};

/// Builds an unscheduled task node running `fn`, and the future of its
/// result. The node's wrapper records queue wait, run time and the task
/// count into `pool_obs` only when the node carries an enqueue timestamp
/// (a pool task submitted while metrics were on).
template <typename F, typename T>
std::pair<std::shared_ptr<TaskNode>, std::future<T>> MakeTaskNode(
    F&& fn, PoolObs pool_obs) {
  auto node = std::make_shared<TaskNode>();
  auto promise = std::make_shared<std::promise<T>>();
  std::future<T> future = promise->get_future();
  // Raw pointer: capturing the shared_ptr would cycle node -> run -> node.
  TaskNode* raw_node = node.get();
  // The handles (4 ints) are copied into the task: a claimed task may run
  // inline via TaskFuture::Get after the pool itself is gone.
  node->run = [fn = std::forward<F>(fn), promise, raw_node,
               pool_obs = std::move(pool_obs)]() mutable {
    const bool instrumented = raw_node->enqueue_ns != 0;
    uint64_t start_ns = 0;
    if (instrumented) {
      start_ns = obs::NowNs();
      pool_obs.task_wait_ns.Record(
          static_cast<double>(start_ns - raw_node->enqueue_ns));
    }
    // Run time and task count are recorded before the promise is
    // fulfilled, so a snapshot taken after `Get()` returns counts the task.
    const auto record_run = [&] {
      if (!instrumented) return;
      pool_obs.task_run_ns.Record(static_cast<double>(obs::NowNs() - start_ns));
      pool_obs.tasks.Increment();
    };
    try {
      if constexpr (std::is_void_v<T>) {
        fn();
        record_run();
        promise->set_value();
      } else {
        T value = fn();
        record_run();
        promise->set_value(std::move(value));
      }
    } catch (...) {
      record_run();
      promise->set_exception(std::current_exception());
    }
  };
  return {std::move(node), std::move(future)};
}

}  // namespace internal

/// Handle to a submitted task. `Get()` returns the task's result,
/// rethrowing any exception the task body threw.
///
/// If no pool worker has started the task yet, `Get()` claims it and runs
/// it inline on the calling thread. This makes nested submission safe:
/// a task running on a pool thread may submit subtasks to the same pool
/// and `Get()` them without risking deadlock, because waiting degrades to
/// running.
///
/// A future that still owns its task joins it on destruction, like
/// `std::async`'s: it claims and runs the task if no worker started it,
/// else waits for it, and discards the result or exception. So a caller
/// that leaves early can never leave a task running against captures it
/// is about to free.
template <typename T>
class TaskFuture {
 public:
  TaskFuture() = default;
  TaskFuture(std::shared_ptr<internal::TaskNode> node, std::future<T> future)
      : node_(std::move(node)), future_(std::move(future)) {}
  ~TaskFuture() { Join(); }

  TaskFuture(TaskFuture&&) noexcept = default;
  TaskFuture& operator=(TaskFuture&& other) noexcept {
    if (this != &other) {
      Join();
      node_ = std::move(other.node_);
      future_ = std::move(other.future_);
    }
    return *this;
  }

  bool valid() const { return future_.valid(); }

  /// Blocks until the task completes (running it inline if still queued)
  /// and returns its result. Call at most once.
  T Get() {
    if (node_ != nullptr && node_->TryClaim()) node_->run();
    return future_.get();
  }

 private:
  void Join() noexcept {
    if (!future_.valid()) return;
    if (node_ != nullptr && node_->TryClaim()) node_->run();
    future_.wait();
  }

  std::shared_ptr<internal::TaskNode> node_;
  std::future<T> future_;
};

/// The never-enqueued form, for callers without a pool: `fn` runs on the
/// thread that calls `Get()` (or destroys the future), as a pool task does
/// when `Get()` reclaims it before any worker starts it. Records no pool
/// metrics.
template <typename F, typename T = std::invoke_result_t<std::decay_t<F>>>
TaskFuture<T> Deferred(F&& fn) {
  auto [node, future] =
      internal::MakeTaskNode<F, T>(std::forward<F>(fn), internal::PoolObs{});
  return TaskFuture<T>(std::move(node), std::move(future));
}

/// Fixed-size thread pool with future-returning submission and exception
/// propagation. Tasks start in FIFO order. The distributed-training
/// simulator's batch stages run its executors, broadcast and loss on one.
///
/// Thread-safe: any thread (including pool workers) may `Submit`.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). A non-empty
  /// `obs_pool` name labels this pool's metrics {pool=<obs_pool>};
  /// unnamed pools record into the shared unlabeled slots.
  explicit ThreadPool(int num_threads, std::string_view obs_pool = {});

  /// Joins all workers. Outstanding tasks are completed before shutdown;
  /// callers should `Get()` every future they care about first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// `hardware_concurrency()`, never less than 1.
  static int DefaultThreadCount() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
  }

  /// Schedules `fn` and returns a future for its result. `fn` must be
  /// invocable with no arguments.
  template <typename F, typename T = std::invoke_result_t<std::decay_t<F>>>
  TaskFuture<T> Submit(F&& fn) {
    auto [node, future] =
        internal::MakeTaskNode<F, T>(std::forward<F>(fn), obs_);
    if (obs::MetricsEnabled()) node->enqueue_ns = obs::NowNs();
    Enqueue(node);
    return TaskFuture<T>(std::move(node), std::move(future));
  }

 private:
  void Enqueue(std::shared_ptr<internal::TaskNode> node)
      SKETCHML_EXCLUDES(mutex_);
  void WorkerLoop() SKETCHML_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar cv_;
  std::deque<std::shared_ptr<internal::TaskNode>> queue_
      SKETCHML_GUARDED_BY(mutex_);
  bool stopping_ SKETCHML_GUARDED_BY(mutex_) = false;
  internal::PoolObs obs_;  // This pool's (possibly labeled) handles.
  std::vector<std::thread> workers_;

  // Task-count accounting for the shutdown DCHECK (maintained only in
  // checked builds): every enqueued node must be dequeued by a worker
  // before the pool dies, or a submitted task was silently dropped.
  size_t debug_enqueued_ SKETCHML_GUARDED_BY(mutex_) = 0;
  size_t debug_dequeued_ SKETCHML_GUARDED_BY(mutex_) = 0;
};

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_THREAD_POOL_H_
