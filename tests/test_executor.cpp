// Executor back-ends (executor.h) and the scheduler behavior that
// depends on them: batch completion, exception propagation, genuine
// concurrency in the pool, exclusivity domains serializing module
// instances that share state, and per-batch CPU metering.
#include "core/executor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cputime.h"
#include "core/fpt_core.h"
#include "core/module.h"
#include "core/registry.h"

namespace asdf::core {
namespace {

TEST(SerialExecutor, RunsTasksInSubmissionOrder) {
  SerialExecutor exec;
  CpuMeter meter;
  EXPECT_EQ(exec.name(), "serial");
  EXPECT_EQ(exec.concurrency(), 1);
  std::vector<int> order;
  std::vector<Executor::Task> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back([&order, i] { order.push_back(i); });
  }
  exec.runBatch(batch, meter);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SerialExecutor, PropagatesTaskException) {
  SerialExecutor exec;
  CpuMeter meter;
  std::vector<Executor::Task> batch;
  batch.push_back([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(exec.runBatch(batch, meter), std::runtime_error);
}

TEST(ThreadPoolExecutor, RunsEveryTaskAcrossBatches) {
  ThreadPoolExecutor exec(4);
  CpuMeter meter;
  EXPECT_EQ(exec.concurrency(), 4);
  EXPECT_EQ(exec.name(), "pool(4)");
  std::atomic<int> count{0};
  for (int round = 0; round < 20; ++round) {
    std::vector<Executor::Task> batch;
    for (int i = 0; i < 7; ++i) {
      batch.push_back([&count] { count.fetch_add(1); });
    }
    exec.runBatch(batch, meter);
  }
  EXPECT_EQ(count.load(), 140);
}

TEST(ThreadPoolExecutor, TasksOfOneBatchOverlap) {
  // Two tasks that each wait until the other has started can only
  // complete if the pool really runs them concurrently.
  ThreadPoolExecutor exec(2);
  CpuMeter meter;
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  auto rendezvous = [&] {
    std::unique_lock<std::mutex> lock(m);
    ++arrived;
    cv.notify_all();
    cv.wait(lock, [&] { return arrived == 2; });
  };
  std::vector<Executor::Task> batch{rendezvous, rendezvous};
  exec.runBatch(batch, meter);
  EXPECT_EQ(arrived, 2);
}

TEST(ThreadPoolExecutor, RethrowsLowestIndexedException) {
  ThreadPoolExecutor exec(4);
  CpuMeter meter;
  std::vector<Executor::Task> batch;
  batch.push_back([] {});
  batch.push_back([] { throw std::runtime_error("first"); });
  batch.push_back([] { throw std::logic_error("second"); });
  try {
    exec.runBatch(batch, meter);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The pool must survive a throwing batch.
  std::atomic<int> ran{0};
  std::vector<Executor::Task> next{[&ran] { ran.fetch_add(1); }};
  exec.runBatch(next, meter);
  EXPECT_EQ(ran.load(), 1);
}

TEST(MakeExecutor, SelectsBackEndByThreadCount) {
  EXPECT_EQ(makeExecutor(0)->name(), "serial");
  EXPECT_EQ(makeExecutor(1)->name(), "serial");
  EXPECT_EQ(makeExecutor(3)->name(), "pool(3)");
}

// --- exclusivity domains through the scheduler -------------------------

/// Periodic module that tracks how many instances of its exclusivity
/// domain execute concurrently and in which order they start.
class ExclusiveProbe final : public Module {
 public:
  static std::atomic<int> inside;
  static std::atomic<int> maxInside;
  static std::mutex orderMutex;
  static std::vector<std::string> startOrder;

  void init(ModuleContext& ctx) override {
    ctx.requestPeriodic(1.0);
    const std::string domain = ctx.param("domain", "");
    if (!domain.empty()) ctx.requestExclusive(domain);
  }
  void run(ModuleContext& ctx, RunReason) override {
    {
      std::lock_guard<std::mutex> lock(orderMutex);
      startOrder.push_back(ctx.instanceId());
    }
    const int now = inside.fetch_add(1) + 1;
    int seen = maxInside.load();
    while (now > seen && !maxInside.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    inside.fetch_sub(1);
  }
};

std::atomic<int> ExclusiveProbe::inside{0};
std::atomic<int> ExclusiveProbe::maxInside{0};
std::mutex ExclusiveProbe::orderMutex;
std::vector<std::string> ExclusiveProbe::startOrder;

class ExclusivityTest : public ::testing::Test {
 protected:
  ExclusivityTest() {
    registry_.registerType(
        "probe", [] { return std::make_unique<ExclusiveProbe>(); });
    ExclusiveProbe::inside = 0;
    ExclusiveProbe::maxInside = 0;
    ExclusiveProbe::startOrder.clear();
  }

  sim::SimEngine engine_;
  ModuleRegistry registry_;
};

TEST_F(ExclusivityTest, SharedDomainNeverRunsConcurrently) {
  FptCore core(engine_, Environment{}, &registry_);
  core.setExecutor(std::make_unique<ThreadPoolExecutor>(4));
  core.configureFromText(R"(
[probe]
id = a
domain = shared

[probe]
id = b
domain = shared

[probe]
id = c
domain = shared

[probe]
id = d
domain = shared
)");
  engine_.runUntil(5.0);
  EXPECT_EQ(ExclusiveProbe::maxInside.load(), 1);
  // Within every tick the domain members start in configuration order.
  ASSERT_EQ(ExclusiveProbe::startOrder.size(), 20u);
  for (std::size_t tick = 0; tick < 5; ++tick) {
    EXPECT_EQ(ExclusiveProbe::startOrder[tick * 4 + 0], "a");
    EXPECT_EQ(ExclusiveProbe::startOrder[tick * 4 + 1], "b");
    EXPECT_EQ(ExclusiveProbe::startOrder[tick * 4 + 2], "c");
    EXPECT_EQ(ExclusiveProbe::startOrder[tick * 4 + 3], "d");
  }
}

TEST_F(ExclusivityTest, IndependentInstancesDoOverlap) {
  FptCore core(engine_, Environment{}, &registry_);
  core.setExecutor(std::make_unique<ThreadPoolExecutor>(4));
  // No domain: all four may run concurrently.
  core.configureFromText(R"(
[probe]
id = a

[probe]
id = b

[probe]
id = c

[probe]
id = d
)");
  engine_.runUntil(10.0);
  EXPECT_GT(ExclusiveProbe::maxInside.load(), 1);
}

// --- CPU metering ----------------------------------------------------

TEST(CpuMetering, EachExecutorClosesOneScopePerThreadPerBatch) {
  SerialExecutor serial;
  ThreadPoolExecutor pool(4);
  for (Executor* exec : {static_cast<Executor*>(&serial),
                         static_cast<Executor*>(&pool)}) {
    CpuMeter meter;
    std::atomic<int> ran{0};
    constexpr int kBatches = 10;
    for (int round = 0; round < kBatches; ++round) {
      std::vector<Executor::Task> batch(
          25, [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      exec->runBatch(batch, meter);
    }
    EXPECT_EQ(ran.load(), 25 * kBatches) << exec->name();
    EXPECT_GE(meter.scopes(), static_cast<std::uint64_t>(kBatches))
        << exec->name();
    EXPECT_LE(meter.scopes(),
              static_cast<std::uint64_t>(kBatches * exec->concurrency()))
        << exec->name();
  }
}

/// Periodic module that burns a fixed amount of its thread's CPU time
/// on every run.
class CpuBurner final : public Module {
 public:
  static constexpr double kBurnSeconds = 2.5e-4;

  void init(ModuleContext& ctx) override {
    ctx.addOutput("output0", "burn");
    ctx.requestPeriodic(1.0);
  }
  void run(ModuleContext&, RunReason) override {
    const double until = threadCpuSeconds() + kBurnSeconds;
    while (threadCpuSeconds() < until) {
    }
  }
};

class CpuMeteringTest : public ::testing::TestWithParam<int> {
 protected:
  CpuMeteringTest() {
    registry_.registerType("burner",
                           [] { return std::make_unique<CpuBurner>(); });
  }

  sim::SimEngine engine_;
  ModuleRegistry registry_;
};

TEST_P(CpuMeteringTest, CpuSecondsCoverEveryRunAndReadTheClockPerBatch) {
  FptCore core(engine_, Environment{}, &registry_);
  core.setExecutor(makeExecutor(GetParam()));
  std::string config;
  for (int i = 0; i < 8; ++i) {
    config += "[burner]\nid = b" + std::to_string(i) + "\n\n";
  }
  core.configureFromText(config);
  engine_.runUntil(20.0);

  const std::uint64_t runs = core.totalRuns();
  ASSERT_GE(runs, 8u * 20u);
  // Every run's burn is inside some batch's scope.
  EXPECT_GE(core.cpuSeconds(),
            static_cast<double>(runs) * CpuBurner::kBurnSeconds);
  // All burners sit on level 0, so each wavefront dispatches one level:
  // at most one scope per executing thread per level, far fewer than
  // one per run.
  const std::uint64_t scopes = core.cpuMeter().scopes();
  const auto threads = static_cast<std::uint64_t>(core.executor().concurrency());
  EXPECT_GE(scopes, core.wavefronts());
  EXPECT_LE(scopes, core.wavefronts() * threads);
  EXPECT_LT(scopes, runs);
}

INSTANTIATE_TEST_SUITE_P(SerialAndPool, CpuMeteringTest,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 1 ? std::string("Serial")
                                                  : std::string("Pool4");
                         });

}  // namespace
}  // namespace asdf::core
