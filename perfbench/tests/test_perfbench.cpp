// Tests of the benchmark's own machinery: the percentile reporter, the
// pacing arithmetic, registry hygiene of the module decorators and the
// daemon child's lifecycle.
#include <dirent.h>
#include <signal.h>

#include <cerrno>
#include <set>
#include <stdexcept>
#include <typeinfo>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "daemon.h"
#include "harness/experiment.h"
#include "ledger.h"
#include "modules/modules.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Tail, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(tail(ramp(1000), 99.0).pct, 99.0);   // 10 beyond p99
  EXPECT_EQ(tail(ramp(999), 99.0).pct, 95.0);    // 9.99 beyond p99
  EXPECT_EQ(tail(ramp(217), 95.0).pct, 95.0);    // 10.85 beyond p95
  EXPECT_EQ(tail(ramp(199), 95.0).pct, 90.0);    // 9.95 beyond p95
  EXPECT_EQ(tail(ramp(10000), 95.0).pct, 95.0);  // never above the ask
  EXPECT_EQ(tail(ramp(5), 95.0).pct, 50.0);      // the median at worst
}

TEST(Tail, ReportsValueAndSampleCount) {
  const Tail t = tail(ramp(201), 95.0);
  EXPECT_EQ(t.n, 201u);
  EXPECT_DOUBLE_EQ(t.value, 190.0);  // rank 0.95 * 200
  EXPECT_EQ(describeTail(t, 95.0), "p95 of n=201");
  EXPECT_EQ(describeTail(tail(ramp(120), 95.0), 95.0),
            "p90 of n=120 (too few for p95)");
}

TEST(Percentile, InterpolatesAndHandlesEmpty) {
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 50.0), 1.5);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 100.0), 2.0);
}

// Twenty ticks due every 50 ms (20x). At tick 10 the core stalls for
// 500 ms and never catches up: every later tick starts 500 ms late.
TickStarts stalledSchedule() {
  TickStarts starts;
  for (int t = 1; t <= 20; ++t) {
    starts[t] = 100.0 + t / 20.0 + (t >= 10 ? 0.5 : 0.0);
  }
  return starts;
}

TEST(Pacing, StallIsChargedToEveryLaterTick) {
  const TickStarts starts = stalledSchedule();
  const std::map<double, double> due = dueTimes(starts, 20.0);
  const std::vector<double> lag = lagsMs(starts, due);
  ASSERT_EQ(lag.size(), 20u);
  for (int t = 1; t <= 20; ++t) {
    EXPECT_NEAR(lag[t - 1], t >= 10 ? 500.0 : 0.0, 1e-6) << "tick " << t;
  }
  // An alarm for the window ending at tick 15, delivered 2 ms after
  // that tick started, waited 502 ms since it was due, not 2 ms.
  const std::vector<double> latency =
      alarmLatenciesMs({{15.0, starts.at(15) + 0.002}}, due);
  ASSERT_EQ(latency.size(), 1u);
  EXPECT_NEAR(latency[0], 502.0, 1e-6);
}

TEST(Pacing, OriginIsTheLeastLateTick) {
  // A driver that started 100 ms late and kept pace is never behind.
  TickStarts starts;
  for (int t = 1; t <= 5; ++t) starts[t] = 7.1 + t / 20.0;
  for (double lag : lagsMs(starts, dueTimes(starts, 20.0))) {
    EXPECT_NEAR(lag, 0.0, 1e-6);
  }
}

TEST(Pacing, DeliveriesWithoutDueTimeAreSkipped) {
  const std::map<double, double> due = {{5.0, 1.0}};
  const std::vector<double> lat =
      alarmLatenciesMs({{5.0, 1.25}, {6.0, 9.0}}, due);
  ASSERT_EQ(lat.size(), 1u);
  EXPECT_NEAR(lat[0], 250.0, 1e-9);
}

TEST(Pacing, ReadyTimeIsTheEndOfThePreviousTick) {
  const std::vector<Span> spans = {{0, 0, 1.0, 1.5, 1.0},
                                   {1, 1, 1.5, 1.75, 1.0},
                                   {0, 0, 2.5, 2.6, 2.0}};
  const std::map<double, double> ready = readyTimes(spans, 0.5);
  EXPECT_DOUBLE_EQ(ready.at(1.0), 0.5);
  EXPECT_DOUBLE_EQ(ready.at(2.0), 1.75);
}

asdf::harness::ExperimentSpec smallSpec() {
  asdf::harness::ExperimentSpec spec = baseSpec(4, 150.0, 4242);
  spec.trainDuration = 150.0;
  return spec;
}

class RegistryHygiene : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { asdf::modules::registerBuiltinModules(); }
};

TEST_F(RegistryHygiene, DecoratedRegistryYieldsIdenticalAlarms) {
  const asdf::harness::ExperimentSpec spec = smallSpec();
  const auto model = asdf::harness::trainModel(spec);
  const auto plain = asdf::harness::runExperiment(spec, model);
  ASSERT_FALSE(plain.blackBox.empty());
  for (bool traced : {false, true}) {
    Ledger ledger(traced);
    asdf::harness::ExperimentResult tapped;
    {
      RegistryTap tap(ledger);
      tapped = asdf::harness::runExperiment(spec, model);
    }
    EXPECT_EQ(alarmFingerprint(tapped), alarmFingerprint(plain)) << traced;
    EXPECT_EQ(tapped.blackBox.size(), plain.blackBox.size());
    EXPECT_EQ(tapped.whiteBox.size(), plain.whiteBox.size());
    // Every alarm was stamped at delivery, and its window end is a
    // tick the collections stamped.
    EXPECT_EQ(ledger.deliveries().size(),
              plain.blackBox.size() + plain.whiteBox.size());
    for (const Delivery& d : ledger.deliveries()) {
      EXPECT_EQ(ledger.tickStarts().count(d.windowEnd), 1u) << d.windowEnd;
    }
    EXPECT_EQ(ledger.spans().empty(), !traced);
  }
}

TEST_F(RegistryHygiene, TracedRunSpansEveryPipelineType) {
  const asdf::harness::ExperimentSpec spec = smallSpec();
  const auto model = asdf::harness::trainModel(spec);
  Ledger ledger(true);
  {
    RegistryTap tap(ledger);
    asdf::harness::runExperiment(spec, model);
  }
  std::set<std::string> seen;
  double previousEnd = 0.0;
  for (const Span& s : ledger.spans()) {
    seen.insert(ledger.types()[s.type]);
    EXPECT_LE(s.start, s.end);
    EXPECT_GE(s.start, previousEnd);  // serial: no overlap, no nesting
    previousEnd = s.end;
  }
  for (const std::string& type : pipelineTypes()) {
    EXPECT_EQ(seen.count(type), 1u) << type;
  }
}

TEST_F(RegistryHygiene, GlobalRegistryIsRestoredAfterTheRun) {
  asdf::core::ModuleRegistry& global = asdf::core::ModuleRegistry::global();
  const std::vector<std::string> names = global.typeNames();
  std::vector<const std::type_info*> before;
  for (const std::string& name : names) {
    before.push_back(&typeid(*global.create(name)));
  }
  Ledger traced(true);
  {
    RegistryTap tap(traced);
    EXPECT_NE(typeid(*global.create("sadc")), *before.front());
  }
  try {
    RegistryTap tap(traced);
    throw std::runtime_error("run failed");
  } catch (const std::runtime_error&) {
  }
  ASSERT_EQ(global.typeNames(), names);
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(typeid(*global.create(names[i])), *before[i]) << names[i];
  }
  // An untraced run after the traced one leaves the traced ledger
  // untouched: no decorator outlived its tap.
  const asdf::harness::ExperimentSpec spec = smallSpec();
  const auto model = asdf::harness::trainModel(spec);
  asdf::harness::runExperiment(spec, model);
  EXPECT_TRUE(traced.spans().empty());
  EXPECT_TRUE(traced.deliveries().empty());
}

TEST(Daemon, ParsesTheBannerPort) {
  EXPECT_EQ(parseBannerPort("asdf_rpcd: serving 50 slaves (source=sim, "
                            "seed=7, shards=1) on 127.0.0.1:40123"),
            40123);
  EXPECT_EQ(parseBannerPort("asdf_rpcd: served 10 frames"), 0);
  EXPECT_EQ(parseBannerPort("asdf_rpcd: serving 4 slaves on 127.0.0.1:"), 0);
  EXPECT_EQ(parseBannerPort("asdf_rpcd: serving 4 on 127.0.0.1:70000"), 0);
}

std::size_t openFds() {
  std::size_t n = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (readdir(dir) != nullptr) ++n;
  closedir(dir);
  return n;
}

TEST(Daemon, BackToBackStartsLeakNoProcessOrDescriptor) {
  const std::size_t fds = openFds();
  for (int i = 0; i < 22; ++i) {
    pid_t pid = 0;
    std::uint16_t port = 0;
    {
      RpcdProcess daemon(PERFBENCH_RPCD, {"--slaves=4", "--seed=9"});
      pid = daemon.pid();
      port = daemon.port();
      ASSERT_GT(port, 0);
      daemon.connectOnce();
    }
    // Reaped: the pid no longer exists.
    errno = 0;
    EXPECT_EQ(::kill(pid, 0), -1);
    EXPECT_EQ(errno, ESRCH);
    EXPECT_EQ(openFds(), fds) << "start " << i;
  }
}

TEST(Daemon, MissingBinaryThrows) {
  EXPECT_THROW(RpcdProcess("/nonexistent/asdf_rpcd", {}, 5.0),
               std::runtime_error);
}

}  // namespace
}  // namespace perfbench
