// TaskAttempt phase-machine unit tests: driven tick by tick against a
// hand-operated cluster (no scheduler), asserting phase progression,
// resource consumption, log emission, and fault latching.
#include "hadoop/task.h"

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "hadoop/cluster.h"
#include "sim/engine.h"

namespace asdf::hadoop {
namespace {

class TaskTest : public ::testing::Test {
 protected:
  explicit TaskTest(int slaves = 4)
      : cluster_(makeParams(slaves), 31, engine_) {}

  static HadoopParams makeParams(int slaves) {
    HadoopParams p;
    p.slaveCount = slaves;
    return p;
  }

  Job& submitJob(double inputBytes = 32.0e6, int reduces = 2,
                 double mapOutputRatio = 0.5) {
    JobSpec spec;
    spec.inputBytes = inputBytes;
    spec.numReduces = reduces;
    spec.mapCpuPerByte = 5.0e-7;  // 8 s of compute per 16 MB block
    spec.mapOutputRatio = mapOutputRatio;
    spec.reduceCpuPerByte = 1.0e-7;
    spec.outputRatio = 0.25;
    return cluster_.jobTracker().submit(spec, 0.0);
  }

  /// One manual tick of the whole cluster with a single live attempt.
  TaskOutcome tick(TaskAttempt& attempt) {
    const SimTime now = engine_.now() + 1.0;
    engine_.runUntil(now);
    const NodeId last = cluster_.slaveCount();
    for (NodeId n = 0; n <= last; ++n) cluster_.node(n).beginTick();
    attempt.requestResources(now);
    for (NodeId n = 0; n <= last; ++n) cluster_.node(n).finalizeResources();
    const TaskOutcome outcome = attempt.advance(now, 1.0);
    for (NodeId n = 0; n <= last; ++n) cluster_.node(n).endTick(now);
    return outcome;
  }

  /// Ticks until completion/failure or the limit.
  TaskOutcome runToCompletion(TaskAttempt& attempt, int maxTicks) {
    for (int i = 0; i < maxTicks; ++i) {
      const TaskOutcome outcome = tick(attempt);
      if (outcome != TaskOutcome::kRunning) return outcome;
    }
    return TaskOutcome::kRunning;
  }

  static bool logContains(Node& node, const std::string& needle) {
    for (std::size_t i = 0; i < node.ttLog().lineCount(); ++i) {
      if (contains(node.ttLog().line(i), needle)) return true;
    }
    for (std::size_t i = 0; i < node.dnLog().lineCount(); ++i) {
      if (contains(node.dnLog().line(i), needle)) return true;
    }
    return false;
  }

  sim::SimEngine engine_;
  Cluster cluster_;
};

TEST_F(TaskTest, MapRunsThroughAllPhasesAndCompletes) {
  Job& job = submitJob();
  TaskAttempt attempt(cluster_, job, /*isMap=*/true, 0, 0,
                      cluster_.node(1));
  attempt.start(0.0);
  EXPECT_TRUE(logContains(cluster_.node(1), "LaunchTaskAction"));
  EXPECT_DOUBLE_EQ(attempt.progressFraction(), 0.0);

  const TaskOutcome outcome = runToCompletion(attempt, 60);
  EXPECT_EQ(outcome, TaskOutcome::kCompleted);
  EXPECT_NEAR(attempt.progressFraction(), 1.0, 1e-6);
  EXPECT_TRUE(logContains(cluster_.node(1),
                          attempt.attemptId() + " is done."));
  // Compute dominates: a 16 MB block at 5e-7 cpu-s/B is ~8 s.
  EXPECT_GE(attempt.runtime(engine_.now()), 8.0);
}

TEST_F(TaskTest, MapReadEmitsBlockServeLogs) {
  Job& job = submitJob();
  TaskAttempt attempt(cluster_, job, true, 0, 0, cluster_.node(1));
  attempt.start(0.0);
  runToCompletion(attempt, 60);
  const long block = job.inputBlock(0);
  bool served = false;
  for (NodeId n = 1; n <= 4; ++n) {
    if (logContains(cluster_.node(n),
                    strformat("Served block blk_%ld", block))) {
      served = true;
    }
  }
  EXPECT_TRUE(served);
}

TEST_F(TaskTest, MapProgressIsMonotone) {
  Job& job = submitJob();
  TaskAttempt attempt(cluster_, job, true, 0, 0, cluster_.node(2));
  attempt.start(0.0);
  double prev = 0.0;
  for (int i = 0; i < 40; ++i) {
    if (tick(attempt) != TaskOutcome::kRunning) break;
    const double p = attempt.progressFraction();
    EXPECT_GE(p, prev - 1e-9);
    EXPECT_LE(p, 1.0 + 1e-9);
    prev = p;
  }
}

TEST_F(TaskTest, HungMapNeverCompletesButBurnsCpu) {
  Job& job = submitJob();
  cluster_.node(1).faults().mapHang = true;
  TaskAttempt attempt(cluster_, job, true, 0, 0, cluster_.node(1));
  attempt.start(0.0);
  EXPECT_EQ(runToCompletion(attempt, 120), TaskOutcome::kRunning);
  EXPECT_TRUE(attempt.hung());
  // The infinite loop shows in the node's CPU counters.
  EXPECT_GT(cluster_.node(1).sadcCollect().node[metrics::kCpuUserPct],
            15.0);
}

TEST_F(TaskTest, ReduceWalksCopySortWrite) {
  Job& job = submitJob(32.0e6, 2, 0.5);
  // Publish all map output so the copy phase can finish.
  job.completeMap(0, 2, 10.0);
  job.completeMap(1, 3, 10.0);
  ASSERT_TRUE(job.mapsComplete());

  TaskAttempt attempt(cluster_, job, /*isMap=*/false, 0, 0,
                      cluster_.node(1));
  attempt.start(0.0);
  const TaskOutcome outcome = runToCompletion(attempt, 200);
  EXPECT_EQ(outcome, TaskOutcome::kCompleted);
  EXPECT_TRUE(logContains(cluster_.node(1), "reduce > copy"));
  EXPECT_TRUE(logContains(cluster_.node(1), "reduce > sort"));
  EXPECT_TRUE(logContains(cluster_.node(1), "reduce > reduce"));
  // The output write ran the HDFS pipeline: Receiving/Received blocks.
  bool wrote = false;
  for (NodeId n = 1; n <= 4; ++n) {
    if (logContains(cluster_.node(n), "Receiving block")) wrote = true;
  }
  EXPECT_TRUE(wrote);
  // Output blocks were registered for cleanup.
  EXPECT_FALSE(job.outputBlocks().empty());
}

class WideTaskTest : public TaskTest {
 protected:
  WideTaskTest() : TaskTest(40) {}
};

// The reduce-copy scan over a 40-slave cluster whose map output sits
// on a sparse subset of nodes, with two more maps landing mid-copy.
// Eleven sources exceed the eight parallel fetches, so the round-robin
// rotation decides which sources each tick serves. Pins the sources
// each tick fetches from, the bytes per source after six ticks and the
// tick the copy turns to sort, all recorded from the reference run.
TEST_F(WideTaskTest, ReduceCopyRotationIsPinned) {
  Job& job = submitJob(12 * 16.0e6, 2, 3.0);
  ASSERT_EQ(job.numMaps(), 12);
  const NodeId early[] = {3, 5, 9, 9, 14, 21, 22, 27, 33, 38};
  for (int m = 0; m < 10; ++m) job.completeMap(m, early[m], 10.0);
  TaskAttempt attempt(cluster_, job, /*isMap=*/false, 0, 0,
                      cluster_.node(1));
  attempt.start(0.0);

  std::vector<std::vector<NodeId>> servedPerTick;
  std::vector<double> fetched(41, 0.0);
  int sortTick = -1;
  for (int t = 1; t <= 300 && sortTick < 0; ++t) {
    if (t == 4) {
      job.completeMap(10, 12, 10.0);
      job.completeMap(11, 30, 10.0);
    }
    ASSERT_EQ(tick(attempt), TaskOutcome::kRunning);
    if (t <= 6) {
      std::vector<NodeId> served;
      for (NodeId n = 1; n <= 40; ++n) {
        double& seen = fetched[static_cast<std::size_t>(n)];
        if (attempt.fetchedFrom(n) > seen) served.push_back(n);
        seen = attempt.fetchedFrom(n);
      }
      servedPerTick.push_back(served);
    }
    if (logContains(cluster_.node(1), "reduce > sort")) sortTick = t;
  }
  const std::vector<std::vector<NodeId>> expectedServed = {
      {3, 5, 9, 14, 21, 22, 27, 33},  {3, 5, 9, 14, 21, 22, 27, 38},
      {3, 5, 9, 14, 21, 22, 33, 38},  {3, 5, 9, 12, 27, 30, 33, 38},
      {3, 14, 21, 22, 27, 30, 33, 38}, {5, 9, 12, 14, 21, 22, 27, 30},
  };
  EXPECT_EQ(servedPerTick, expectedServed);
  const std::map<NodeId, double> expectedAfterSix = {
      {3, 20.0e6},  {5, 20.0e6},  {9, 20.0e6}, {12, 8.0e6},
      {14, 20.0e6}, {21, 20.0e6}, {22, 20.0e6}, {27, 20.0e6},
      {30, 12.0e6}, {33, 16.0e6}, {38, 16.0e6},
  };
  for (NodeId n = 1; n <= 40; ++n) {
    const auto it = expectedAfterSix.find(n);
    EXPECT_DOUBLE_EQ(fetched[static_cast<std::size_t>(n)],
                     it != expectedAfterSix.end() ? it->second : 0.0)
        << "source " << n;
  }
  EXPECT_EQ(sortTick, 13);
  // Every source's output was copied in full before the sort.
  for (NodeId n = 1; n <= 40; ++n) {
    EXPECT_DOUBLE_EQ(attempt.fetchedFrom(n), job.shuffleAvailable(n))
        << "source " << n;
  }
}

TEST_F(TaskTest, ReduceCopyFailureFaultKillsAttempt) {
  Job& job = submitJob(64.0e6, 2, 1.0);
  for (int m = 0; m < job.numMaps(); ++m) job.completeMap(m, 2, 10.0);
  cluster_.node(1).faults().reduceCopyFail = true;
  TaskAttempt attempt(cluster_, job, false, 0, 0, cluster_.node(1));
  attempt.start(0.0);
  const TaskOutcome outcome = runToCompletion(attempt, 300);
  EXPECT_EQ(outcome, TaskOutcome::kFailed);
  // The doomed attempt lingered in the copy phase (HADOOP-1152's
  // manifestation window) before dying.
  EXPECT_GE(attempt.runtime(engine_.now()), 45.0);
  EXPECT_TRUE(logContains(cluster_.node(1), "copy failed"));
  EXPECT_TRUE(logContains(cluster_.node(1), "failed to rename map output"));
}

TEST_F(TaskTest, ReduceSortHangFaultFreezesAttempt) {
  Job& job = submitJob(32.0e6, 2, 0.5);
  for (int m = 0; m < job.numMaps(); ++m) job.completeMap(m, 2, 10.0);
  cluster_.node(1).faults().reduceSortHang = true;
  TaskAttempt attempt(cluster_, job, false, 0, 0, cluster_.node(1));
  attempt.start(0.0);
  EXPECT_EQ(runToCompletion(attempt, 300), TaskOutcome::kRunning);
  EXPECT_TRUE(attempt.hung());
  EXPECT_TRUE(logContains(cluster_.node(1), "reduce > sort"));
  EXPECT_FALSE(logContains(cluster_.node(1), "reduce > reduce"));
}

TEST_F(TaskTest, KillEmitsKillActionAndClosesLogs) {
  Job& job = submitJob();
  TaskAttempt attempt(cluster_, job, true, 0, 0, cluster_.node(1));
  attempt.start(0.0);
  tick(attempt);  // mid-read
  attempt.kill(engine_.now());
  EXPECT_TRUE(logContains(cluster_.node(1), "KillTaskAction"));
  // The source DataNode's read state was closed; re-parsing the log
  // should leave nothing open.
  const long block = job.inputBlock(0);
  (void)block;
}

TEST_F(TaskTest, PacketLossSlowsRemoteRead) {
  Job& job = submitJob();
  // Force a remote read: host a map on a node with no local replica.
  NodeId remoteHost = kInvalidNode;
  const auto& replicas = cluster_.nameNode().replicas(job.inputBlock(0));
  for (NodeId n = 1; n <= 4; ++n) {
    if (std::find(replicas.begin(), replicas.end(), n) == replicas.end()) {
      remoteHost = n;
      break;
    }
  }
  ASSERT_NE(remoteHost, kInvalidNode) << "3 replicas over 4 nodes";

  // Healthy remote read duration.
  TaskAttempt healthy(cluster_, job, true, 0, 0,
                      cluster_.node(remoteHost));
  healthy.start(0.0);
  int healthyTicks = 0;
  while (runToCompletion(healthy, 1) == TaskOutcome::kRunning &&
         healthyTicks < 100) {
    ++healthyTicks;
  }

  // Same read with 50% loss on the host NIC.
  cluster_.node(remoteHost).nic().setLossRate(0.5);
  TaskAttempt lossy(cluster_, job, true, 1, 0, cluster_.node(remoteHost));
  lossy.start(engine_.now());
  int lossyTicks = 0;
  while (runToCompletion(lossy, 1) == TaskOutcome::kRunning &&
         lossyTicks < 2000) {
    ++lossyTicks;
  }
  // Note: map 1's block may be host-local; only compare when it isn't.
  const auto& replicas1 =
      cluster_.nameNode().replicas(job.inputBlock(1));
  if (std::find(replicas1.begin(), replicas1.end(), remoteHost) ==
      replicas1.end()) {
    EXPECT_GT(lossyTicks, healthyTicks * 3);
  }
}

TEST_F(TaskTest, AttemptIdsFollowFigure5) {
  Job& job = submitJob();
  TaskAttempt map(cluster_, job, true, 7, 1, cluster_.node(1));
  EXPECT_EQ(map.attemptId(),
            strformat("task_%04d_m_000007_1", job.id()));
  TaskAttempt reduce(cluster_, job, false, 0, 2, cluster_.node(1));
  EXPECT_EQ(reduce.attemptId(),
            strformat("task_%04d_r_000000_2", job.id()));
}

}  // namespace
}  // namespace asdf::hadoop
