// End-to-end robustness of the monitoring plane: collector outages on
// healthy nodes must not stop the analyses from localizing a real
// Table 2 fault, an unmonitorable-but-healthy node must raise a
// monitoring-degraded event rather than a fault alarm, losing quorum
// must suppress alarms entirely, and all of it must stay
// bit-reproducible across executors.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "modules/modules.h"

namespace asdf::harness {
namespace {

ExperimentSpec smallSpec() {
  modules::registerBuiltinModules();
  ExperimentSpec spec;
  spec.slaves = 4;
  spec.duration = 150.0;
  spec.trainDuration = 80.0;
  spec.trainWarmup = 20.0;
  spec.seed = 1234;
  spec.fault.type = faults::FaultType::kCpuHog;
  spec.fault.node = 2;
  spec.fault.startTime = 60.0;
  return spec;
}

faults::MonitoringFaultSpec crashCollectors(NodeId node, double start,
                                            double end = kNoTime) {
  faults::MonitoringFaultSpec mf;
  mf.kind = faults::MonitoringFaultKind::kCrash;
  mf.node = node;
  mf.startTime = start;
  mf.endTime = end;
  return mf;
}

void expectIdenticalSeries(const analysis::AlarmSeries& a,
                           const analysis::AlarmSeries& b,
                           const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << label << " alarm " << i;
    EXPECT_EQ(a[i].flags, b[i].flags) << label << " alarm " << i;
    EXPECT_EQ(a[i].scores, b[i].scores) << label << " alarm " << i;
    EXPECT_EQ(a[i].health, b[i].health) << label << " alarm " << i;
  }
}

// A collector outage on a *healthy* node (slave4's daemons crash at
// t=70) must neither hide the real CPU hog on slave2 nor smear a fault
// alarm onto the unmonitorable node.
TEST(Robustness, LocalizesFaultDespiteCollectorOutage) {
  ExperimentSpec spec = smallSpec();
  // At 4 slaves the white-box deviations are smaller than at the
  // paper's 16; lower k so detection has margin with 3 survivors.
  spec.pipeline.wbK = 1.5;
  spec.monitoringFaults.push_back(crashCollectors(4, 70.0));
  const analysis::BlackBoxModel model = trainModel(spec);
  const ExperimentResult result = runExperiment(spec, model);

  ASSERT_FALSE(result.blackBox.empty());
  ASSERT_FALSE(result.whiteBox.empty());

  // The analyses still fingerpoint slave2 (index 1) even with only 3
  // of 4 collectors answering (quorum holds: 3 >= 3).
  bool flaggedFaulty = false;
  for (const auto* series : {&result.blackBox, &result.whiteBox}) {
    for (const auto& rec : *series) {
      ASSERT_EQ(rec.flags.size(), 4u);
      if (rec.time >= spec.fault.startTime && rec.flags[1] != 0.0) {
        flaggedFaulty = true;
      }
    }
  }
  EXPECT_TRUE(flaggedFaulty);

  // The white-box analysis stays clean on the healthy survivors
  // (black-box is allowed its usual transient false positives).
  for (const auto& rec : result.whiteBox) {
    EXPECT_EQ(rec.flags[0], 0.0) << "at " << rec.time;
    EXPECT_EQ(rec.flags[2], 0.0) << "at " << rec.time;
  }

  // After the outage settles, slave4 (index 3) is reported as
  // unmonitorable (health code 2) and is never fault-flagged — "we
  // can't see it" is not "it is faulty".
  int unmonitorableWindows = 0;
  for (const auto* series : {&result.blackBox, &result.whiteBox}) {
    for (const auto& rec : *series) {
      if (rec.time < 80.0) continue;
      ASSERT_EQ(rec.health.size(), 4u);
      EXPECT_EQ(rec.flags[3], 0.0) << "at " << rec.time;
      EXPECT_EQ(rec.health[3], 2.0) << "at " << rec.time;
      ++unmonitorableWindows;
    }
  }
  EXPECT_GT(unmonitorableWindows, 0);

  // Both analyses announced the degradation, naming the node.
  bool sawEvent = false;
  for (const auto& event : result.monitoringEvents) {
    if (event.unmonitorable == std::vector<std::string>{"slave4"}) {
      sawEvent = true;
      EXPECT_FALSE(event.belowQuorum);
      EXPECT_EQ(event.survivors, 3);
      EXPECT_GE(event.time, 70.0);
    }
  }
  EXPECT_TRUE(sawEvent);

  // The retry/breaker machinery actually engaged.
  EXPECT_GT(result.rpcRounds, 0);
  EXPECT_GT(result.rpcFailedRounds, 0);
  EXPECT_GT(result.rpcBreakerOpens, 0);
  EXPECT_GT(result.rpcFastFails, 0);
}

// Crashing the collectors of 2 of 4 nodes drops the survivor count
// below the quorum of 3: alarms are suppressed (a median over 2 peers
// is guesswork) and a below-quorum event is raised.
TEST(Robustness, BelowQuorumSuppressesAlarms) {
  ExperimentSpec spec = smallSpec();
  // Same detection margin as above: without suppression the CPU hog
  // *would* keep flagging slave2, so the all-zero check is meaningful.
  spec.pipeline.wbK = 1.5;
  spec.monitoringFaults.push_back(crashCollectors(3, 70.0));
  spec.monitoringFaults.push_back(crashCollectors(4, 70.0));
  const analysis::BlackBoxModel model = trainModel(spec);
  const ExperimentResult result = runExperiment(spec, model);

  // Once both outages are visible to the analysis windows, every flag
  // is zero — including the genuinely faulty slave2.
  int suppressedWindows = 0;
  for (const auto* series : {&result.blackBox, &result.whiteBox}) {
    for (const auto& rec : *series) {
      if (rec.time < 85.0) continue;
      for (std::size_t i = 0; i < rec.flags.size(); ++i) {
        EXPECT_EQ(rec.flags[i], 0.0)
            << "node " << i << " at " << rec.time;
      }
      ++suppressedWindows;
    }
  }
  EXPECT_GT(suppressedWindows, 0);

  bool sawBelowQuorum = false;
  for (const auto& event : result.monitoringEvents) {
    if (event.belowQuorum) {
      sawBelowQuorum = true;
      EXPECT_LT(event.survivors, event.quorum);
    }
  }
  EXPECT_TRUE(sawBelowQuorum);
}

// The robustness machinery must not perturb determinism: with a
// monitoring fault injected (including a recovery, so breaker probes
// and re-closure are exercised) the alarm series, health codes,
// monitoring events, and per-node RPC attempt schedules are
// bit-identical across repeated serial runs and a 4-thread pool run.
TEST(Robustness, DeterministicAcrossExecutorsUnderMonitoringFaults) {
  ExperimentSpec spec = smallSpec();
  // PacketLoss doubles as a monitoring-plane stressor (loss-coupled
  // retries draw from the per-node RNG streams).
  spec.fault.type = faults::FaultType::kPacketLoss;
  spec.monitoringFaults.push_back(crashCollectors(4, 70.0, 100.0));
  const analysis::BlackBoxModel model = trainModel(spec);

  spec.threads = 1;
  const ExperimentResult serial1 = runExperiment(spec, model);
  const ExperimentResult serial2 = runExperiment(spec, model);
  spec.threads = 4;
  const ExperimentResult pooled = runExperiment(spec, model);

  EXPECT_FALSE(serial1.blackBox.empty());
  EXPECT_GT(serial1.rpcRetries + serial1.rpcFailedRounds, 0);

  for (const ExperimentResult* other : {&serial2, &pooled}) {
    expectIdenticalSeries(serial1.blackBox, other->blackBox, "black-box");
    expectIdenticalSeries(serial1.whiteBox, other->whiteBox, "white-box");

    EXPECT_EQ(serial1.rpcRounds, other->rpcRounds);
    EXPECT_EQ(serial1.rpcRetries, other->rpcRetries);
    EXPECT_EQ(serial1.rpcFailedRounds, other->rpcFailedRounds);
    EXPECT_EQ(serial1.rpcFastFails, other->rpcFastFails);
    EXPECT_EQ(serial1.rpcBreakerOpens, other->rpcBreakerOpens);

    ASSERT_EQ(serial1.monitoringEvents.size(),
              other->monitoringEvents.size());
    for (std::size_t i = 0; i < serial1.monitoringEvents.size(); ++i) {
      const auto& a = serial1.monitoringEvents[i];
      const auto& b = other->monitoringEvents[i];
      EXPECT_EQ(a.time, b.time) << i;
      EXPECT_EQ(a.channel, b.channel) << i;
      EXPECT_EQ(a.survivors, b.survivors) << i;
      EXPECT_EQ(a.quorum, b.quorum) << i;
      EXPECT_EQ(a.belowQuorum, b.belowQuorum) << i;
      EXPECT_EQ(a.unmonitorable, b.unmonitorable) << i;
    }

    // The full virtual retry timetable matches, node by node.
    ASSERT_EQ(serial1.rpcAttemptTimes.size(),
              other->rpcAttemptTimes.size());
    for (const auto& [node, times] : serial1.rpcAttemptTimes) {
      const auto it = other->rpcAttemptTimes.find(node);
      ASSERT_NE(it, other->rpcAttemptTimes.end()) << node;
      EXPECT_EQ(times, it->second) << "node " << node;
    }
  }
}

// Opting into the fault-tolerant layer on a healthy cluster is free:
// with no monitoring faults and no packet loss the alarms are
// byte-identical to the legacy infallible collection path.
TEST(Robustness, FaultTolerantPathMatchesLegacyWhenHealthy) {
  ExperimentSpec spec = smallSpec();
  const analysis::BlackBoxModel model = trainModel(spec);

  spec.faultTolerantRpc = false;
  const ExperimentResult legacy = runExperiment(spec, model);
  spec.faultTolerantRpc = true;
  const ExperimentResult ft = runExperiment(spec, model);

  EXPECT_FALSE(legacy.blackBox.empty());
  expectIdenticalSeries(legacy.blackBox, ft.blackBox, "black-box");
  expectIdenticalSeries(legacy.whiteBox, ft.whiteBox, "white-box");
  EXPECT_EQ(ft.rpcRetries, 0);
  EXPECT_EQ(ft.rpcFailedRounds, 0);
  EXPECT_TRUE(ft.monitoringEvents.empty());
}

// Every sim run collects through the RpcClient; faultTolerantRpc only
// decides whether the Table 2 PacketLoss fault also fails monitoring
// RPC attempts. Without it the lossy node's rounds all succeed first
// time (and log no attempts); with it they retry.
TEST(Robustness, PacketLossFailsRpcAttemptsOnlyWhenFaultTolerant) {
  ExperimentSpec spec = smallSpec();
  spec.fault.type = faults::FaultType::kPacketLoss;
  const analysis::BlackBoxModel model = trainModel(spec);

  const ExperimentResult plain = runExperiment(spec, model);
  EXPECT_GT(plain.rpcRounds, 0);
  EXPECT_EQ(plain.rpcRetries, 0);
  EXPECT_EQ(plain.rpcFailedRounds, 0);
  for (const auto& [node, times] : plain.rpcAttemptTimes) {
    EXPECT_TRUE(times.empty()) << "node " << node;
  }

  spec.faultTolerantRpc = true;
  const ExperimentResult ft = runExperiment(spec, model);
  EXPECT_GT(ft.rpcRetries, 0);
  EXPECT_FALSE(ft.rpcAttemptTimes.at(spec.fault.node).empty());
}

// The node_health module publishes the per-node health timeline, and
// the generated pipeline can record it through a csv_sink.
TEST(Robustness, NodeHealthTimelineRecordedToCsv) {
  ExperimentSpec spec = smallSpec();
  spec.duration = 60.0;
  spec.fault.type = faults::FaultType::kNone;
  spec.monitoringFaults.push_back(crashCollectors(3, 30.0));
  spec.pipeline.nodeHealth = true;
  spec.pipeline.nodeHealthCsv =
      ::testing::TempDir() + "asdf_node_health.csv";
  std::remove(spec.pipeline.nodeHealthCsv.c_str());

  const analysis::BlackBoxModel model = trainModel(spec);
  const ExperimentResult result = runExperiment(spec, model);
  EXPECT_GT(result.rpcFailedRounds, 0);

  std::FILE* f = std::fopen(spec.pipeline.nodeHealthCsv.c_str(), "r");
  ASSERT_NE(f, nullptr) << spec.pipeline.nodeHealthCsv;
  int lines = 0;
  bool sawUnmonitorable = false;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    ++lines;
    // Row format: time,origin,port,code0..codeN — look for an
    // unmonitorable code (2) among the values.
    const std::string line(buf);
    std::size_t pos = 0;
    for (int commas = 0; pos < line.size() && commas < 3; ++pos) {
      if (line[pos] == ',') ++commas;
    }
    if (pos < line.size() && line.find('2', pos) != std::string::npos) {
      sawUnmonitorable = true;
    }
  }
  std::fclose(f);
  EXPECT_GT(lines, 30);           // roughly one row per second
  EXPECT_TRUE(sawUnmonitorable);  // the outage shows up in the timeline
  std::remove(spec.pipeline.nodeHealthCsv.c_str());
}

}  // namespace
}  // namespace asdf::harness
