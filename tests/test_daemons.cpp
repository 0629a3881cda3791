#include "rpc/daemons.h"

#include <stdexcept>

#include <gtest/gtest.h>

#include "hadoop/cluster.h"
#include "metrics/catalog.h"
#include "sim/engine.h"

namespace asdf::rpc {
namespace {

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest()
      : cluster_(makeParams(), 21, engine_) {
    cluster_.start();
  }

  static hadoop::HadoopParams makeParams() {
    hadoop::HadoopParams p;
    p.slaveCount = 3;
    return p;
  }

  static hadoop::JobSpec smallJob() {
    hadoop::JobSpec spec;
    spec.inputBytes = 48.0e6;
    spec.numReduces = 2;
    spec.mapOutputRatio = 0.5;
    return spec;
  }

  sim::SimEngine engine_;
  hadoop::Cluster cluster_;
};

TEST_F(DaemonTest, SadcFetchRoundTripsSnapshot) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(5.0);
  const metrics::SadcSnapshot direct = cluster_.node(1).sadcCollect();
  const metrics::SadcSnapshot viaRpc = hub.sadc(1).fetch();
  ASSERT_EQ(viaRpc.node.size(), metrics::kNodeMetricCount);
  ASSERT_EQ(viaRpc.nic.size(), metrics::kNicMetricCount);
  EXPECT_DOUBLE_EQ(viaRpc.time, direct.time);
  for (std::size_t i = 0; i < direct.node.size(); ++i) {
    EXPECT_DOUBLE_EQ(viaRpc.node[i], direct.node[i]) << i;
  }
  EXPECT_EQ(viaRpc.processes.size(), direct.processes.size());
}

TEST_F(DaemonTest, SadcChannelTracksTraffic) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(3.0);
  for (int i = 0; i < 10; ++i) hub.sadc(1).fetch();
  const RpcChannelStats& ch = hub.transports().channel("sadc-tcp");
  EXPECT_EQ(ch.calls(), 10);
  EXPECT_EQ(ch.connects(), 3);  // one per slave at hub construction
  // One sadc snapshot is roughly a kilobyte on the wire (Table 4).
  EXPECT_GT(ch.bytesPerCall(), 500.0);
  EXPECT_LT(ch.bytesPerCall(), 4000.0);
}

TEST_F(DaemonTest, HadoopLogDaemonProducesStateVectors) {
  RpcHub hub(cluster_, 0.0);
  cluster_.jobTracker().submit(smallJob(), 0.0);
  std::size_t ttSamples = 0;
  std::size_t dnSamples = 0;
  for (int t = 1; t <= 120; ++t) {
    engine_.runUntil(t);
    for (const auto& s : hub.hadoopLog(1).fetchTt(t)) {
      EXPECT_EQ(s.counts.size(), hadooplog::kTtStateCount);
      ++ttSamples;
    }
    for (const auto& s : hub.hadoopLog(1).fetchDn(t)) {
      EXPECT_EQ(s.counts.size(), hadooplog::kDnStateCount);
      ++dnSamples;
    }
  }
  // One sample per second, minus the finalization lag.
  EXPECT_GE(ttSamples, 115u);
  EXPECT_GE(dnSamples, 115u);
}

TEST_F(DaemonTest, HadoopLogSamplesAreContiguousSeconds) {
  RpcHub hub(cluster_, 0.0);
  cluster_.jobTracker().submit(smallJob(), 0.0);
  long expected = 0;
  for (int t = 1; t <= 60; ++t) {
    engine_.runUntil(t);
    for (const auto& s : hub.hadoopLog(2).fetchTt(t)) {
      EXPECT_EQ(s.second, expected);
      ++expected;
    }
  }
  EXPECT_GT(expected, 50);
}

TEST_F(DaemonTest, DaemonsMeterTheirCpu) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(5.0);
  for (int i = 0; i < 100; ++i) {
    hub.sadc(1).fetch();
    hub.hadoopLog(1).fetchTt(5.0);
  }
  EXPECT_GT(hub.sadcCpuSeconds(), 0.0);
  EXPECT_GT(hub.hadoopLogCpuSeconds(), 0.0);
  EXPECT_GT(hub.sadcMemoryBytes(), 0u);
  EXPECT_GT(hub.hadoopLogMemoryBytes(), 0u);
}

TEST_F(DaemonTest, HubIndexesDaemonsBySlaveId) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(1.0);
  for (NodeId id = 1; id <= 3; ++id) {
    for (NodeId i = 0; i < id; ++i) hub.sadc(id).fetch();
  }
  for (NodeId id = 1; id <= 3; ++id) {
    EXPECT_EQ(hub.sadc(id).calls(), id);
    EXPECT_EQ(hub.hadoopLog(id).calls(), 0);
    EXPECT_EQ(hub.strace(id).calls(), 0);
  }
  // The master (id 0) runs no daemons, and neither does an unknown id.
  for (NodeId id : {0, 4, -1}) {
    EXPECT_THROW(hub.sadc(id), std::out_of_range) << id;
    EXPECT_THROW(hub.hadoopLog(id), std::out_of_range) << id;
    EXPECT_THROW(hub.strace(id), std::out_of_range) << id;
  }
}

TEST_F(DaemonTest, FetchChargesTheMonitoredNode) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(2.0);
  // Fetch repeatedly within one tick, then close the tick and check
  // that the node recorded monitoring traffic.
  for (int i = 0; i < 50; ++i) hub.sadc(1).fetch();
  cluster_.node(1).endTick(3.0);
  const auto snap = cluster_.node(1).sadcCollect();
  EXPECT_GT(snap.nic[metrics::kNicTxKbPerSec], 10.0);
}

TEST_F(DaemonTest, SeparateChannelsForTtAndDn) {
  RpcHub hub(cluster_, 0.0);
  engine_.runUntil(10.0);
  hub.hadoopLog(1).fetchTt(10.0);
  hub.hadoopLog(1).fetchDn(10.0);
  EXPECT_EQ(hub.transports().channel("hl-tt-tcp").calls(), 1);
  EXPECT_EQ(hub.transports().channel("hl-dn-tcp").calls(), 1);
}

}  // namespace
}  // namespace asdf::rpc
