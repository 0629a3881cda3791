// The per-node collection daemons: sadc_rpcd and hadoop_log_rpcd.
//
// Exactly as in the paper (Section 4.3), each monitored slave runs two
// daemons that the ASDF control node polls over RPC: sadc_rpcd wraps
// libsadc and returns the current OS metric snapshot; hadoop_log_rpcd
// wraps the log-parser library and returns the per-second Hadoop state
// vectors derived from the TaskTracker and DataNode logs.
//
// Every fetch round-trips its payload through the wire codec (bytes
// recorded per channel for Table 4), charges the host node a sliver of
// CPU and network (the monitoring perturbation the paper measures in
// Table 3), and accumulates the time this process spent executing
// daemon code, which the Table 3 bench reports. A fetch lasts
// microseconds on one thread, so it is metered as monotonic busy time
// (CpuMeter::BusyScope): equal to its on-CPU time unless the thread is
// preempted mid-fetch, and without the syscall pair a thread-CPU read
// costs, which would exceed the fetch itself.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/cputime.h"
#include "common/types.h"
#include "hadoop/cluster.h"
#include "hadooplog/parser.h"
#include "metrics/os_model.h"
#include "rpc/transport.h"

namespace asdf::rpc {

class SadcDaemon {
 public:
  SadcDaemon(hadoop::Node& node, TransportRegistry& transports);

  /// One collection iteration: serialize the node's current snapshot,
  /// account the bytes, decode and return it.
  metrics::SadcSnapshot fetch();

  double cpuSeconds() const { return cpu_.seconds(); }
  std::size_t memoryFootprintBytes() const;
  long calls() const { return calls_; }

 private:
  hadoop::Node& node_;
  RpcChannelStats& channel_;
  CpuMeter cpu_;
  long calls_ = 0;
};

class HadoopLogDaemon {
 public:
  /// `attachTime` anchors the parsers' clocks (zero vectors are
  /// reported for quiet seconds from that point on).
  HadoopLogDaemon(hadoop::Node& node, TransportRegistry& transports,
                  SimTime attachTime);

  /// Parses any new TaskTracker log lines and returns the finalized
  /// per-second TaskTracker state vectors.
  std::vector<hadooplog::StateSample> fetchTt(SimTime watermark);

  /// Same for the DataNode log.
  std::vector<hadooplog::StateSample> fetchDn(SimTime watermark);

  double cpuSeconds() const { return cpu_.seconds(); }
  std::size_t memoryFootprintBytes() const;
  long calls() const { return calls_; }

 private:
  std::vector<hadooplog::StateSample> roundTrip(
      RpcChannelStats& channel,
      const std::vector<hadooplog::StateSample>& samples);

  hadoop::Node& node_;
  RpcChannelStats& ttChannel_;
  RpcChannelStats& dnChannel_;
  hadooplog::TtLogParser ttParser_;
  hadooplog::DnLogParser dnParser_;
  std::size_t ttCursor_ = 0;
  std::size_t dnCursor_ = 0;
  CpuMeter cpu_;
  long calls_ = 0;
};

/// strace_rpcd (Section 5 extension): ships the node's per-second
/// syscall trace to the control node.
class StraceDaemon {
 public:
  StraceDaemon(hadoop::Node& node, TransportRegistry& transports);

  /// Returns the most recent tick's syscall trace.
  syscalls::TraceSecond fetch();

  double cpuSeconds() const { return cpu_.seconds(); }
  std::size_t memoryFootprintBytes() const;
  long calls() const { return calls_; }

 private:
  hadoop::Node& node_;
  RpcChannelStats& channel_;
  CpuMeter cpu_;
  long calls_ = 0;
};

/// One hub per monitored cluster: owns the per-node daemons, like the
/// boot-time daemon start-up the paper requires on all monitored nodes.
class RpcHub {
 public:
  RpcHub(hadoop::Cluster& cluster, SimTime attachTime);

  SadcDaemon& sadc(NodeId node);
  HadoopLogDaemon& hadoopLog(NodeId node);
  StraceDaemon& strace(NodeId node);
  TransportRegistry& transports() { return transports_; }

  /// Aggregate daemon CPU seconds (Table 3), summed in node-id order.
  double sadcCpuSeconds() const;
  double hadoopLogCpuSeconds() const;
  double straceCpuSeconds() const;
  std::size_t sadcMemoryBytes() const;
  std::size_t hadoopLogMemoryBytes() const;
  std::size_t straceMemoryBytes() const;

 private:
  /// One node's three daemons, kept together.
  struct NodeDaemons {
    NodeDaemons(hadoop::Node& node, TransportRegistry& transports,
                SimTime attachTime);
    SadcDaemon sadc;
    HadoopLogDaemon hadoopLog;
    StraceDaemon strace;
  };

  /// Throws std::out_of_range for a node without daemons.
  NodeDaemons& daemonsOf(NodeId node);

  template <typename Fn>
  auto sum(Fn field) const {
    decltype(field(std::declval<const NodeDaemons&>())) total{};
    for (const auto& d : daemons_) {
      if (d != nullptr) total += field(*d);
    }
    return total;
  }

  TransportRegistry transports_;
  /// Indexed by NodeId (slave ids are dense from 1); null slots hold no
  /// daemons (the master, id 0).
  std::vector<std::unique_ptr<NodeDaemons>> daemons_;
};

}  // namespace asdf::rpc
