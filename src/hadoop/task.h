// Map and reduce task attempts: per-tick resource consumption, phase
// state machines, log emission, and the fault hooks through which the
// Table 2 application bugs manifest.
//
// Map attempt:    READ input block -> COMPUTE -> SPILL map output
// Reduce attempt: COPY (shuffle)   -> SORT    -> REDUCE+write output
//
// Each phase registers demands on the relevant nodes' resources (two-
// phase: request, then advance on the grants), so contention — from
// peers, from fault hogs, from a lossy NIC — slows tasks exactly the
// way the paper's injected problems slow real Hadoop tasks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "hadoop/config.h"
#include "hadoop/hdfs.h"
#include "hadoop/job.h"
#include "hadoop/node.h"

namespace asdf::hadoop {

/// Access a TaskAttempt needs to the rest of the cluster.
class ClusterView {
 public:
  virtual ~ClusterView() = default;
  virtual Node& node(NodeId id) = 0;
  virtual NameNode& nameNode() = 0;
  virtual const HadoopParams& params() const = 0;
  virtual Rng& rng() = 0;
  virtual int slaveCount() const = 0;
};

enum class TaskOutcome { kRunning, kCompleted, kFailed };

class TaskAttempt {
 public:
  TaskAttempt(ClusterView& cluster, Job& job, bool isMap, int taskIndex,
              int attemptSerial, Node& host);
  ~TaskAttempt();

  TaskAttempt(const TaskAttempt&) = delete;
  TaskAttempt& operator=(const TaskAttempt&) = delete;

  const std::string& attemptId() const { return id_; }
  bool isMap() const { return isMap_; }
  int taskIndex() const { return taskIndex_; }
  Job& job() { return job_; }
  Node& host() { return host_; }
  SimTime startTime() const { return startTime_; }
  double runtime(SimTime now) const { return now - startTime_; }

  /// Emits LaunchTaskAction and enters the first phase.
  void start(SimTime now);

  /// Phase 1 of a tick: register demands.
  void requestResources(SimTime now);

  /// Phase 2 of a tick: consume grants, advance, emit logs.
  /// Returns kCompleted / kFailed exactly once.
  TaskOutcome advance(SimTime now, double dt);

  /// Speculative-execution loser: logs KillTaskAction and closes any
  /// open block-transfer log states.
  void kill(SimTime now);

  /// Rough completion fraction, for progress lines and tests.
  double progressFraction() const;

  /// True once a fault hook froze this attempt (it will never finish).
  bool hung() const { return hung_; }

  /// Bytes this reduce attempt has copied from `source`'s map output.
  double fetchedFrom(NodeId source) const {
    const auto i = static_cast<std::size_t>(source);
    return i < fetched_.size() ? fetched_[i] : 0.0;
  }

 private:
  enum class Phase {
    kMapRead,
    kMapCompute,
    kMapSpill,
    kReduceCopy,
    kReduceSort,
    kReduceWrite,
    kDone,
  };

  void enterPhase(Phase phase, SimTime now);
  const char* reducePhaseName() const;
  void maybeLogProgress(SimTime now);
  void closeOpenReadLog(SimTime now);

  // Per-phase helpers.
  void requestMapRead();
  void requestCpuWork(double maxCores);
  void requestDiskWrite(Node& node, double remaining, int& handle);

  ClusterView& cluster_;
  Job& job_;
  bool isMap_;
  int taskIndex_;
  std::string id_;
  Node& host_;
  Phase phase_ = Phase::kMapRead;
  SimTime startTime_ = 0.0;
  SimTime phaseStart_ = 0.0;
  SimTime lastProgressLog_ = -1.0e9;
  bool hung_ = false;

  // Map state.
  Node* readSource_ = nullptr;  // replica being read (may be host)
  bool readLogOpen_ = false;
  std::unique_ptr<BlockTransfer> readTransfer_;
  double cpuRemaining_ = 0.0;
  double cpuTotal_ = 0.0;
  double spillRemaining_ = 0.0;
  double spillTotal_ = 0.0;
  int hCpu_ = -1;
  int hSpillDisk_ = -1;

  // Reduce shuffle state.
  struct FetchStream {
    NodeId source = kInvalidNode;
    int hSrcDisk = -1;
    int hSrcNic = -1;
    int hDstNic = -1;
    int hSrcCpu = -1;  // the server's checksum CPU
    topology::UplinkFlow flow;  // cross-rack uplink share (inert if same rack)
    double requested = 0.0;
  };
  std::vector<double> fetched_;  // bytes fetched, indexed by source NodeId
  double fetchedTotal_ = 0.0;
  std::vector<FetchStream> streams_;  // this tick's active fetches
  int nextSourceRotation_ = 0;
  SimTime lastCopyFailLog_ = -1.0e9;

  // Reduce sort/write state.
  double sortRemaining_ = 0.0;
  double sortTotal_ = 0.0;
  int hSortRead_ = -1;
  int hSortWrite_ = -1;
  double writeRemaining_ = 0.0;
  double writeTotal_ = 0.0;
  NodeId replica2_ = kInvalidNode;
  NodeId replica3_ = kInvalidNode;
  int hWriteDiskLocal_ = -1;
  int hWriteNicTx_ = -1;
  int hWriteR2Rx_ = -1;
  int hWriteR2Disk_ = -1;
  int hWriteR2Tx_ = -1;
  int hWriteR3Rx_ = -1;
  int hWriteR3Disk_ = -1;
  topology::UplinkFlow writeFlow2_;  // host -> r2 pipeline hop
  topology::UplinkFlow writeFlow3_;  // r2 -> r3 pipeline hop
  double writtenSinceBlockStart_ = 0.0;
  long currentOutBlock_ = -1;
  bool requestedThisTick_ = false;
};

}  // namespace asdf::hadoop
