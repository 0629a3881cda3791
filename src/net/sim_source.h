// Simulated metric source: one monitored deployment (DESIGN.md §9).
//
// The paper deploys one monitored cluster: sadc_rpcd and
// hadoop_log_rpcd on every node, fpt-core on the control node
// (Section 4.3). SimSource is that cluster on the simulated clock —
// the engine, the Hadoop cluster under its GridMix workload, one
// RpcHub of per-node collection daemons and the fault injector. The
// harness's sim transport, asdf_rpcd --source=sim and asdfd all build
// their cluster here, so the seed derivations live in one place and
// the same (slaves, topology, seed, mixChangeTime, fault) yields the
// same cluster in every one of them. That is what makes a live run
// against asdf_rpcd observe byte-for-byte what an in-process run
// observes.
//
// Construction registers the cluster's and the workload's events but
// leaves the fault unarmed: events at an equal timestamp run in
// registration order, so each caller arms the fault at the point its
// own schedule needs (the harness and asdfd after fpt-core configures,
// asdf_rpcd right away).
#pragma once

#include <cstdint>

#include "faults/faults.h"
#include "hadoop/cluster.h"
#include "net/cluster_stats.h"
#include "rpc/daemons.h"
#include "sim/engine.h"
#include "topology/topology.h"
#include "workload/gridmix.h"

namespace asdf::net {

class SimSource {
 public:
  SimSource(int slaves, const topology::TopologySpec& topology,
            std::uint64_t seed, double mixChangeTime,
            const faults::FaultSpec& fault);
  SimSource(const SimSource&) = delete;
  SimSource& operator=(const SimSource&) = delete;

  /// The cluster and workload parameters a run of `slaves` nodes uses;
  /// also what the black-box model's training cluster is built from.
  static hadoop::HadoopParams hadoopParams(
      int slaves, const topology::TopologySpec& topology);
  static workload::GridMixParams gridmixParams(double mixChangeTime);

  sim::SimEngine& engine() { return engine_; }
  hadoop::Cluster& cluster() { return cluster_; }
  rpc::RpcHub& hub() { return hub_; }

  /// Schedules the fault's activation (and end, when it has one).
  void armFault() { injector_.arm(); }

  /// Runs every event at or before `now`: the order an in-process run
  /// executes them in, where cluster, workload and fault events sort
  /// before a module fetch at an equal timestamp.
  void advanceTo(double now) {
    if (now > engine_.now()) engine_.runUntil(now);
  }

  /// Cluster-side accounting as of the engine's current time: the
  /// daemons' Table 3 costs, the fault's observed end and the
  /// job/task counters (asdf_rpcd serves this as kStats).
  ClusterStatsWire stats();

 private:
  sim::SimEngine engine_;
  hadoop::Cluster cluster_;
  workload::GridMixGenerator gridmix_;
  rpc::RpcHub hub_;
  faults::FaultInjector injector_;
};

}  // namespace asdf::net
