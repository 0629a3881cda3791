#include "net/sim_source.h"

namespace asdf::net {

hadoop::HadoopParams SimSource::hadoopParams(
    int slaves, const topology::TopologySpec& topology) {
  hadoop::HadoopParams p;
  p.slaveCount = slaves;
  p.topology = topology;
  return p;
}

workload::GridMixParams SimSource::gridmixParams(double mixChangeTime) {
  workload::GridMixParams g;
  g.mixChangeTime = mixChangeTime;
  return g;
}

SimSource::SimSource(int slaves, const topology::TopologySpec& topology,
                     std::uint64_t seed, double mixChangeTime,
                     const faults::FaultSpec& fault)
    : cluster_(hadoopParams(slaves, topology), seed * 6151 + 3, engine_),
      gridmix_(cluster_, gridmixParams(mixChangeTime), seed * 7411 + 1),
      hub_(cluster_, /*attachTime=*/0.0),
      injector_(cluster_, fault) {
  cluster_.start();
  gridmix_.start();
}

ClusterStatsWire SimSource::stats() {
  ClusterStatsWire stats;
  stats.simNow = engine_.now();
  stats.faultEndedAt = injector_.endedAt();
  stats.sadcCpuSeconds = hub_.sadcCpuSeconds();
  stats.hadoopLogCpuSeconds = hub_.hadoopLogCpuSeconds();
  stats.straceCpuSeconds = hub_.straceCpuSeconds();
  stats.sadcMemoryBytes = static_cast<std::int64_t>(hub_.sadcMemoryBytes());
  stats.hadoopLogMemoryBytes =
      static_cast<std::int64_t>(hub_.hadoopLogMemoryBytes());
  stats.straceMemoryBytes =
      static_cast<std::int64_t>(hub_.straceMemoryBytes());
  hadoop::JobTracker& jt = cluster_.jobTracker();
  stats.jobsSubmitted = jt.jobsSubmitted();
  stats.jobsCompleted = jt.jobsCompleted();
  stats.speculativeLaunches = jt.speculativeLaunches();
  for (int i = 1; i <= cluster_.slaveCount(); ++i) {
    stats.tasksCompleted += cluster_.taskTracker(i).completedTasks();
    stats.tasksFailed += cluster_.taskTracker(i).failedTasks();
  }
  return stats;
}

}  // namespace asdf::net
