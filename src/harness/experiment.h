// End-to-end experiment runner.
//
// Reproduces the paper's experimental procedure (Section 4.7-4.9):
//
//   1. Train: run the GridMix workload fault-free and collect sadc
//      vectors from every slave; fit the black-box model (per-metric
//      log-sigmas + k-means centroids) offline.
//   2. Run: fresh cluster + GridMix + the full ASDF deployment
//      (fpt-core configured from generated text, sadc_rpcd and
//      hadoop_log_rpcd per slave), with one fault injected on one
//      slave mid-run. Alarms stream out of the print sinks.
//   3. Evaluate: balanced accuracy, false-positive rate, and
//      fingerpointing latency per approach (black-box, white-box,
//      combined), plus the monitoring-cost numbers for Tables 3/4.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/bbmodel.h"
#include "analysis/evaluation.h"
#include "core/environment.h"
#include "faults/faults.h"
#include "faults/monitoring_faults.h"
#include "faults/scenarios.h"
#include "harness/pipelines.h"
#include "rpc/rpc_client.h"
#include "topology/topology.h"

namespace asdf::harness {

/// How the collection plane reaches the monitored cluster. Every mode
/// fetches through an rpc::RpcClient; they differ in the collector
/// behind it.
///   kSim    — in-process RpcHub daemons on the simulated clock (the
///             default; byte-identical to the pre-live-transport runs).
///   kLive   — real framed-TCP sockets to an asdf_rpcd daemon; module
///             cadence is driven by a RealTimeDriver against wall time.
///   kReplay — an ArchiveCollector serving recorded rounds from
///             `archiveDir`; the pipeline runs on the sim clock and
///             reproduces the recording run's alarms byte-identically.
enum class TransportMode : int { kSim = 0, kLive = 1, kReplay = 2 };

struct ExperimentSpec {
  int slaves = 16;
  double duration = 1800.0;       // seconds of monitored run
  double trainDuration = 600.0;   // seconds of fault-free training run
  double trainWarmup = 90.0;      // discarded at the start of training
  std::uint64_t seed = 42;
  int centroids = 8;              // k for k-means
  int threads = 1;                // fpt-core executor width (1 = serial)

  faults::FaultSpec fault;        // type kNone = fault-free run
  PipelineParams pipeline;

  /// Rack fabric of the simulated cluster (DESIGN.md §16). The default
  /// single-rack spec reproduces the flat pre-topology cluster
  /// byte-for-byte on the same seed.
  topology::TopologySpec topology;
  /// Correlated-fault scenario (cls kNone = none). Sim transport only;
  /// mutually exclusive with `fault`.
  faults::ScenarioSpec scenario;

  /// When >= 0, the GridMix mix flips at this time (workload change).
  double mixChangeTime = -1.0;

  /// Every run fetches through the RpcClient (timeout/retry/breaker,
  /// health registry, degraded analysis); this flag selects no code
  /// path. Its one effect is on sim runs: the Table 2 PacketLoss fault
  /// also fails monitoring RPC attempts (P = lossRate ^
  /// rpcPolicy.lossFailureExponent) only when it is set or
  /// monitoringFaults is non-empty. Off by default, so a lossy NIC
  /// leaves the paper's infallible collection untouched.
  bool faultTolerantRpc = false;
  rpc::RpcPolicy rpcPolicy;
  std::vector<faults::MonitoringFaultSpec> monitoringFaults;

  /// Live transport (transport == kLive): connect to asdf_rpcd at
  /// liveHost:livePort and pump the pipeline with a RealTimeDriver
  /// advancing `realtimeScale` virtual seconds per wall second. The
  /// daemon must be serving the same slaves/seed/fault so the recorded
  /// ground truth applies. Sim-mode runs ignore these fields.
  TransportMode transport = TransportMode::kSim;
  std::string liveHost = "127.0.0.1";
  std::uint16_t livePort = 4588;
  double realtimeScale = 1.0;

  /// Flight recorder. In sim/live modes a non-empty directory records
  /// every collection round there (the --record flag); in replay mode
  /// it names the archive to play back. Empty disables recording.
  std::string archiveDir;
  std::size_t archiveSegmentBytes = 8u << 20;  // recorder rotation size

  /// Aggregation-tier topology (DESIGN.md §12), orthogonal to
  /// `transport`. When `tiered` is set the analysis pipeline splits
  /// into per-group reduce (agg_bb/agg_wb) and root merge stages;
  /// alarms stay byte-identical to the flat topology on the same
  /// seed. Groups cover the slaves in ascending contiguous ranges:
  /// `tierGroups` gives explicit sizes, otherwise the slaves split
  /// evenly across `aggregators` regions (0 = ~sqrt(slaves)).
  bool tiered = false;
  int aggregators = 0;
  std::vector<int> tierGroups;
  /// Live tiered runs (transport == kLive && tiered): the root fetches
  /// summaries from these aggregator endpoints ("host:port", one per
  /// group, same order as the topology) instead of contacting leaf
  /// daemons itself.
  std::vector<std::string> aggEndpoints;
};

/// The group sizes a spec's topology resolves to: explicit tierGroups
/// win; a tiered spec on a multi-rack topology with no explicit groups
/// and no aggregator count maps racks to aggregation groups; otherwise
/// the slaves split evenly across the aggregator count.
std::vector<int> tierGroupsFor(const ExperimentSpec& spec);

/// Validates a spec's cross-field invariants before a run: slave
/// count, rack layout (via ClusterLayout), explicit tier groups that
/// must cover every slave exactly, and scenario requirements (sim
/// transport, no simultaneous single-node fault, class constraints via
/// validateScenario). Throws ConfigError. trainModel/runExperiment
/// call this; examples may call it early for friendlier errors.
void validateSpec(const ExperimentSpec& spec);

struct RpcChannelReport {
  std::string name;
  /// 1 = leaf collection traffic, 2 = aggregator->root summary
  /// traffic. Tiered runs report Table 4 bandwidth per tier.
  int tier = 1;
  long connects = 0;
  long calls = 0;
  long failedCalls = 0;  // attempts that timed out / were refused
  double staticOverheadKb = 0.0;   // per node
  double perIterationKbPerSec = 0.0;  // per node
};

struct ExperimentResult {
  analysis::AlarmSeries blackBox;
  analysis::AlarmSeries whiteBox;
  analysis::GroundTruth truth;
  double simulatedSeconds = 0.0;

  /// Deterministic scenario event log (scenario runs only): two runs
  /// of one spec produce identical logs.
  std::vector<faults::ScenarioEvent> scenarioEvents;

  // Monitoring cost (Table 3).
  double sadcRpcdCpuPct = 0.0;      // per node, % of one core
  double hadoopLogRpcdCpuPct = 0.0; // per node
  double straceRpcdCpuPct = 0.0;    // per node
  double fptCoreCpuPct = 0.0;       // control node
  double sadcRpcdMemMb = 0.0;
  double hadoopLogRpcdMemMb = 0.0;
  double straceRpcdMemMb = 0.0;
  double fptCoreMemMb = 0.0;

  // Bandwidth (Table 4).
  std::vector<RpcChannelReport> rpcChannels;

  // Monitoring-plane robustness (RpcClient counters, every transport).
  long rpcRounds = 0;
  long rpcRetries = 0;
  long rpcFailedRounds = 0;
  long rpcFastFails = 0;       // rounds rejected by an open breaker
  long rpcBreakerOpens = 0;
  /// Degradation transitions from the analysis modules, sorted by
  /// (time, channel) for deterministic cross-executor comparison.
  std::vector<core::MonitoringEvent> monitoringEvents;
  /// Per-node RPC attempt issue times (virtual seconds), for the
  /// deterministic backoff-schedule tests. Only rounds that retried or
  /// failed contribute, so a healthy run leaves every list empty.
  std::map<NodeId, std::vector<double>> rpcAttemptTimes;

  // Cluster health (sanity).
  long jobsSubmitted = 0;
  long jobsCompleted = 0;
  long tasksCompleted = 0;
  long tasksFailed = 0;
  long speculativeLaunches = 0;
  long syncDroppedSeconds = 0;
};

/// Per-approach evaluation of one experiment.
struct ApproachSummary {
  analysis::EvalResult eval;
  double latencySeconds = -1.0;
};

struct ExperimentSummary {
  ApproachSummary blackBox;
  ApproachSummary whiteBox;
  ApproachSummary combined;
};

/// Step 1: trains the black-box model on a fault-free run.
analysis::BlackBoxModel trainModel(const ExperimentSpec& spec);

/// Steps 2: runs the monitored experiment with the given model.
ExperimentResult runExperiment(const ExperimentSpec& spec,
                               const analysis::BlackBoxModel& model);

/// Step 3: evaluates recorded alarms against the ground truth.
ExperimentSummary summarize(const ExperimentResult& result);

/// Re-evaluates at different thresholds using recorded scores
/// (offline sweeps for Figures 6a/6b).
ApproachSummary summarizeAtThreshold(const analysis::AlarmSeries& series,
                                     const analysis::GroundTruth& truth,
                                     double threshold);

}  // namespace asdf::harness
