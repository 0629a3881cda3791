// The aggregation tier's live processes (DESIGN.md §12).
//
// AggregatorNode is the heart of asdf_aggd: one region's collection
// and reduce stages. It runs the buildAggregatorConfig() pipeline —
// per-leaf collection chains feeding one agg_bb and one agg_wb — on a
// RealTimeDriver against the region's leaf asdf_rpcd daemons, and
// re-serves the published GroupSummary windows upward through a
// net::AggServer on the same CRC-framed protocol.
//
// runTieredLiveExperiment() is the root: it fetches summaries from
// every aggregator, aligns windows across regions by virtual time,
// and judges them with the same PeerJudge the sim analysis and merge
// modules use (modules/peer_judge.h): one quorum rule, one merge
// kernel, one MonitoringEvent stream. An aggregator that stops answering is
// marked down after a failure streak and its whole region merges as
// unmonitorable — degraded analysis, not a crash — but down is
// transient: the root keeps probing (redials are backoff-gated in
// FramedClient, never a hot loop) and re-admits the region when the
// daemon answers again, resuming its summary cursor from the freshest
// published window (DESIGN.md §13 rejoin state machine).
#pragma once

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.h"
#include "rpc/summary.h"

namespace asdf {
namespace net {
class AggServer;
class FanoutCollector;
}  // namespace net
namespace core {
class FptCore;
class RealTimeDriver;
}  // namespace core
namespace archive {
class ArchiveWriter;
}  // namespace archive
}  // namespace asdf

namespace asdf::harness {

struct AggregatorOptions {
  /// The whole experiment's spec: total slave count, seed, window
  /// geometry, rpc policy, realtimeScale, duration — shared by every
  /// tier so the schedules line up. archiveDir, when set, flight-
  /// records this aggregator's collection rounds (the per-tier tap).
  ExperimentSpec base;
  /// The region: monitored nodes [firstNode, firstNode + groupSize).
  int firstNode = 1;
  int groupSize = 0;
  /// Leaf asdf_rpcd endpoints ("host:port"): one per node, or fewer
  /// shared ones (see net::FanoutCollector routing).
  std::vector<std::string> leafEndpoints;
  std::uint16_t port = 0;  // summary serving port (0 = ephemeral)
  /// Idle-connection reaping on the summary server (0 = never).
  double idleTimeoutSeconds = 0.0;
  /// Network-plane shards on the summary server (--shards; see
  /// net::ShardGroup). 1 = the classic single loop.
  int shards = 1;
};

class AggregatorNode {
 public:
  /// Connects to every leaf (throws NetError when one is unreachable).
  /// The model must be the same one every other tier trained — same
  /// base seed, same derivations (trainModel()).
  AggregatorNode(const AggregatorOptions& opts,
                 const analysis::BlackBoxModel& model);
  ~AggregatorNode();
  AggregatorNode(const AggregatorNode&) = delete;
  AggregatorNode& operator=(const AggregatorNode&) = delete;

  std::uint16_t port() const;
  const rpc::SummaryBoard& board() const { return board_; }

  /// Pumps the pipeline for base.duration virtual seconds while
  /// serving summary fetches; keeps serving after the pipeline
  /// finishes until stop() or a kShutdown frame. Blocks.
  void run();
  /// Thread-safe; makes run() return.
  void stop();

 private:
  struct Impl;
  rpc::SummaryBoard board_;
  std::unique_ptr<Impl> impl_;
};

/// The root of a live tiered deployment: merges summaries fetched
/// from spec.aggEndpoints (one per tierGroupsFor(spec) entry) into
/// the same alarms, monitoring events and per-tier Table 4 channel
/// reports runExperiment() produces. Dispatched by runExperiment()
/// when transport == kLive && tiered.
ExperimentResult runTieredLiveExperiment(const ExperimentSpec& spec);

}  // namespace asdf::harness
