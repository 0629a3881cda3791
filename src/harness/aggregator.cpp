#include "harness/aggregator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <limits>

#include "analysis/partials.h"
#include "archive/writer.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/fpt_core.h"
#include "core/realtime.h"
#include "modules/modules.h"
#include "modules/peer_judge.h"
#include "net/agg_client.h"
#include "net/agg_server.h"
#include "net/fanout_collector.h"
#include "rpc/rpc_client.h"
#include "sim/engine.h"

namespace asdf::harness {
namespace {

std::unique_ptr<archive::ArchiveWriter> makeAggRecorder(
    const AggregatorOptions& opts) {
  if (opts.base.archiveDir.empty()) return nullptr;
  archive::ArchiveWriterOptions wopts;
  wopts.dir = opts.base.archiveDir;
  wopts.maxSegmentBytes = opts.base.archiveSegmentBytes;
  archive::ArchiveMeta meta;
  meta.seed = opts.base.seed;
  meta.slaves = opts.base.slaves;
  meta.source = "agg";
  meta.duration = opts.base.duration;
  meta.trainDuration = opts.base.trainDuration;
  meta.trainWarmup = opts.base.trainWarmup;
  meta.centroids = opts.base.centroids;
  meta.faultType = static_cast<std::uint32_t>(opts.base.fault.type);
  meta.faultNode = opts.base.fault.node;
  meta.faultStart = opts.base.fault.startTime;
  meta.faultEnd = opts.base.fault.endTime;
  meta.mixChangeTime = opts.base.mixChangeTime;
  return std::make_unique<archive::ArchiveWriter>(std::move(wopts),
                                                  std::move(meta));
}

net::AggServerOptions serverOptionsFor(const AggregatorOptions& opts,
                                       const rpc::SummaryBoard& board) {
  net::AggServerOptions sopts;
  sopts.port = opts.port;
  sopts.groupSize = opts.groupSize;
  sopts.seed = opts.base.seed;
  sopts.board = &board;
  sopts.idleTimeoutSeconds = opts.idleTimeoutSeconds;
  sopts.shards = opts.shards;
  return sopts;
}

}  // namespace

struct AggregatorNode::Impl {
  Impl(const AggregatorOptions& o, const analysis::BlackBoxModel& model,
       rpc::SummaryBoard& board)
      : opts(o),
        collector(o.leafEndpoints, o.firstNode,
                  o.base.rpcPolicy.timeoutSeconds,
                  o.base.seed * 2654435761ULL + 131),
        client(collector, o.base.rpcPolicy, o.base.seed * 2654435761ULL + 97),
        recorder(makeAggRecorder(o)),
        driver(engine, o.base.realtimeScale),
        server(serverOptionsFor(o, board)),
        fpt(engine, makeEnv(model, board)) {
    if (recorder != nullptr) client.setObserver(recorder.get());
    fpt.setExecutor(core::makeExecutor(o.base.threads));
    PipelineParams pipeline = o.base.pipeline;
    pipeline.slaves = o.base.slaves;
    fpt.configureFromText(
        buildAggregatorConfig(pipeline, o.firstNode, o.groupSize));
  }

  // The environment is copied into FptCore at construction, so every
  // service must be registered here, before the fpt member initializes.
  core::Environment makeEnv(const analysis::BlackBoxModel& model,
                            rpc::SummaryBoard& board) {
    core::Environment env;
    env.provide("bb_model", const_cast<analysis::BlackBoxModel*>(&model));
    env.provide("hl_sync", &sync);
    env.provide("rpc_client", &client);
    env.provide("node_health", &client.health());
    env.provide("summary_board", &board);
    env.provide("transports", &client.transports());
    return env;
  }

  AggregatorOptions opts;
  net::FanoutCollector collector;
  rpc::RpcClient client;
  std::unique_ptr<archive::ArchiveWriter> recorder;
  sim::SimEngine engine;
  modules::HadoopLogSync sync;
  core::RealTimeDriver driver;
  net::AggServer server;
  core::FptCore fpt;
  std::thread pumpThread;
};

AggregatorNode::AggregatorNode(const AggregatorOptions& opts,
                               const analysis::BlackBoxModel& model) {
  if (opts.groupSize < 1) {
    throw ConfigError("aggregator: group size must be >= 1");
  }
  if (opts.leafEndpoints.empty()) {
    throw ConfigError("aggregator: at least one leaf endpoint required");
  }
  impl_ = std::make_unique<Impl>(opts, model, board_);
}

AggregatorNode::~AggregatorNode() {
  if (impl_ == nullptr) return;
  impl_->driver.stop();
  if (impl_->pumpThread.joinable()) impl_->pumpThread.join();
}

std::uint16_t AggregatorNode::port() const { return impl_->server.port(); }

void AggregatorNode::run() {
  impl_->pumpThread = std::thread([this] {
    impl_->driver.run(impl_->opts.base.duration /
                      impl_->opts.base.realtimeScale);
  });
  impl_->server.run();
  impl_->driver.stop();
  if (impl_->pumpThread.joinable()) impl_->pumpThread.join();
  if (impl_->recorder != nullptr) impl_->recorder->close();
}

void AggregatorNode::stop() {
  impl_->driver.stop();
  impl_->server.stop();
}

namespace {

/// Root-side state for one aggregator region. Down is transient
/// (DESIGN.md §13): kUp --3 failed polls--> kDown --any successful
/// fetch--> kRejoining --fresh window on every channel--> kUp. Down
/// and rejoining regions merge as synthetic all-unmonitorable and
/// never gate the other regions' rounds; an up region with an empty
/// queue is merely awaited.
struct RootGroup {
  enum class State { kUp, kDown, kRejoining };

  std::unique_ptr<net::AggClient> client;
  int size = 0;
  /// Fetch watermark and undelivered windows, per summary channel.
  double since[rpc::kSummaryChannelCount] = {0.0, 0.0};
  std::deque<analysis::GroupSummary> queue[rpc::kSummaryChannelCount];
  bool connected[rpc::kSummaryChannelCount] = {false, false};
  int failStreak = 0;
  State state = State::kUp;
  /// Per-channel: a post-rejoin window has been queued (cursor moved).
  bool fresh[rpc::kSummaryChannelCount] = {false, false};
  long rejoins = 0;

  /// Whether this region's next window must exist before a round on
  /// channel `c` may merge.
  bool gates(int c) const {
    return state == State::kUp || (state == State::kRejoining && fresh[c]);
  }
};

void sortEvents(std::vector<core::MonitoringEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const core::MonitoringEvent& a,
                      const core::MonitoringEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.channel < b.channel;
                   });
}

}  // namespace

ExperimentResult runTieredLiveExperiment(const ExperimentSpec& spec) {
  const std::vector<int> groups = tierGroupsFor(spec);
  int totalNodes = 0;
  for (const int g : groups) totalNodes += g;
  if (totalNodes != spec.slaves) {
    throw ConfigError(
        strformat("tiered live: tier groups cover %d slaves, expected %d",
                  totalNodes, spec.slaves));
  }
  if (totalNodes < 3) {
    throw ConfigError("tiered live: need at least 3 nodes across groups");
  }
  if (spec.aggEndpoints.size() != groups.size()) {
    throw ConfigError(strformat(
        "tiered live: %zu aggregator endpoints for %zu groups "
        "(need exactly one per group, in topology order)",
        spec.aggEndpoints.size(), groups.size()));
  }
  // Per-node labels matching the generated configuration's origins
  // (sadc/hadoop_log emit "slave<node>"), so MonitoringEvents name the
  // same nodes a sim tiered run would.
  std::vector<std::string> labels(static_cast<std::size_t>(totalNodes));
  for (int i = 0; i < totalNodes; ++i) {
    labels[static_cast<std::size_t>(i)] = strformat("slave%d", i + 1);
  }

  std::vector<RootGroup> regions(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::string host;
    std::uint16_t port = 0;
    net::parseEndpoint(spec.aggEndpoints[g], host, port);
    net::AggClient::Options copts;
    copts.host = host;
    copts.port = port;
    copts.timeoutSeconds = spec.rpcPolicy.timeoutSeconds;
    copts.backoffSeed = spec.seed * 2654435761ULL + 1000003ULL * (g + 1);
    regions[g].client = std::make_unique<net::AggClient>(copts);
    regions[g].size = groups[g];
  }

  // Tier-2 Table 4 accounting: same channel names and per-window byte
  // charges as the sim agg modules, so both topologies report the same
  // summary bandwidth.
  rpc::TransportRegistry transports;
  rpc::RpcChannelStats* chan[rpc::kSummaryChannelCount];
  chan[0] = &transports.channel("bb-summary-tcp");
  chan[1] = &transports.channel("wb-summary-tcp");
  chan[0]->setTier(2);
  chan[1]->setTier(2);

  ExperimentResult result;
  // One judge per summary channel, named like the flat instances so
  // MonitoringEvents match a sim run's.
  const std::string channelIds[rpc::kSummaryChannelCount] = {"analysis_bb",
                                                              "analysis_wb"};
  modules::PeerJudge judges[rpc::kSummaryChannelCount] = {
      modules::PeerJudge(modules::PeerKind::kBlackBox,
                         spec.pipeline.bbThreshold, spec.pipeline.quorum,
                         labels),
      modules::PeerJudge(modules::PeerKind::kWhiteBox, spec.pipeline.wbK,
                         spec.pipeline.quorum, labels)};
  std::vector<analysis::GroupSummary> synth(groups.size());
  std::vector<const analysis::GroupSummary*> ptrs(groups.size());
  std::vector<char> fromQueue(groups.size());

  // Merges every window that is ready on channel `c`. Windows pair by
  // ORDINAL across regions, not by timestamp: each region's log-sync
  // barrier drops the seconds its own group skipped, so regional
  // white-box grids drift a second or two around hiccups the flat
  // global barrier would have applied to everyone (DESIGN.md §12). The
  // k-th window from every region still covers the same slide of the
  // same workload; the global window time is the slowest region's —
  // when the flat barrier would have released it. A round is ready
  // when every gating region (see RootGroup::gates) has its next
  // window queued; a down or still-rejoining region with a drained
  // backlog joins as an all-unmonitorable synthetic summary — exactly
  // the shape a live aggregator publishes when all its leaves are
  // down — so quorum gating and degraded analysis follow the flat
  // semantics, and a down region never stalls the others' rounds.
  auto processChannel = [&](int c) {
    for (;;) {
      double t = 0.0;
      bool any = false;
      bool allLiveReady = true;
      for (const RootGroup& region : regions) {
        if (!region.queue[c].empty()) {
          any = true;
          t = std::max(t, region.queue[c].front().time);
        } else if (region.gates(c)) {
          allLiveReady = false;
        }
      }
      if (!any || !allLiveReady) return;

      std::size_t dims = 0;
      for (std::size_t g = 0; g < regions.size(); ++g) {
        RootGroup& region = regions[g];
        if (!region.queue[c].empty()) {
          ptrs[g] = &region.queue[c].front();
          fromQueue[g] = 1;
          dims = region.queue[c].front().dims;
        } else {
          fromQueue[g] = 0;
        }
      }
      for (std::size_t g = 0; g < regions.size(); ++g) {
        if (fromQueue[g]) continue;
        analysis::GroupSummary& s = synth[g];
        s.time = t;
        s.members = static_cast<std::size_t>(regions[g].size);
        s.dims = dims;
        s.hasDev = c == static_cast<int>(rpc::SummaryChannel::kWhiteBox);
        s.health.assign(s.members, 2.0);
        s.rows.clearRows();
        s.median.clear();
        s.median.dims = dims;
        s.devMedian.clear();
        s.devMedian.dims = dims;
        ptrs[g] = &s;
      }

      analysis::AlarmRecord record;
      record.time = t;
      record.flags.resize(static_cast<std::size_t>(totalNodes));
      record.scores.resize(static_cast<std::size_t>(totalNodes));
      record.health.resize(static_cast<std::size_t>(totalNodes));
      if (const core::MonitoringEvent* event = judges[c].judge(
              ptrs.data(), ptrs.size(), t, channelIds[c],
              record.flags.data(), record.scores.data(),
              record.health.data())) {
        result.monitoringEvents.push_back(*event);
      }
      if (c == static_cast<int>(rpc::SummaryChannel::kBlackBox)) {
        result.blackBox.push_back(std::move(record));
      } else {
        result.whiteBox.push_back(std::move(record));
      }

      for (std::size_t g = 0; g < regions.size(); ++g) {
        if (fromQueue[g]) regions[g].queue[c].pop_front();
      }
    }
  };

  const double wallDuration = spec.duration / spec.realtimeScale;
  const double pollSeconds =
      std::max(0.05, spec.pipeline.windowSlide / spec.realtimeScale / 4.0);
  const double graceSeconds = std::max(2.0, 20.0 * pollSeconds);
  const auto start = std::chrono::steady_clock::now();
  int quietPolls = 0;
  std::vector<rpc::SummaryWindow> windows;
  for (;;) {
    bool anyNew = false;
    for (RootGroup& region : regions) {
      bool anySuccess = false;
      for (int c = 0; c < rpc::kSummaryChannelCount; ++c) {
        std::size_t responseBytes = 0;
        if (region.client->fetchSummary(static_cast<rpc::SummaryChannel>(c),
                                        region.since[c], windows,
                                        responseBytes)) {
          anySuccess = true;
          if (!region.connected[c]) {
            chan[c]->recordConnect();
            region.connected[c] = true;
          }
          chan[c]->recordCall(rpc::kSummaryRequestBytes, responseBytes);
          if (region.state == RootGroup::State::kDown) {
            // Liveness probe only — the cursor resets below; windows
            // fetched against the stale watermark are not queued.
            continue;
          }
          if (region.state == RootGroup::State::kRejoining &&
              !region.fresh[c] && !windows.empty()) {
            // Cursor catch-up: a restarted daemon's virtual clock (and
            // so its window grid) restarted from zero, so the backlog
            // it republished is stale history — resume from the
            // freshest window only and track its grid from there.
            analysis::GroupSummary summary;
            const rpc::SummaryWindow& w = windows.back();
            if (summary.unpack(w.packed.data(), w.packed.size()) &&
                summary.members == static_cast<std::size_t>(region.size)) {
              region.queue[c].push_back(std::move(summary));
              region.fresh[c] = true;
              anyNew = true;
            }
            region.since[c] = w.time;
            continue;
          }
          for (const rpc::SummaryWindow& w : windows) {
            analysis::GroupSummary summary;
            if (!summary.unpack(w.packed.data(), w.packed.size()) ||
                summary.members != static_cast<std::size_t>(region.size)) {
              logWarn("tiered live: dropping malformed summary window");
              continue;
            }
            region.queue[c].push_back(std::move(summary));
            anyNew = true;
          }
          if (!windows.empty()) region.since[c] = windows.back().time;
        } else {
          chan[c]->recordFailedCall(rpc::kSummaryRequestBytes);
        }
      }
      if (anySuccess) {
        region.failStreak = 0;
        if (region.state == RootGroup::State::kDown) {
          region.state = RootGroup::State::kRejoining;
          for (int c = 0; c < rpc::kSummaryChannelCount; ++c) {
            region.fresh[c] = false;
            region.queue[c].clear();
            region.since[c] = 0.0;
          }
          ++region.rejoins;
          logWarn("tiered live: aggregator answering again, region of " +
                  std::to_string(region.size) + " nodes rejoining");
        }
        if (region.state == RootGroup::State::kRejoining) {
          bool allFresh = true;
          for (int c = 0; c < rpc::kSummaryChannelCount; ++c) {
            if (!region.fresh[c]) allFresh = false;
          }
          if (allFresh) {
            region.state = RootGroup::State::kUp;
            logWarn("tiered live: region of " + std::to_string(region.size) +
                    " nodes re-admitted (fresh windows on every channel)");
          }
        }
      } else if (region.state != RootGroup::State::kDown &&
                 ++region.failStreak >= 3) {
        region.state = RootGroup::State::kDown;
        logWarn("tiered live: aggregator unresponsive, region of " +
                std::to_string(region.size) +
                " nodes merges as unmonitorable until it rejoins");
      }
    }

    for (int c = 0; c < rpc::kSummaryChannelCount; ++c) {
      processChannel(c);
    }

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (elapsed >= wallDuration) {
      // Past the nominal end: drain until the aggregators go quiet (a
      // few empty polls) or the grace budget runs out.
      quietPolls = anyNew ? 0 : quietPolls + 1;
      if (quietPolls >= 3 || elapsed >= wallDuration + graceSeconds) break;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(pollSeconds));
  }
  // No separate flush: a window some live region never delivered is a
  // shutdown-timing artifact, not a monitorable signal, and stays
  // unmerged. (Down regions were synthesized round by round above.)

  sortEvents(result.monitoringEvents);

  // Ground truth comes from the spec, like the flat live path: the
  // caller started the leaf daemons with the same fault parameters.
  result.truth.slaveIndex =
      spec.fault.type == faults::FaultType::kNone ? -1 : spec.fault.node - 1;
  result.truth.faultStart = spec.fault.startTime;
  result.truth.faultEnd = spec.fault.endTime;
  result.simulatedSeconds = spec.duration;

  // Table 4, tier 2. (Tier-1 collection traffic and Table 3 daemon
  // costs accrue inside the aggregator processes, not here.)
  for (const rpc::RpcChannelStats* ch : transports.channels()) {
    if (ch->calls() == 0 && ch->failedCalls() == 0) continue;
    RpcChannelReport report;
    report.name = ch->name();
    report.tier = ch->tier();
    report.connects = ch->connects();
    report.calls = ch->calls();
    report.failedCalls = ch->failedCalls();
    report.staticOverheadKb =
        ch->connects() == 0
            ? 0.0
            : ch->staticOverheadBytes() / ch->connects() / 1024.0;
    report.perIterationKbPerSec =
        ch->totalCallBytes() / spec.slaves / spec.duration / 1024.0;
    result.rpcChannels.push_back(report);
  }
  return result;
}

}  // namespace asdf::harness
