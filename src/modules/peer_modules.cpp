// The peer-comparison module types: [analysis_bb] / [analysis_wb]
// (the paper's black-box and white-box fingerpointers, Sections 4.5
// and 4.4) and their aggregation-tier split, [agg_bb] / [agg_wb] plus
// [analysis_bb_merge] / [analysis_wb_merge] (DESIGN.md §12).
//
// All six are built from two parts:
//
//   reducer — binds the per-node inputs, reads each node's monitoring
//     health from the "rpc_client" service (everyone is healthy
//     without one), and reduces a window into a GroupSummary: the
//     survivor rows plus their sorted per-component median partials
//     (analysis/partials.h). Black-box rows are StateVectors — the
//     per-window histograms of 1-NN state indices; white-box rows are
//     per-metric window means, with a second partial over the window
//     standard deviations.
//
//   judge — the quorum rule, merge and MonitoringEvents over a set of
//     summaries (modules/peer_judge.h).
//
//   [agg_*]           = reducer, then pack/publish the summary upward
//   [analysis_*_merge] = unpack one summary per aggregator, then judge
//   [analysis_*]      = reducer, then judge the one in-memory summary:
//                       flat analysis is the single-group case of the
//                       tiered split, with no pack/unpack in between
//
// Black-box units run only on fresh inputs (one per lockstep ibuffer
// window); white-box units run on data presence alone, the trigger
// count pacing one run per window.
//
// Parameters ([analysis_bb], [analysis_bb_merge]):
//   threshold = <L1 distance threshold>  (default 60)
//   window, slide = accepted for configuration compatibility (Figure
//                   3); the upstream ibuffers own the window
// Parameters ([analysis_wb], [analysis_wb_merge]):
//   k = <threshold multiplier>  (default 3); a node is flagged when
//       some metric's |mean - median| exceeds max(1, k * sigma_median)
// Both analysis kinds also take
//   quorum = <min surviving peers for valid alarms>
//            (default 0 = majority: N/2 + 1, at least 3)
//
// Inputs:  [analysis_bb], [agg_bb]: l0..l(N-1) — one ibuffer window of
//          1-NN state indices per node
//          [analysis_wb], [agg_wb]: a0..a(N-1) / d0..d(N-1) — per-node
//          window means / standard deviations (from mavgvec)
//          [analysis_*_merge]: s0..s(A-1) — one packed GroupSummary per
//          aggregator, whose origins are the group's ';'-joined node
//          labels in ascending global order
// Outputs: [analysis_*], [analysis_*_merge]: alarms — 0/1 per node;
//          scores — L1 distances (bb, Figure 6a) or critical k (wb,
//          Figure 6b); health — per-node monitoring health code (0/1/2;
//          an unmonitorable node reads flag 0, meaning "don't know")
//          [agg_*]: summary — the packed GroupSummary
//
// The [agg_*] types optionally account their upward traffic on the
// "transports" registry (channels bb-summary-tcp / wb-summary-tcp,
// tier 2) and publish each window on a "summary_board" for the live
// aggregator's serving loop.
#include <string>
#include <vector>

#include "analysis/bbmodel.h"
#include "analysis/partials.h"
#include "analysis/peercompare.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/module.h"
#include "modules/modules.h"
#include "modules/peer_judge.h"
#include "rpc/rpc_client.h"
#include "rpc/summary.h"
#include "rpc/transport.h"

namespace asdf::modules {
namespace {

struct KindTraits {
  const char* flatType;
  const char* aggType;
  const char* mergeType;
  rpc::Daemon healthChannel;
  const char* summaryTransport;
};

constexpr KindTraits kTraits[] = {
    {"analysis_bb", "agg_bb", "analysis_bb_merge", rpc::Daemon::kSadc,
     "bb-summary-tcp"},
    {"analysis_wb", "agg_wb", "analysis_wb_merge", rpc::Daemon::kHadoopLog,
     "wb-summary-tcp"},
};

const KindTraits& traits(PeerKind kind) {
  return kTraits[static_cast<int>(kind)];
}

double readThreshold(core::ModuleContext& ctx, PeerKind kind) {
  if (kind == PeerKind::kWhiteBox) return ctx.numParam("k", 3.0);
  const double threshold = ctx.numParam("threshold", 60.0);
  (void)ctx.intParam("window", 60);
  (void)ctx.intParam("slide", 5);
  return threshold;
}

/// The per-kind run gate over a set of single-connection inputs.
bool inputsReady(const core::ModuleContext& ctx,
                 const std::vector<std::string>& names, bool requireFresh) {
  for (const auto& name : names) {
    if (!ctx.inputHasData(name, 0)) return false;
    if (requireFresh && !ctx.inputFresh(name, 0)) return false;
  }
  return true;
}

void requireSingleBinding(core::ModuleContext& ctx, const std::string& name) {
  if (ctx.inputWidth(name) != 1) {
    throw ConfigError("[" + ctx.instanceId() + "] input '" + name +
                      "' must bind exactly one output");
  }
}

class PeerReducer {
 public:
  /// Binds l0.. (black-box) or a0../d0.. (white-box); fewer than
  /// `minNodes` node inputs is a configuration error.
  void init(core::ModuleContext& ctx, PeerKind kind, const char* type,
            std::size_t minNodes) {
    kind_ = kind;
    type_ = type;
    client_ = ctx.env().get<rpc::RpcClient>("rpc_client");
    if (kind == PeerKind::kBlackBox) {
      numStates_ =
          ctx.env().require<analysis::BlackBoxModel>("bb_model").states();
    }
    for (int i = 0;; ++i) {
      if (kind == PeerKind::kBlackBox) {
        const std::string name = strformat("l%d", i);
        if (ctx.inputWidth(name) == 0) break;
        requireSingleBinding(ctx, name);
        inputs_.push_back(name);
        continue;
      }
      const std::string meanName = strformat("a%d", i);
      const std::string devName = strformat("d%d", i);
      const std::size_t meanWidth = ctx.inputWidth(meanName);
      const std::size_t devWidth = ctx.inputWidth(devName);
      if (meanWidth == 0 && devWidth == 0) break;
      if (meanWidth != 1 || devWidth != 1) {
        throw ConfigError("[" + ctx.instanceId() + "] inputs '" + meanName +
                          "'/'" + devName +
                          "' must each bind exactly one output");
      }
      inputs_.push_back(meanName);
      devInputs_.push_back(devName);
    }
    if (inputs_.size() < minNodes) {
      throw ConfigError(
          "[" + ctx.instanceId() + "] " + type_ +
          (minNodes > 1 ? strformat(" needs at least %zu node inputs "
                                    "(median peer comparison)",
                                    minNodes)
                        : std::string(" needs at least one node input")));
    }
    for (const auto& name : inputs_) {
      const std::string& origin = ctx.inputOrigin(name, 0);
      if (!origins_.empty()) origins_ += ";";
      origins_ += origin;
      labels_.push_back(origin);
      nodeIds_.push_back(rpc::nodeIdFromOrigin(origin));
    }
    ctx.setInputTrigger(static_cast<int>(inputs_.size() + devInputs_.size()));
  }

  bool ready(const core::ModuleContext& ctx) const {
    return inputsReady(ctx, inputs_, kind_ == PeerKind::kBlackBox) &&
           inputsReady(ctx, devInputs_, false);
  }

  /// Reduces the current window into `out`.
  void reduce(core::ModuleContext& ctx, analysis::GroupSummary& out) {
    const std::size_t n = inputs_.size();
    out.time = ctx.now();
    out.members = n;
    out.hasDev = kind_ == PeerKind::kWhiteBox;
    out.health.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      rpc::NodeHealth h = rpc::NodeHealth::kHealthy;
      if (client_ != nullptr && nodeIds_[i] != kInvalidNode) {
        h = client_->health().channelHealth(nodeIds_[i],
                                            traits(kind_).healthChannel);
      }
      out.health[i] = static_cast<double>(h);
    }

    // Survivor rows are copied out of the producers' shared buffers;
    // unmonitorable members contribute nothing but their health code.
    if (kind_ == PeerKind::kBlackBox) {
      histogramRows(ctx, out);
    } else {
      meanRows(ctx, out);
    }
    out.dims = out.rows.cols();

    rowPtrs_.clear();
    for (std::size_t j = 0; j < out.rows.rows(); ++j) {
      rowPtrs_.push_back(out.rows.row(j));
    }
    analysis::reduceMedianPartial(rowPtrs_.data(), rowPtrs_.size(), out.dims,
                                  out.median);
    if (out.hasDev) {
      analysis::reduceMedianPartial(devRows_.data(), devRows_.size(),
                                    out.dims, out.devMedian);
    } else {
      out.devMedian.clear();
    }
  }

  const std::string& origins() const { return origins_; }
  const std::vector<std::string>& labels() const { return labels_; }

 private:
  // Black-box rows: each survivor's StateVector.
  void histogramRows(core::ModuleContext& ctx, analysis::GroupSummary& out) {
    out.rows.resizeRows(0, numStates_);
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const core::Sample& sample = ctx.input(inputs_[i], 0);
      if (!core::isVector(sample.value)) {
        throw ConfigError(type_ + " expects array inputs");
      }
      if (out.health[i] == 2.0) continue;
      const auto& window = core::asVector(sample.value);
      const std::size_t j = out.rows.rows();
      out.rows.resizeRows(j + 1, numStates_);
      analysis::stateHistogramInto(window.data(), window.size(),
                                   out.rows.row(j), numStates_);
    }
  }

  // White-box rows: each survivor's window means; devRows_ views the
  // survivors' stddev rows in place.
  void meanRows(core::ModuleContext& ctx, analysis::GroupSummary& out) {
    devRows_.clear();
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const core::Sample& m = ctx.input(inputs_[i], 0);
      const core::Sample& d = ctx.input(devInputs_[i], 0);
      if (!core::isVector(m.value) || !core::isVector(d.value)) {
        throw ConfigError(type_ + " expects vector inputs");
      }
      const auto& mean = core::asVector(m.value);
      const auto& dev = core::asVector(d.value);
      if (i == 0) out.rows.resizeRows(0, mean.size());
      if (mean.size() != out.rows.cols() || dev.size() != out.rows.cols()) {
        throw ConfigError(type_ + " input dimension mismatch");
      }
      if (out.health[i] == 2.0) continue;
      out.rows.push_back(mean.data(), mean.size());
      devRows_.push_back(dev.data());
    }
  }

  PeerKind kind_ = PeerKind::kBlackBox;
  std::string type_;
  std::size_t numStates_ = 0;
  rpc::RpcClient* client_ = nullptr;
  std::vector<std::string> inputs_;     // l* (bb) or a* (wb)
  std::vector<std::string> devInputs_;  // d* (wb only)
  std::string origins_;
  std::vector<std::string> labels_;
  std::vector<NodeId> nodeIds_;
  // Reused per-window workspace: zero steady-state allocations.
  std::vector<const double*> rowPtrs_;
  std::vector<const double*> devRows_;
};

/// The judge, configured from the threshold/k and quorum parameters,
/// plus the alarms/scores/health outputs it fills.
class JudgedOutputs {
 public:
  void init(core::ModuleContext& ctx, PeerKind kind,
            std::vector<std::string> labels, const std::string& origins) {
    const double threshold = readThreshold(ctx, kind);
    judge_ = PeerJudge(kind, threshold,
                       static_cast<int>(ctx.intParam("quorum", 0)),
                       std::move(labels));
    outAlarms_ = ctx.addOutput("alarms", origins);
    outScores_ = ctx.addOutput("scores", origins);
    outHealth_ = ctx.addOutput("health", origins);
  }

  void publish(core::ModuleContext& ctx,
               const analysis::GroupSummary* const* groups,
               std::size_t ngroups) {
    const std::size_t n = judge_.nodes();
    std::vector<double>& flags = flagsBuilder_.acquire();
    std::vector<double>& scores = scoresBuilder_.acquire();
    std::vector<double>& health = healthBuilder_.acquire();
    flags.resize(n);
    scores.resize(n);
    health.resize(n);
    const core::MonitoringEvent* event =
        judge_.judge(groups, ngroups, ctx.now(), ctx.instanceId(),
                     flags.data(), scores.data(), health.data());
    if (event != nullptr && ctx.env().monitoringSink) {
      ctx.env().monitoringSink(*event);
    }
    ctx.write(outAlarms_, flagsBuilder_.share());
    ctx.write(outScores_, scoresBuilder_.share());
    ctx.write(outHealth_, healthBuilder_.share());
  }

 private:
  PeerJudge judge_;
  core::VecBuilder flagsBuilder_;
  core::VecBuilder scoresBuilder_;
  core::VecBuilder healthBuilder_;
  int outAlarms_ = -1;
  int outScores_ = -1;
  int outHealth_ = -1;
};

/// [analysis_bb] / [analysis_wb]: reducer + judge over one summary.
class AnalysisModule final : public core::Module {
 public:
  explicit AnalysisModule(PeerKind kind) : kind_(kind) {}

  void init(core::ModuleContext& ctx) override {
    reducer_.init(ctx, kind_, traits(kind_).flatType, 3);
    outputs_.init(ctx, kind_, reducer_.labels(), reducer_.origins());
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    if (!reducer_.ready(ctx)) return;
    reducer_.reduce(ctx, summary_);
    const analysis::GroupSummary* group = &summary_;
    outputs_.publish(ctx, &group, 1);
  }

 private:
  PeerKind kind_;
  PeerReducer reducer_;
  analysis::GroupSummary summary_;
  JudgedOutputs outputs_;
};

/// [agg_bb] / [agg_wb]: reducer + pack/publish. Judging is the root's
/// job — a group is too small a population to judge deviation against.
class AggModule final : public core::Module {
 public:
  explicit AggModule(PeerKind kind) : kind_(kind) {}

  void init(core::ModuleContext& ctx) override {
    board_ = ctx.env().get<rpc::SummaryBoard>("summary_board");
    reducer_.init(ctx, kind_, traits(kind_).aggType, 1);
    outSummary_ = ctx.addOutput("summary", reducer_.origins());
    if (auto* transports =
            ctx.env().get<rpc::TransportRegistry>("transports")) {
      channel_ = &transports->channel(traits(kind_).summaryTransport);
      channel_->setTier(2);
      channel_->recordConnect();  // one upward connection per group
    }
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    if (!reducer_.ready(ctx)) return;
    reducer_.reduce(ctx, summary_);
    std::vector<double>& packed = packedBuilder_.acquire();
    summary_.pack(packed);
    if (channel_ != nullptr) {
      channel_->recordCall(rpc::kSummaryRequestBytes,
                           rpc::summaryWindowWireBytes(packed.size()));
    }
    if (board_ != nullptr) {
      board_->append(static_cast<rpc::SummaryChannel>(kind_), ctx.now(),
                     packed);
    }
    ctx.write(outSummary_, packedBuilder_.share());
  }

 private:
  PeerKind kind_;
  PeerReducer reducer_;
  rpc::SummaryBoard* board_ = nullptr;
  rpc::RpcChannelStats* channel_ = nullptr;
  analysis::GroupSummary summary_;
  core::VecBuilder packedBuilder_;
  int outSummary_ = -1;
};

/// [analysis_bb_merge] / [analysis_wb_merge]: unpack + judge. The
/// quorum counts the total node count across groups, and a group whose
/// aggregator has gone dark arrives as all-unmonitorable.
class MergeModule final : public core::Module {
 public:
  explicit MergeModule(PeerKind kind) : kind_(kind) {}

  void init(core::ModuleContext& ctx) override {
    type_ = traits(kind_).mergeType;
    for (int i = 0;; ++i) {
      const std::string name = strformat("s%d", i);
      if (ctx.inputWidth(name) == 0) break;
      requireSingleBinding(ctx, name);
      inputs_.push_back(name);
    }
    if (inputs_.empty()) {
      throw ConfigError("[" + ctx.instanceId() + "] " + type_ +
                        " needs at least one summary input");
    }
    // Each summary input's origin is the group's joined labels; the
    // concatenation recovers the flat module's per-node origin order.
    std::string origins;
    std::vector<std::string> labels;
    for (const auto& name : inputs_) {
      const std::string& origin = ctx.inputOrigin(name, 0);
      if (!origins.empty()) origins += ";";
      origins += origin;
      const std::vector<std::string> group = split(origin, ';');
      groupSizes_.push_back(group.size());
      labels.insert(labels.end(), group.begin(), group.end());
    }
    if (labels.size() < 3) {
      throw ConfigError("[" + ctx.instanceId() + "] " + type_ +
                        " needs at least 3 nodes across its groups "
                        "(median peer comparison)");
    }
    outputs_.init(ctx, kind_, std::move(labels), origins);
    ctx.setInputTrigger(static_cast<int>(inputs_.size()));
    summaries_.resize(inputs_.size());
    groups_.resize(inputs_.size());
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    if (!inputsReady(ctx, inputs_, kind_ == PeerKind::kBlackBox)) return;
    for (std::size_t g = 0; g < inputs_.size(); ++g) {
      const core::Sample& sample = ctx.input(inputs_[g], 0);
      if (!core::isVector(sample.value)) {
        throw ConfigError(type_ + " expects packed summary inputs");
      }
      const auto& packed = core::asVector(sample.value);
      analysis::GroupSummary& s = summaries_[g];
      if (!s.unpack(packed.data(), packed.size()) ||
          s.members != groupSizes_[g] ||
          (kind_ == PeerKind::kWhiteBox && !s.hasDev)) {
        throw ConfigError(type_ + ": malformed group summary on '" +
                          inputs_[g] + "'");
      }
      groups_[g] = &s;
    }
    outputs_.publish(ctx, groups_.data(), groups_.size());
  }

 private:
  PeerKind kind_;
  std::string type_;
  std::vector<std::string> inputs_;
  std::vector<std::size_t> groupSizes_;
  // Reused per-window workspace: zero steady-state allocations.
  std::vector<analysis::GroupSummary> summaries_;
  std::vector<const analysis::GroupSummary*> groups_;
  JudgedOutputs outputs_;
};

}  // namespace

void registerPeerComparisonModules(core::ModuleRegistry& registry) {
  for (const PeerKind kind : {PeerKind::kBlackBox, PeerKind::kWhiteBox}) {
    registry.registerType(traits(kind).flatType, [kind] {
      return std::make_unique<AnalysisModule>(kind);
    });
    registry.registerType(traits(kind).aggType,
                          [kind] { return std::make_unique<AggModule>(kind); });
    registry.registerType(traits(kind).mergeType, [kind] {
      return std::make_unique<MergeModule>(kind);
    });
  }
}

}  // namespace asdf::modules
