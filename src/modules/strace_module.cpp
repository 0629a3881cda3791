// [strace] — syscall-trace data collection + scoring (Section 5).
//
// Polls the node's strace_rpcd every second. During the warmup period
// it trains a first-order Markov model of the node's syscall-category
// transitions; afterwards it scores each second's trace by its average
// negative log-likelihood under the trained model, relative to the
// model's own entropy baseline, scaled so that "clearly off-model"
// lands above the white-box unit floor. The per-node score streams
// compose with the stock mavgvec + analysis_wb modules for peer
// comparison — a new data source plugged in without any new analysis
// code, which is the framework's whole point.
//
// Parameters:
//   node   = <slave id>            (required)
//   warmup = <training seconds>    (default 120)
//   scale  = <score multiplier>    (default 4)
//
// Outputs:
//   output0 — 1-dim vector: scaled |NLL - baseline| for the second
#include "common/error.h"
#include "common/strings.h"
#include "core/module.h"
#include "modules/modules.h"
#include "rpc/rpc_client.h"
#include "syscalls/markov.h"

namespace asdf::modules {

class StraceModule final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    node_ = static_cast<NodeId>(ctx.intParam("node", -1));
    if (node_ < 1) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] strace requires a 'node' parameter >= 1");
    }
    warmup_ = ctx.intParam("warmup", 120);
    scale_ = ctx.numParam("scale", 4.0);
    client_ = &ctx.env().require<rpc::RpcClient>("rpc_client");
    out_ = ctx.addOutput("output0", strformat("slave%d", node_));
    ctx.requestPeriodic(ctx.numParam("interval", 1.0));
    // The daemon charges collection CPU/network to this node's
    // activity counters; collectors for one node must not interleave.
    ctx.requestExclusive(strformat("node%d", node_));
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    auto fetched = client_->fetchStrace(node_, ctx.now());
    if (!fetched.ok) {
      // Keep the stream's cadence for downstream windowing: re-emit the
      // last known score while the daemon is unreachable (no score at
      // all during warmup — there is nothing to train on).
      ++seconds_;
      if (seconds_ > warmup_) {
        ctx.write(out_, core::VecBuf{lastScore_});  // inline, no alloc
      }
      return;
    }
    const syscalls::TraceSecond& trace = fetched.value;
    ++seconds_;
    if (seconds_ <= warmup_) {
      model_.train(trace);
      return;
    }
    // Deviation from the model, weighted by evidence: a near-empty
    // trace (idle node) says little either way, while a full buffer
    // of off-model calls is a strong signal. Without the weight, the
    // handful of calls an idle second produces scores as noisily as a
    // genuine anomaly.
    const double deviation =
        std::abs(model_.negLogLikelihood(trace) - model_.entropyBaseline());
    const double evidence =
        std::min(1.0, static_cast<double>(trace.size()) / 64.0);
    lastScore_ = scale_ * deviation * evidence;
    ctx.write(out_, core::VecBuf{lastScore_});  // inline, no alloc
  }

 private:
  NodeId node_ = kInvalidNode;
  long warmup_ = 120;
  double scale_ = 4.0;
  long seconds_ = 0;
  double lastScore_ = 0.0;
  rpc::RpcClient* client_ = nullptr;
  syscalls::MarkovModel model_;
  int out_ = -1;
};

void registerStraceModule(core::ModuleRegistry& registry) {
  registry.registerType("strace",
                        [] { return std::make_unique<StraceModule>(); });
}

}  // namespace asdf::modules
