// [sadc] — black-box data collection (Section 3.5).
//
// Parameters:
//   node     = <slave id, 1-based>      (required)
//   interval = <seconds between polls>  (default 1)
//
// Outputs:
//   output0  — the flattened metric vector (64 node + 18 NIC metrics)
//              fetched from the node's sadc_rpcd daemon.
//   health   — monitoring health of the fetch (rpc::NodeHealth code:
//              0 healthy, 1 degraded/retried, 2 unmonitorable).
//
// Fetches go through the environment's "rpc_client" service (required).
// A failed round (daemon crash, hang, partition, packet loss, open
// breaker) does NOT block the pipeline — the module re-emits the last
// known vector (zeros when nothing was ever fetched) tagged health=2,
// so downstream windowing keeps its cadence and the analysis modules
// can exclude the stale stream.
#include "common/error.h"
#include "common/strings.h"
#include "core/module.h"
#include "metrics/sadc.h"
#include "modules/modules.h"
#include "rpc/rpc_client.h"

namespace asdf::modules {

class SadcModule final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    node_ = static_cast<NodeId>(ctx.intParam("node", -1));
    if (node_ < 1) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] sadc requires a 'node' parameter >= 1");
    }
    const double interval = ctx.numParam("interval", 1.0);
    client_ = &ctx.env().require<rpc::RpcClient>("rpc_client");
    out_ = ctx.addOutput("output0", strformat("slave%d", node_));
    healthOut_ = ctx.addOutput("health", strformat("slave%d", node_));
    ctx.requestPeriodic(interval);
    // The daemon charges collection CPU/network to this node's
    // activity counters; collectors for one node must not interleave.
    ctx.requestExclusive(strformat("node%d", node_));
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    rpc::NodeHealth health = rpc::NodeHealth::kUnmonitorable;
    auto fetched = client_->fetchSadc(node_, ctx.now());
    if (fetched.ok) {
      lastKnown_ = metrics::flattenNodeVector(fetched.value);
      health = fetched.retried ? rpc::NodeHealth::kDegraded
                               : rpc::NodeHealth::kHealthy;
    }
    if (lastKnown_.empty()) {
      lastKnown_.assign(metrics::kFlatNodeVectorSize, 0.0);
    }
    // Publish through a pooled buffer: the ~82-metric vector is staged
    // once and shared by every consumer instead of deep-copied per
    // tick (lastKnown_ stays private for fault-tolerant re-emission).
    std::vector<double>& out = builder_.acquire();
    out.assign(lastKnown_.begin(), lastKnown_.end());
    ctx.write(out_, builder_.share());
    ctx.write(healthOut_, core::VecBuf{static_cast<double>(health)});
  }

 private:
  NodeId node_ = kInvalidNode;
  rpc::RpcClient* client_ = nullptr;
  int out_ = -1;
  int healthOut_ = -1;
  std::vector<double> lastKnown_;
  core::VecBuilder builder_;
};

void registerSadcModule(core::ModuleRegistry& registry) {
  registry.registerType("sadc",
                        [] { return std::make_unique<SadcModule>(); });
}

}  // namespace asdf::modules
