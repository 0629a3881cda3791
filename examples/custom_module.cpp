// Plug-in API demo: a user-defined analysis module.
//
// The paper's central architectural claim is that new data sources and
// analysis techniques can be plugged into fpt-core without touching
// the framework ("ASDF's support for pluggable algorithms can
// accelerate testing and deployment of new analysis algorithms").
// This example defines a custom EWMA-threshold detector, registers it
// under the type name [ewma_detect], wires it into a DAG by
// configuration text, and runs it against a simulated CPU spike.
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "common/strings.h"
#include "core/fpt_core.h"
#include "core/registry.h"
#include "faults/faults.h"
#include "hadoop/cluster.h"
#include "metrics/catalog.h"
#include "modules/modules.h"
#include "rpc/rpc_client.h"
#include "workload/gridmix.h"

namespace {

using namespace asdf;

// A classic single-stream detector: track an exponentially-weighted
// mean/variance of one metric and flag samples more than `nsigma`
// deviations out. Demonstrates the full plug-in API surface: config
// parameters, input verification, output creation, input-triggered
// scheduling, and the alarm sink.
class EwmaDetectModule final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    metricIndex_ = static_cast<std::size_t>(ctx.intParam("metric", 0));
    alpha_ = ctx.numParam("alpha", 0.05);
    nsigma_ = ctx.numParam("nsigma", 4.0);
    warmup_ = ctx.intParam("warmup", 30);
    if (ctx.inputWidth("input") != 1) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] ewma_detect needs exactly one 'input'");
    }
    out_ = ctx.addOutput("alarms", ctx.inputOrigin("input", 0));
    ctx.setInputTrigger(1);
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    if (!ctx.inputFresh("input", 0)) return;
    const auto& vec = core::asVector(ctx.input("input", 0).value);
    if (metricIndex_ >= vec.size()) {
      throw ConfigError("ewma_detect: metric index out of range");
    }
    const double x = vec[metricIndex_];
    ++seen_;
    if (seen_ <= warmup_) {
      mean_ = mean_ + (x - mean_) / seen_;
      var_ += (x - mean_) * (x - mean_) / std::max<long>(1, seen_ - 1);
      return;
    }
    const double sd = std::sqrt(std::max(var_, 1e-9));
    const bool anomalous = std::abs(x - mean_) > nsigma_ * sd;
    mean_ = (1 - alpha_) * mean_ + alpha_ * x;
    var_ = (1 - alpha_) * var_ + alpha_ * (x - mean_) * (x - mean_);
    ctx.write(out_, std::vector<double>{anomalous ? 1.0 : 0.0});
    if (anomalous && ctx.env().alarmSink) {
      core::Alarm alarm;
      alarm.time = ctx.now();
      alarm.channel = ctx.instanceId();
      alarm.flags = {1.0};
      alarm.origins = {ctx.inputOrigin("input", 0)};
      ctx.env().alarmSink(alarm);
    }
  }

 private:
  std::size_t metricIndex_ = 0;
  double alpha_ = 0.05;
  double nsigma_ = 4.0;
  long warmup_ = 30;
  long seen_ = 0;
  double mean_ = 0.0;
  double var_ = 0.0;
  int out_ = -1;
};

}  // namespace

int main() {
  using namespace asdf;
  modules::registerBuiltinModules();
  // One line plugs the custom analysis into the framework.
  core::ModuleRegistry::global().registerType(
      "ewma_detect", [] { return std::make_unique<EwmaDetectModule>(); });

  sim::SimEngine engine;
  hadoop::HadoopParams params;
  params.slaveCount = 3;
  hadoop::Cluster cluster(params, 5150, engine);
  workload::GridMixGenerator gridmix(cluster, {}, 5151);
  cluster.start();
  gridmix.start();
  rpc::RpcHub hub(cluster, 0.0);
  rpc::RpcClient client(cluster, hub, rpc::RpcPolicy{}, 5152);

  core::Environment env;
  env.provide("rpc_client", &client);
  long alarmsOnSlave2 = 0;
  long alarmsElsewhere = 0;
  env.alarmSink = [&](const core::Alarm& alarm) {
    if (!alarm.origins.empty() && alarm.origins[0] == "slave2") {
      ++alarmsOnSlave2;
    } else {
      ++alarmsElsewhere;
    }
  };

  // Monitor cpu_user_pct on every slave with the custom detector.
  std::string config;
  for (int i = 1; i <= 3; ++i) {
    config += strformat("[sadc]\nid = sadc%d\nnode = %d\n\n", i, i);
    config += strformat(
        "[ewma_detect]\nid = det%d\nmetric = %d\nnsigma = 6\nwarmup = 120\n"
        "input[input] = sadc%d.output0\n\n",
        i, metrics::kCpuUserPct, i);
  }
  core::FptCore fpt(engine, env);
  fpt.configureFromText(config);

  // A CPU hog arrives at t=200 on slave 2.
  faults::FaultSpec spec;
  spec.type = faults::FaultType::kCpuHog;
  spec.node = 2;
  spec.startTime = 200.0;
  faults::FaultInjector injector(cluster, spec);
  injector.arm();

  engine.runUntil(400.0);
  std::printf("custom ewma_detect module: %ld alarms on slave2 (culprit), "
              "%ld elsewhere\n",
              alarmsOnSlave2, alarmsElsewhere);
  return alarmsOnSlave2 > 0 ? 0 : 1;
}
