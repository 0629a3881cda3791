// Quickstart: the smallest complete ASDF deployment.
//
// Builds a 4-slave simulated Hadoop cluster, trains a tiny black-box
// model, writes an fpt-core configuration *file* (the Figure 3 format)
// wiring sadc -> knn -> ibuffer -> analysis_bb -> print, and runs the
// online fingerpointer against a CPU hog for five simulated minutes.
//
//   ./quickstart [--realtime]
//
// With --realtime the run is driven by the wall clock (1 simulated
// second per real second) so you can watch alarms appear live.
#include <cstdio>
#include <fstream>

#include "common/logging.h"
#include "core/fpt_core.h"
#include "core/realtime.h"
#include "examples/example_util.h"
#include "faults/faults.h"
#include "harness/experiment.h"
#include "modules/modules.h"
#include "rpc/rpc_client.h"
#include "workload/gridmix.h"

int main(int argc, char** argv) {
  using namespace asdf;
  modules::registerBuiltinModules();
  setLogLevel(LogLevel::kInfo);  // show the print module's alarms

  // 1. Train a black-box model offline on a fault-free run.
  harness::ExperimentSpec trainSpec;
  trainSpec.slaves = 4;
  trainSpec.trainDuration = 240.0;
  trainSpec.trainWarmup = 60.0;
  trainSpec.centroids = 6;
  trainSpec.seed = 7;
  std::printf("training black-box model (240 simulated seconds)...\n");
  const analysis::BlackBoxModel model = harness::trainModel(trainSpec);
  std::printf("  learned %zu workload states over %zu metrics\n\n",
              model.states(), model.dims());

  // 2. Build the monitored cluster + workload.
  sim::SimEngine engine;
  hadoop::HadoopParams params;
  params.slaveCount = 4;
  hadoop::Cluster cluster(params, /*seed=*/99, engine);
  workload::GridMixGenerator gridmix(cluster, {}, /*seed=*/100);
  cluster.start();
  gridmix.start();

  // 3. Start the collection daemons and hand services to fpt-core.
  rpc::RpcHub hub(cluster, 0.0);
  rpc::RpcClient client(cluster, hub, rpc::RpcPolicy{}, /*seed=*/101);
  modules::HadoopLogSync sync;
  core::Environment env;
  env.provide("rpc_client", &client);
  env.provide("bb_model", &model);
  env.provide("hl_sync", &sync);
  long alarms = 0;
  env.alarmSink = [&alarms](const core::Alarm& alarm) {
    for (double f : alarm.flags) alarms += f > 0.5 ? 1 : 0;
  };

  // 4. Write and load a configuration file, exactly as an
  //    administrator would (Section 3.4's format).
  harness::PipelineParams pipeline;
  pipeline.slaves = 4;
  pipeline.quietPrint = false;
  const std::string configPath = "/tmp/asdf_quickstart.conf";
  {
    std::ofstream out(configPath);
    out << harness::buildBlackBoxConfig(pipeline);
  }
  core::FptCore fpt(engine, env);
  fpt.configureFromFile(configPath);
  std::printf("fpt-core DAG: %zu module instances from %s\n\n",
              fpt.instances().size(), configPath.c_str());

  // 5. Inject a CPU hog on slave 2 one minute in.
  faults::FaultSpec faultSpec;
  faultSpec.type = faults::FaultType::kCpuHog;
  faultSpec.node = 2;
  faultSpec.startTime = 60.0;
  faults::FaultInjector injector(cluster, faultSpec);
  injector.arm();
  std::printf("running 300 s with a CPUHog on slave2 from t=60 s...\n");

  // 6. Run — virtual time by default, wall-clock with --realtime.
  if (examples::flagPresent(argc, argv, "realtime")) {
    core::RealTimeDriver driver(engine);
    driver.run(300.0);
  } else {
    engine.runUntil(300.0);
  }

  std::printf("\ndone: %ld per-node alarms were raised "
              "(expect slave2 from ~t=120 on).\n",
              alarms);
  return alarms > 0 ? 0 : 1;
}
