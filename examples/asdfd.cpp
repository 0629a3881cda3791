// asdfd — the ASDF control-node daemon, as it would ship.
//
// Runs a complete monitored deployment from a user-supplied fpt-core
// configuration file (or a generated default), against the simulated
// cluster substrate. This is the "single ASDF instance ... run on a
// dedicated machine (the ASDF control node)" of Section 4.3, with the
// operational trimmings a deployable tool needs: model training or
// loading, alarm logging, optional CSV export, optional mitigation,
// and an end-of-run report.
//
// Usage:
//   asdfd [--config=FILE]        custom fpt-core configuration
//         [--slaves=8] [--duration=1800] [--seed=42]
//         [--fault=none|CPUHog|...] [--node=3] [--inject-at=600]
//         [--model-out=FILE]     save the trained black-box model
//         [--model-in=FILE]      reuse a previously trained model
//         [--mitigate]           blacklist fingerpointed nodes
//         [--realtime]           pace the run by the wall clock
//         [--threads=N]          run same-level modules on N pool threads
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "core/fpt_core.h"
#include "core/realtime.h"
#include "examples/example_util.h"
#include "faults/faults.h"
#include "harness/experiment.h"
#include "modules/modules.h"
#include "rpc/rpc_client.h"
#include "workload/gridmix.h"

namespace {

using namespace asdf;

class BlacklistMitigator : public modules::Mitigator {
 public:
  explicit BlacklistMitigator(hadoop::Cluster& cluster)
      : cluster_(cluster) {}
  void quarantine(const std::string& origin, SimTime when) override {
    long node = 0;
    if (startsWith(origin, "slave") && parseInt(origin.substr(5), node)) {
      std::printf("[asdfd] t=%.0f MITIGATION: blacklisting %s\n", when,
                  origin.c_str());
      cluster_.jobTracker().blacklistNode(static_cast<NodeId>(node));
    }
  }

 private:
  hadoop::Cluster& cluster_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace asdf;
  using namespace asdf::examples;
  modules::registerBuiltinModules();
  setLogLevel(LogLevel::kInfo);

  const int slaves = static_cast<int>(flagInt(argc, argv, "slaves", 8));
  const double duration = flagDouble(argc, argv, "duration", 1800.0);
  const auto seed =
      static_cast<std::uint64_t>(flagInt(argc, argv, "seed", 42));

  // --- black-box model: load or train -------------------------------
  analysis::BlackBoxModel model;
  const std::string modelIn = flagValue(argc, argv, "model-in", "");
  if (!modelIn.empty()) {
    std::ifstream in(modelIn);
    if (!in) {
      std::fprintf(stderr, "asdfd: cannot read %s\n", modelIn.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    model = analysis::deserializeModel(buf.str());
    std::printf("[asdfd] loaded model from %s (%zu states)\n",
                modelIn.c_str(), model.states());
  } else {
    harness::ExperimentSpec trainSpec;
    trainSpec.slaves = slaves;
    trainSpec.seed = seed;
    std::printf("[asdfd] training black-box model (%.0f s fault-free)...\n",
                trainSpec.trainDuration);
    model = harness::trainModel(trainSpec);
  }
  const std::string modelOut = flagValue(argc, argv, "model-out", "");
  if (!modelOut.empty()) {
    std::ofstream out(modelOut);
    out << analysis::serializeModel(model);
    std::printf("[asdfd] saved model to %s\n", modelOut.c_str());
  }

  // --- cluster + workload --------------------------------------------
  sim::SimEngine engine;
  hadoop::HadoopParams params;
  params.slaveCount = slaves;
  hadoop::Cluster cluster(params, seed * 6151 + 3, engine);
  workload::GridMixGenerator gridmix(cluster, {}, seed * 7411 + 1);
  cluster.start();
  gridmix.start();
  rpc::RpcHub hub(cluster, 0.0);
  rpc::RpcClient client(cluster, hub, rpc::RpcPolicy{},
                        seed * 2654435761ULL + 97);
  modules::HadoopLogSync sync;
  BlacklistMitigator mitigator(cluster);

  core::Environment env;
  env.provide("rpc_client", &client);
  env.provide("bb_model", &model);
  env.provide("hl_sync", &sync);
  env.provide<modules::Mitigator>("mitigator", &mitigator);
  long alarmWindows = 0;
  long flaggedDecisions = 0;
  env.alarmSink = [&](const core::Alarm& alarm) {
    ++alarmWindows;
    for (std::size_t i = 0; i < alarm.flags.size(); ++i) {
      if (alarm.flags[i] > 0.5) {
        ++flaggedDecisions;
        std::printf("[asdfd] t=%.0f %s fingerpoints %s\n", alarm.time,
                    alarm.channel.c_str(),
                    i < alarm.origins.size() ? alarm.origins[i].c_str()
                                             : "?");
      }
    }
  };

  // --- fpt-core configuration -----------------------------------------
  core::FptCore fpt(engine, env);
  const int threads = static_cast<int>(flagInt(argc, argv, "threads", 1));
  fpt.setExecutor(core::makeExecutor(threads));
  const std::string configFile = flagValue(argc, argv, "config", "");
  if (!configFile.empty()) {
    fpt.configureFromFile(configFile);
  } else {
    harness::PipelineParams pipeline;
    pipeline.slaves = slaves;
    std::string config = harness::buildCombinedConfig(pipeline);
    if (flagPresent(argc, argv, "mitigate")) {
      config +=
          "\n[mitigate]\nid = medic\nconsecutive = 3\ninput[a] = "
          "@analysis_wb\n";
    }
    fpt.configureFromText(config);
  }
  std::printf("[asdfd] DAG up: %zu module instances (%s executor)\n",
              fpt.instances().size(), fpt.executor().name().c_str());

  // --- optional fault --------------------------------------------------
  faults::FaultSpec faultSpec;
  faultSpec.type =
      faults::faultFromName(flagValue(argc, argv, "fault", "none"));
  faultSpec.node = static_cast<NodeId>(flagInt(argc, argv, "node", 3));
  faultSpec.startTime = flagDouble(argc, argv, "inject-at", 600.0);
  faults::FaultInjector injector(cluster, faultSpec);
  injector.arm();
  if (faultSpec.type != faults::FaultType::kNone) {
    std::printf("[asdfd] will inject %s on slave%d at t=%.0f\n",
                faults::faultName(faultSpec.type), faultSpec.node,
                faultSpec.startTime);
  }

  // --- run --------------------------------------------------------------
  if (flagPresent(argc, argv, "realtime")) {
    core::RealTimeDriver driver(engine);
    driver.run(duration);
  } else {
    engine.runUntil(duration);
  }

  // --- report -------------------------------------------------------------
  std::printf("\n[asdfd] run complete: %.0f s monitored, %ld analysis "
              "windows, %ld fingerpointing decisions\n",
              duration, alarmWindows, flaggedDecisions);
  std::printf("[asdfd] jobs %ld/%ld completed; fpt-core %.4f%% CPU; "
              "blacklisted nodes: %zu\n",
              cluster.jobTracker().jobsCompleted(),
              cluster.jobTracker().jobsSubmitted(),
              100.0 * fpt.cpuSeconds() / duration,
              cluster.jobTracker().blacklistedCount());
  return 0;
}
