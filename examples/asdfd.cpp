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
#include "net/sim_source.h"
#include "rpc/rpc_client.h"

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

  // The monitored deployment: slave count, seed and the optional fault.
  // Every other field keeps the harness default.
  harness::ExperimentSpec spec;
  spec.slaves = static_cast<int>(flagInt(argc, argv, "slaves", 8));
  spec.seed = static_cast<std::uint64_t>(flagInt(argc, argv, "seed", 42));
  spec.fault.type =
      faults::faultFromName(flagValue(argc, argv, "fault", "none"));
  spec.fault.node = static_cast<NodeId>(flagInt(argc, argv, "node", 3));
  spec.fault.startTime = flagDouble(argc, argv, "inject-at", 600.0);
  const double duration = flagDouble(argc, argv, "duration", 1800.0);

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
    std::printf("[asdfd] training black-box model (%.0f s fault-free)...\n",
                spec.trainDuration);
    model = harness::trainModel(spec);
  }
  const std::string modelOut = flagValue(argc, argv, "model-out", "");
  if (!modelOut.empty()) {
    std::ofstream out(modelOut);
    out << analysis::serializeModel(model);
    std::printf("[asdfd] saved model to %s\n", modelOut.c_str());
  }

  // --- cluster + workload --------------------------------------------
  net::SimSource source(spec.slaves, spec.topology, spec.seed,
                        spec.mixChangeTime, spec.fault);
  rpc::RpcClient client(source.cluster(), source.hub(), rpc::RpcPolicy{},
                        spec.seed * 2654435761ULL + 97);
  modules::HadoopLogSync sync;
  BlacklistMitigator mitigator(source.cluster());

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
  core::FptCore fpt(source.engine(), env);
  const int threads = static_cast<int>(flagInt(argc, argv, "threads", 1));
  fpt.setExecutor(core::makeExecutor(threads));
  const std::string configFile = flagValue(argc, argv, "config", "");
  if (!configFile.empty()) {
    fpt.configureFromFile(configFile);
  } else {
    harness::PipelineParams pipeline;
    pipeline.slaves = spec.slaves;
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
  // Armed after fpt-core configures, so at an equal timestamp the
  // modules' fetches run before the fault's events.
  source.armFault();
  if (spec.fault.type != faults::FaultType::kNone) {
    std::printf("[asdfd] will inject %s on slave%d at t=%.0f\n",
                faults::faultName(spec.fault.type), spec.fault.node,
                spec.fault.startTime);
  }

  // --- run --------------------------------------------------------------
  if (flagPresent(argc, argv, "realtime")) {
    core::RealTimeDriver driver(source.engine());
    driver.run(duration);
  } else {
    source.engine().runUntil(duration);
  }

  // --- report -------------------------------------------------------------
  std::printf("\n[asdfd] run complete: %.0f s monitored, %ld analysis "
              "windows, %ld fingerpointing decisions\n",
              duration, alarmWindows, flaggedDecisions);
  std::printf("[asdfd] jobs %ld/%ld completed; fpt-core %.4f%% CPU; "
              "blacklisted nodes: %zu\n",
              source.cluster().jobTracker().jobsCompleted(),
              source.cluster().jobTracker().jobsSubmitted(),
              100.0 * fpt.cpuSeconds() / duration,
              source.cluster().jobTracker().blacklistedCount());
  return 0;
}
