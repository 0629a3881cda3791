// Regenerates Table 3: CPU usage (% CPU time on a single core) and
// memory usage for the data-collection processes and the combined
// analysis process.
//
// Paper values (their 2009 EC2 testbed):
//   hadoop_log_rpcd  0.0245 % CPU   2.36 MB
//   sadc_rpcd        0.3553 % CPU   0.77 MB
//   fpt-core         0.8063 % CPU   5.11 MB
//
// We run the full monitored deployment on a fault-free GridMix trace
// and report the real CPU time spent inside each component divided by
// the simulated wall-clock (i.e. the cost if the monitored second took
// one real second, as it does in deployment). fpt-core's figure is
// thread-CPU time read once per executing thread per executor batch;
// the daemons' figures are the monotonic busy time of their fetches
// (see src/common/cputime.h for why neither reads the thread clock per
// run). Absolute numbers differ from the paper's hardware; the property
// that must reproduce is the bound: every component far below 1% of one
// core. The exit status is non-zero when that shape check fails.
#include "bench_util.h"

using namespace asdf;

int main(int argc, char** argv) {
  harness::ExperimentSpec spec = bench::benchSpec(argc, argv);
  spec.fault.type = faults::FaultType::kNone;

  std::printf("Table 3: monitoring overhead (%d slaves, %.0f s monitored)\n",
              spec.slaves, spec.duration);
  std::printf("training black-box model...\n");
  const analysis::BlackBoxModel model = harness::trainModel(spec);
  std::printf("running monitored fault-free trace...\n\n");
  const harness::ExperimentResult r = harness::runExperiment(spec, model);

  bench::printRule();
  std::printf("%-18s %12s %12s   %s\n", "Process", "% CPU", "Memory (MB)",
              "(paper: %CPU / MB)");
  bench::printRule();
  std::printf("%-18s %12.4f %12.2f   (0.0245 / 2.36)\n", "hadoop_log_rpcd",
              r.hadoopLogRpcdCpuPct, r.hadoopLogRpcdMemMb);
  std::printf("%-18s %12.4f %12.2f   (0.3553 / 0.77)\n", "sadc_rpcd",
              r.sadcRpcdCpuPct, r.sadcRpcdMemMb);
  std::printf("%-18s %12.4f %12.2f   (n/a: Section 5 extension)\n",
              "strace_rpcd", r.straceRpcdCpuPct, r.straceRpcdMemMb);
  std::printf("%-18s %12.4f %12.2f   (0.8063 / 5.11)\n", "fpt-core",
              r.fptCoreCpuPct, r.fptCoreMemMb);
  bench::printRule();
  const bool holds = r.hadoopLogRpcdCpuPct < 1.0 && r.sadcRpcdCpuPct < 1.0 &&
                     r.fptCoreCpuPct < 5.0 &&
                     r.fptCoreCpuPct > r.hadoopLogRpcdCpuPct;
  std::printf("shape check (all daemons <1%% CPU, fpt-core dominates): %s\n",
              holds ? "HOLDS" : "VIOLATED");
  return holds ? 0 : 1;
}
