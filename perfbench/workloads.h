// The benchmark's workloads and the report they produce.
//
//   sim_scale  sim transport, 100 and 400 slaves (closed batch)
//   replay_50  recorded 50-slave runs replayed from the archive
//   live_50    a child asdf_rpcd: a session paced at 20x (open loop),
//              then unpaced 12- and 50-slave sessions
//
// Every workload trains its black-box model and prepares its inputs in
// a set-up phase, then measures for the requested number of seconds.
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer ones. See README.md for the definitions.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string rpcdBinary;  // live_50 only
  std::string workDir;     // scratch space for archives; removed after
  std::string traceFile;   // traced runs write their spans here (CSV)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (printed at once).
  void fail(const std::string& what);
  /// Prints a progress or context line.
  void note(const std::string& line) const;

  void addAttempts(long attempted, long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  bool correct_ = true;
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<Metric> metrics_;
};

/// The monitored-run spec every workload builds on: GridMix with a
/// CPUHog on the middle slave from a third of the run, the paper's
/// pipeline, serial executor, a 300 s training run.
asdf::harness::ExperimentSpec baseSpec(int slaves, double duration,
                                       std::uint64_t seed);

/// The i-th input seed derived from the workload seed.
std::uint64_t subSeed(std::uint64_t seed, int i);

/// FNV-1a over both alarm series' fingerprints.
std::uint64_t alarmFingerprint(const asdf::harness::ExperimentResult& r);

/// Runs one workload; throws std::invalid_argument for an unknown name.
Report runWorkload(const Options& opts);

}  // namespace perfbench
