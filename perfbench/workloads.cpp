#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>

#include "analysis/bbmodel.h"
#include "archive/reader.h"
#include "common/strings.h"
#include "daemon.h"
#include "harness/scenario_matrix.h"
#include "ledger.h"

namespace perfbench {

using asdf::strformat;
using asdf::analysis::BlackBoxModel;
using asdf::harness::ExperimentResult;
using asdf::harness::ExperimentSpec;
using asdf::harness::TransportMode;
namespace fs = std::filesystem;

// --- report ---------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& what) {
  correct_ = false;
  note("CHECK FAILED: " + what);
}

void Report::note(const std::string& line) const {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string Report::json() const {
  std::string out = strformat(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
      correct_ ? "true" : "false", attempted_, failed_);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out += strformat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  return out + "}}";
}

ExperimentSpec baseSpec(int slaves, double duration, std::uint64_t seed) {
  ExperimentSpec spec;
  spec.slaves = slaves;
  spec.duration = duration;
  spec.trainDuration = 300.0;
  spec.seed = seed;
  spec.threads = 1;
  spec.fault.type = asdf::faults::FaultType::kCpuHog;
  spec.fault.node = static_cast<asdf::NodeId>((slaves + 1) / 2);
  spec.fault.startTime = std::floor(duration / 3.0);
  spec.pipeline.quietPrint = true;
  return spec;
}

std::uint64_t subSeed(std::uint64_t seed, int i) {
  // splitmix64; kept below 2^31 so the daemon's integer flag parser
  // takes it unchanged.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(i + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return 1 + z % 2000000000ULL;
}

std::uint64_t alarmFingerprint(const ExperimentResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t part : {asdf::harness::fingerprintAlarms(r.blackBox),
                             asdf::harness::fingerprintAlarms(r.whiteBox)}) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (part >> (8 * byte)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

namespace {

constexpr int kSetupReps = 3;   // set-ups per run; setup_s is their median
constexpr int kPanel = 3;       // archives replay_50 cycles through
constexpr double kLiveScale = 20.0;
constexpr double kUnpaced = 0.0;

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double highest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// The factor that corrects a timing for the host's speed, from
/// reference timings taken right before and right after it (see
/// referenceSeconds()).
double speedFactor(double refBefore, double refAfter) {
  return 2.0 * kReferenceNominalS / (refBefore + refAfter);
}

/// Hands freed heap back to the kernel and restarts its peak-RSS count
/// (VmHWM) at the current RSS, so that the peak covers what runs next.
/// Where the kernel refuses, the peak covers the whole process.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// A memory figure from /proc/self/status (such as "VmHWM:") in MB.
double statusMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Removes a scratch directory on every exit path.
class ScopedDir {
 public:
  explicit ScopedDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  std::string sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

/// One monitored run observed through a RegistryTap.
struct Observed {
  ExperimentResult result;
  double start = 0.0;  // wall seconds
  double wall = 0.0;
  double cpu = 0.0;    // process CPU seconds
  double peakMb = 0.0;  // peak RSS while it ran
};

Observed observe(const ExperimentSpec& spec, const BlackBoxModel& model,
                 Ledger& ledger) {
  ledger.clear();
  RegistryTap tap(ledger);
  Observed o;
  resetPeakRss();
  const double cpu0 = processCpuNow();
  o.start = wallNow();
  o.result = asdf::harness::runExperiment(spec, model);
  o.wall = wallNow() - o.start;
  o.cpu = processCpuNow() - cpu0;
  o.peakMb = statusMb("VmHWM:");
  return o;
}

struct RpcTotals {
  long calls = 0;
  long failed = 0;
  double kbPerSecPerNode = 0.0;
};

RpcTotals rpcTotals(const ExperimentResult& r) {
  RpcTotals t;
  for (const asdf::harness::RpcChannelReport& ch : r.rpcChannels) {
    t.calls += ch.calls;
    t.failed += ch.failedCalls;
    t.kbPerSecPerNode += ch.perIterationKbPerSec;
  }
  return t;
}

void countAttempts(Report& report, const ExperimentResult& r) {
  const RpcTotals t = rpcTotals(r);
  report.addAttempts(t.calls + t.failed, t.failed);
}

// --- end-to-end accumulation ----------------------------------------------

struct EndToEnd {
  std::vector<double> latencyMs;
  long calls = 0;
  long failedCalls = 0;

  /// Alarm latency from due(t): the pacing schedule when `scale` > 0,
  /// else the first collection at t. Samples are multiplied by
  /// `factor` (see speedFactor()).
  void absorb(Report& report, const Observed& o, const Ledger& ledger,
              double scale, double factor = 1.0) {
    const std::map<double, double> due =
        scale > 0.0 ? dueTimes(ledger.tickStarts(), scale)
                    : ledger.tickStarts();
    const std::vector<double> lat =
        alarmLatenciesMs(ledger.deliveries(), due);
    for (double ms : lat) latencyMs.push_back(ms * factor);
    const std::size_t alarms =
        o.result.blackBox.size() + o.result.whiteBox.size();
    if (lat.size() != alarms || alarms == 0) {
      report.fail(strformat("%zu alarms but %zu latency samples", alarms,
                            lat.size()));
    }
  }

  void countRpc(const ExperimentResult& r) {
    const RpcTotals t = rpcTotals(r);
    calls += t.calls;
    failedCalls += t.failed;
  }
};

void reportEndToEnd(Report& report, const EndToEnd& e2e, double simRate,
                    double exponent, double setupS, double peakMb) {
  const long attempted = e2e.calls + e2e.failedCalls;
  report.set("sim_s_per_wall_s", simRate, "s/s");
  report.set("scaling_exponent", exponent, "1");
  report.set("setup_s", setupS, "s");
  report.set("alarm_latency_ms_p50", percentile(e2e.latencyMs, 50.0), "ms");
  report.set("rpc_ok_pct",
             attempted == 0 ? 0.0
                            : 100.0 * static_cast<double>(e2e.calls) /
                                  static_cast<double>(attempted),
             "%");
  report.set("peak_rss_mb", peakMb, "MB");
  report.note(strformat("alarm latency: n=%zu, p90 %.4g ms, p95 %.4g ms",
                        e2e.latencyMs.size(),
                        percentile(e2e.latencyMs, 90.0),
                        percentile(e2e.latencyMs, 95.0)));
}

// --- per-layer accumulation -----------------------------------------------

struct ArchiveFacts {
  double recordS = 0.0;
  double openS = 0.0;
  double bytes = 0.0;
  double records = 0.0;
};

/// Opens an archive the way a reader does; fills size and timing.
ArchiveFacts openArchive(const std::string& dir) {
  ArchiveFacts f;
  const double t0 = wallNow();
  asdf::archive::ArchiveReader reader(dir);
  f.openS = wallNow() - t0;
  f.records = static_cast<double>(reader.records().size());
  for (const auto& seg : reader.segments()) {
    f.bytes += static_cast<double>(seg.fileBytes);
  }
  return f;
}

struct Layers {
  int experiments = 0;
  double wall = 0.0;
  std::map<std::string, double> busy;
  std::map<std::string, long> runs;
  std::map<std::string, std::vector<double>> runUs;
  std::vector<double> lagMs;
  std::vector<double> summarizeS;
  // Table 3 fields and alarm latency, from the untraced runs.
  std::vector<double> fptCpuPct, sadcCpuPct, hadoopLogCpuPct;
  EndToEnd untraced;
  // Overhead: paired busy time, untraced and traced.
  std::vector<double> untracedBusy, tracedBusy;
  ExperimentResult first;  // work counts and accuracy of the first input
  double trainS = 0.0;
  ArchiveFacts archive;

  void absorbUntraced(Report& report, const Observed& o, const Ledger& ledger,
                      double scale) {
    fptCpuPct.push_back(o.result.fptCoreCpuPct);
    sadcCpuPct.push_back(o.result.sadcRpcdCpuPct);
    hadoopLogCpuPct.push_back(o.result.hadoopLogRpcdCpuPct);
    untraced.absorb(report, o, ledger, scale);
  }

  /// Folds in one traced run; false when two module spans overlap
  /// (the serial executor never nests or overlaps module runs).
  bool absorbTraced(const Observed& o, const Ledger& ledger, double scale) {
    if (experiments == 0) first = o.result;
    ++experiments;
    wall += o.wall;
    bool disjoint = true;
    double previousEnd = o.start;
    for (const Span& s : ledger.spans()) {
      const std::string& type = ledger.types()[s.type];
      busy[type] += s.end - s.start;
      ++runs[type];
      runUs[type].push_back(1e6 * (s.end - s.start));
      if (s.start < previousEnd) disjoint = false;
      previousEnd = s.end;
    }
    const std::map<double, double> due =
        scale > 0.0 ? dueTimes(ledger.tickStarts(), scale)
                    : readyTimes(ledger.spans(), o.start);
    const std::vector<double> lag = lagsMs(ledger.tickStarts(), due);
    lagMs.insert(lagMs.end(), lag.begin(), lag.end());
    const double t0 = wallNow();
    (void)asdf::harness::summarize(o.result);
    summarizeS.push_back(wallNow() - t0);
    return disjoint;
  }
};

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void reportLayers(Report& report, const Layers& L) {
  const double n = std::max(1, L.experiments);
  double moduleBusy = 0.0;
  for (const auto& [type, busy] : L.busy) moduleBusy += busy;
  for (const std::string& type : pipelineTypes()) {
    const auto runs = L.runs.find(type);
    const auto busy = L.busy.find(type);
    const auto us = L.runUs.find(type);
    const std::vector<double> none;
    const std::vector<double>& samples =
        us == L.runUs.end() ? none : us->second;
    const Tail p99 = tail(samples, 99.0);
    const std::string m = "modules." + type;
    report.set(m + ".runs",
               runs == L.runs.end() ? 0.0
                                    : static_cast<double>(runs->second) / n,
               "count");
    report.set(m + ".busy_s", busy == L.busy.end() ? 0.0 : busy->second / n,
               "s");
    report.set(m + ".run_us_p50", percentile(samples, 50.0), "us");
    report.set(m + ".run_us_p99", p99.value, "us");
    report.note(m + ".run_us_p99: " + describeTail(p99, 99.0));
  }
  const Tail lag95 = tail(L.lagMs, 95.0);
  report.set("core.residual_s", (L.wall - moduleBusy) / n, "s");
  report.set("core.busy_share", L.wall > 0.0 ? moduleBusy / L.wall : 0.0,
             "ratio");
  report.set("core.pacing_lag_ms_p50", percentile(L.lagMs, 50.0), "ms");
  report.set("core.pacing_lag_ms_p95", lag95.value, "ms");
  report.note("pacing lag tail: " + describeTail(lag95, 95.0));
  // The black- and white-box alarms of a window arrive in one tick, so
  // samples come in near-equal pairs; p90 keeps ten independent ticks
  // beyond it on a 30 s live run.
  const Tail alarm90 = tail(L.untraced.latencyMs, 90.0);
  report.set("core.alarm_latency_ms_p50",
             percentile(L.untraced.latencyMs, 50.0), "ms");
  report.set("core.alarm_latency_ms_p90", alarm90.value, "ms");
  report.note("alarm latency tail (untraced): " + describeTail(alarm90, 90.0));
  report.set("core.fpt_cpu_pct", mean(L.fptCpuPct), "%");
  report.set("core.trace_overhead_pct",
             100.0 * (median(L.tracedBusy) / median(L.untracedBusy) - 1.0),
             "%");
  report.set("rpc.sadc_daemon_cpu_pct", mean(L.sadcCpuPct), "%");
  report.set("rpc.hadoop_log_daemon_cpu_pct", mean(L.hadoopLogCpuPct), "%");
  const RpcTotals rpc = rpcTotals(L.first);
  report.set("rpc.calls", static_cast<double>(rpc.calls), "count");
  report.set("rpc.retries", static_cast<double>(L.first.rpcRetries), "count");
  report.set("rpc.kb_per_s_per_node", rpc.kbPerSecPerNode, "KB/s");
  report.set("sim.train_s", L.trainS, "s");
  report.set("archive.record_s", L.archive.recordS, "s");
  report.set("archive.open_s", L.archive.openS, "s");
  report.set("archive.bytes", L.archive.bytes, "bytes");
  report.set("archive.records", L.archive.records, "count");
  const asdf::harness::ExperimentSummary sum =
      asdf::harness::summarize(L.first);
  report.set("analysis.summarize_s", median(L.summarizeS), "s");
  report.set("analysis.ba_bb_pct", sum.blackBox.eval.balancedAccuracyPct(),
             "%");
  report.set("analysis.ba_wb_pct", sum.whiteBox.eval.balancedAccuracyPct(),
             "%");
  report.set("analysis.ba_combined_pct",
             sum.combined.eval.balancedAccuracyPct(), "%");
  report.set("analysis.localization_s",
             sum.combined.latencySeconds >= 0.0 ? sum.combined.latencySeconds
                                                : L.first.simulatedSeconds,
             "s");
  report.set("hadoop.jobs_completed",
             static_cast<double>(L.first.jobsCompleted), "count");
  report.set("hadoop.tasks_completed",
             static_cast<double>(L.first.tasksCompleted), "count");
  report.set("hadooplog.sync_dropped_s",
             static_cast<double>(L.first.syncDroppedSeconds), "s");
  report.note(strformat(
      "accounting: %.4f s timed = %.4f s in modules + %.4f s residual "
      "(per run, %d traced runs)",
      L.wall / n, moduleBusy / n, (L.wall - moduleBusy) / n, L.experiments));
}

/// Writes the spans of the last traced run, relative to its start.
void writeSpans(const std::string& path, const Observed& o,
                const Ledger& ledger) {
  if (path.empty()) return;
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path, std::ios::trunc);
  out << "type,instance,start_us,end_us,tick\n";
  out << strformat("run,root,0,%.1f,-1\n", 1e6 * o.wall);
  for (const Span& s : ledger.spans()) {
    out << ledger.types()[s.type] << ',' << ledger.instances()[s.instance]
        << strformat(",%.1f,%.1f,%.0f\n", 1e6 * (s.start - o.start),
                     1e6 * (s.end - o.start), s.tick);
  }
}

/// The traced run of an unpaced workload: untraced and traced runs of
/// one input alternate for `seconds`; both must raise the same alarms.
void traceUnpaced(const Options& opts, Report& report, Layers& layers,
                  const std::function<ExperimentSpec(int)>& specAt,
                  const BlackBoxModel& model) {
  Ledger plain(false);
  Ledger traced(true);
  Observed last;
  const double deadline = wallNow() + opts.seconds;
  for (int i = 0; i == 0 || wallNow() < deadline; ++i) {
    const ExperimentSpec spec = specAt(i);
    const Observed u = observe(spec, model, plain);
    last = observe(spec, model, traced);
    countAttempts(report, u.result);
    countAttempts(report, last.result);
    if (alarmFingerprint(u.result) != alarmFingerprint(last.result)) {
      report.fail(strformat("input %d: traced and untraced alarms differ", i));
    }
    if (!layers.absorbTraced(last, traced, kUnpaced)) {
      report.fail("module spans overlap under the serial executor");
    }
    layers.absorbUntraced(report, u, plain, kUnpaced);
    layers.untracedBusy.push_back(u.wall);
    layers.tracedBusy.push_back(last.wall);
  }
  writeSpans(opts.traceFile, last, traced);
  reportLayers(report, layers);
}

BlackBoxModel timedTrain(const ExperimentSpec& spec, double& seconds) {
  const double t0 = wallNow();
  BlackBoxModel model = asdf::harness::trainModel(spec);
  seconds += wallNow() - t0;
  return model;
}

// --- sim_scale ------------------------------------------------------------

Report simScale(const Options& opts) {
  constexpr int kSmall = 100;
  constexpr int kLarge = 400;
  constexpr double kDuration = 120.0;
  Report report;
  report.note("sim_scale: sim transport, GridMix + CPUHog, 100 and 400 "
              "slaves, 120 s runs");

  BlackBoxModel small, large;
  std::vector<double> setups, trains;
  for (int r = 0; r < kSetupReps; ++r) {
    const double refBefore = referenceSeconds();
    double train = 0.0;
    small = timedTrain(baseSpec(kSmall, kDuration, opts.seed), train);
    large = timedTrain(baseSpec(kLarge, kDuration, opts.seed), train);
    setups.push_back(train * speedFactor(refBefore, referenceSeconds()));
    trains.push_back(train);
  }
  const auto specAt = [&opts](int slaves, int i) {
    return baseSpec(slaves, kDuration, subSeed(opts.seed, i));
  };

  if (opts.trace) {
    Layers layers;
    layers.trainS = median(trains);
    traceUnpaced(opts, report, layers,
                 [&](int i) { return specAt(kLarge, i); }, large);
    return report;
  }

  Ledger ledger(false);
  EndToEnd e2e;
  std::uint64_t firstSmall = 0;
  std::vector<double> largeWalls, rawWalls, exponents, peaks;
  const double deadline = wallNow() + opts.seconds;
  for (int i = 0; i == 0 || wallNow() < deadline; ++i) {
    const Observed s = observe(specAt(kSmall, i), small, ledger);
    if (i == 0) firstSmall = alarmFingerprint(s.result);
    e2e.countRpc(s.result);
    countAttempts(report, s.result);
    const double refBefore = referenceSeconds();
    const Observed l = observe(specAt(kLarge, i), large, ledger);
    const double factor =
        speedFactor(refBefore, referenceSeconds());
    e2e.absorb(report, l, ledger, kUnpaced, factor);
    e2e.countRpc(l.result);
    countAttempts(report, l.result);
    rawWalls.push_back(l.wall);
    largeWalls.push_back(l.wall * factor);
    peaks.push_back(l.peakMb);
    exponents.push_back(std::log(l.wall / s.wall) /
                        std::log(double(kLarge) / kSmall));
  }
  // Runs of one input are deterministic: the first one again.
  if (alarmFingerprint(asdf::harness::runExperiment(specAt(kSmall, 0),
                                                    small)) != firstSmall) {
    report.fail("100 slaves, input 0: alarms differ between runs");
  }
  report.note(strformat("%zu pairs of runs; 400-slave run %.3f s measured, "
                        "%.3f s corrected",
                        largeWalls.size(), median(rawWalls),
                        median(largeWalls)));
  reportEndToEnd(report, e2e, kDuration / median(largeWalls),
                 median(exponents), median(setups), highest(peaks));
  return report;
}

// --- replay_50 ------------------------------------------------------------

Report replay50(const Options& opts) {
  constexpr int kSlaves = 50;
  constexpr int kQuarter = 12;
  constexpr double kDuration = 600.0;
  Report report;
  report.note("replay_50: replays of recorded 50-slave (and 12-slave) "
              "CPUHog runs, 600 s each");
  const ScopedDir work(opts.workDir);

  struct Recording {
    ExperimentSpec spec;  // the replay spec
    std::uint64_t fingerprint = 0;
  };
  std::vector<Recording> full, quarter;
  BlackBoxModel fullModel, quarterModel;
  std::vector<double> setups, trains, firstOpens;
  ArchiveFacts facts;
  for (int r = 0; r < kSetupReps; ++r) {
    const double refBefore = referenceSeconds();
    double train = 0.0;
    fullModel = timedTrain(baseSpec(kSlaves, kDuration, opts.seed), train);
    quarterModel =
        timedTrain(baseSpec(kQuarter, kDuration, opts.seed), train);
    trains.push_back(train);
    if (r == 0) {
      // Recording is not set-up: it stands in for the monitored
      // cluster that produced the archive.
      for (int k = 0; k < kPanel; ++k) {
        for (const auto& [slaves, model, into] :
             {std::tuple{kSlaves, &fullModel, &full},
              std::tuple{kQuarter, &quarterModel, &quarter}}) {
          ExperimentSpec spec =
              baseSpec(slaves, kDuration, subSeed(opts.seed, k));
          spec.archiveDir = work.sub(strformat("rec%d-%d", slaves, k));
          const double t0 = wallNow();
          const ExperimentResult rec =
              asdf::harness::runExperiment(spec, *model);
          if (slaves == kSlaves && k == 0) facts.recordS = wallNow() - t0;
          spec.transport = TransportMode::kReplay;
          into->push_back({spec, alarmFingerprint(rec)});
        }
      }
    }
    double open = 0.0;
    for (const auto* set : {&full, &quarter}) {
      for (const Recording& rec : *set) {
        const ArchiveFacts f = openArchive(rec.spec.archiveDir);
        open += f.openS;
        if (&rec == &full.front()) {
          facts.bytes = f.bytes;
          facts.records = f.records;
          firstOpens.push_back(f.openS);
        }
      }
    }
    setups.push_back((train + open) *
                     speedFactor(refBefore, referenceSeconds()));
  }
  facts.openS = median(firstOpens);

  const auto replay = [&](const Recording& rec, const BlackBoxModel& model,
                          Ledger& ledger) {
    Observed o = observe(rec.spec, model, ledger);
    if (alarmFingerprint(o.result) != rec.fingerprint) {
      report.fail(rec.spec.archiveDir +
                  ": replayed alarms differ from the recording run");
    }
    countAttempts(report, o.result);
    return o;
  };

  if (opts.trace) {
    Layers layers;
    layers.trainS = median(trains);
    layers.archive = facts;
    Ledger plain(false);
    Ledger traced(true);
    Observed last;
    const double deadline = wallNow() + opts.seconds;
    for (int i = 0; i == 0 || wallNow() < deadline; ++i) {
      const Recording& rec = full[static_cast<std::size_t>(i % kPanel)];
      const Observed u = replay(rec, fullModel, plain);
      last = replay(rec, fullModel, traced);
      if (!layers.absorbTraced(last, traced, kUnpaced)) {
        report.fail("module spans overlap under the serial executor");
      }
      layers.absorbUntraced(report, u, plain, kUnpaced);
      layers.untracedBusy.push_back(u.wall);
      layers.tracedBusy.push_back(last.wall);
    }
    writeSpans(opts.traceFile, last, traced);
    reportLayers(report, layers);
    return report;
  }

  Ledger ledger(false);
  EndToEnd e2e;
  std::vector<double> walls, rawWalls, exponents, peaks;
  const double deadline = wallNow() + opts.seconds;
  for (int i = 0; i == 0 || wallNow() < deadline; ++i) {
    const auto k = static_cast<std::size_t>(i % kPanel);
    const Observed q = replay(quarter[k], quarterModel, ledger);
    e2e.countRpc(q.result);
    const double refBefore = referenceSeconds();
    const Observed f = replay(full[k], fullModel, ledger);
    const double factor =
        speedFactor(refBefore, referenceSeconds());
    e2e.absorb(report, f, ledger, kUnpaced, factor);
    e2e.countRpc(f.result);
    rawWalls.push_back(f.wall);
    walls.push_back(f.wall * factor);
    peaks.push_back(f.peakMb);
    exponents.push_back(std::log(f.wall / q.wall) /
                        std::log(double(kSlaves) / kQuarter));
  }
  report.note(strformat("%zu pairs of replays; 50-slave replay %.4f s "
                        "measured, %.4f s corrected",
                        walls.size(), median(rawWalls), median(walls)));
  reportEndToEnd(report, e2e, kDuration / median(walls), median(exponents),
                 median(setups), highest(peaks));
  return report;
}

// --- live_50 --------------------------------------------------------------

std::vector<std::string> rpcdArgs(const ExperimentSpec& spec) {
  return {strformat("--slaves=%d", spec.slaves),
          strformat("--seed=%llu",
                    static_cast<unsigned long long>(spec.seed)),
          "--source=sim", "--fault=CPUHog",
          strformat("--fault-node=%d", static_cast<int>(spec.fault.node)),
          strformat("--fault-start=%g", spec.fault.startTime)};
}

ExperimentSpec liveSpec(int slaves, double duration, std::uint64_t seed) {
  ExperimentSpec spec = baseSpec(slaves, duration, seed);
  spec.faultTolerantRpc = true;
  spec.rpcPolicy.timeoutSeconds = 5.0;
  spec.realtimeScale = kLiveScale;
  return spec;
}

/// Starts a daemon serving `spec` and connects to it once.
std::unique_ptr<RpcdProcess> startDaemon(const Options& opts,
                                         const ExperimentSpec& spec) {
  auto d = std::make_unique<RpcdProcess>(opts.rpcdBinary, rpcdArgs(spec));
  d->connectOnce();
  return d;
}

/// One live session against `daemon`, recorded to `archiveDir`.
Observed liveSession(Report& report, ExperimentSpec spec,
                     const RpcdProcess& daemon, const BlackBoxModel& model,
                     Ledger& ledger, const std::string& archiveDir) {
  spec.transport = TransportMode::kLive;
  spec.livePort = daemon.port();
  spec.archiveDir = archiveDir;
  Observed o = observe(spec, model, ledger);
  countAttempts(report, o.result);
  return o;
}

/// When no call of a live session failed, its alarms must match a
/// sim-transport run of the same spec.
void checkAgainstSim(Report& report, const ExperimentSpec& spec,
                     const BlackBoxModel& model, const Observed& live) {
  const RpcTotals rpc = rpcTotals(live.result);
  if (rpc.failed != 0) {
    report.note(strformat("%ld of %ld live calls failed; sim comparison "
                          "skipped",
                          rpc.failed, rpc.calls + rpc.failed));
    return;
  }
  const ExperimentResult ref = asdf::harness::runExperiment(spec, model);
  if (alarmFingerprint(ref) != alarmFingerprint(live.result)) {
    report.fail(strformat("%d-slave live alarms differ from the sim run",
                          spec.slaves));
  }
}

Report live50(const Options& opts) {
  constexpr int kSlaves = 50;
  constexpr int kQuarter = 12;
  // The socket pairs run the live transport unpaced (a time scale no
  // schedule can hold), so their wall time is their cost.
  constexpr double kUnpacedScale = 1e6;
  constexpr double kPairDuration = 120.0;
  constexpr int kPairs = 10;
  Report report;
  if (opts.rpcdBinary.empty()) {
    throw std::invalid_argument("live_50 needs --rpcd=<asdf_rpcd binary>");
  }
  const double duration = kLiveScale * opts.seconds;
  report.note(strformat(
      "live_50: asdf_rpcd child, 50 slaves, %.0f s at %.0fx (open loop)",
      duration, kLiveScale));
  const ScopedDir work(opts.workDir);
  const std::uint64_t seed = subSeed(opts.seed, 0);
  const ExperimentSpec full = liveSpec(kSlaves, duration, seed);

  // Set-up: train, start the daemon(s) a run needs, connect. The traced
  // run needs two: its untraced and traced sessions each start from a
  // fresh cluster.
  BlackBoxModel fullModel, quarterModel;
  std::unique_ptr<RpcdProcess> first, second;
  std::vector<double> setups, trains;
  for (int r = 0; r < kSetupReps; ++r) {
    first.reset();
    second.reset();
    const double refBefore = referenceSeconds();
    const double t0 = wallNow();
    double train = 0.0;
    fullModel = timedTrain(full, train);
    if (!opts.trace) {
      quarterModel = timedTrain(liveSpec(kQuarter, duration, seed), train);
    }
    first = startDaemon(opts, full);
    if (opts.trace) second = startDaemon(opts, full);
    setups.push_back((wallNow() - t0) *
                     speedFactor(refBefore, referenceSeconds()));
    trains.push_back(train);
  }

  if (opts.trace) {
    Layers layers;
    layers.trainS = median(trains);
    Ledger plain(false);
    Ledger traced(true);
    const Observed u = liveSession(report, full, *first, fullModel, plain,
                                   work.sub("untraced"));
    layers.absorbUntraced(report, u, plain, kLiveScale);
    const Observed t = liveSession(report, full, *second, fullModel, traced,
                                   work.sub("traced"));
    checkAgainstSim(report, full, fullModel, u);
    checkAgainstSim(report, full, fullModel, t);
    layers.archive = openArchive(work.sub("traced"));
    layers.archive.recordS = t.wall;
    if (!layers.absorbTraced(t, traced, kLiveScale)) {
      report.fail("module spans overlap under the serial executor");
    }
    // Paced runs last as long traced or not; compare the CPU they use.
    layers.untracedBusy.push_back(u.cpu);
    layers.tracedBusy.push_back(t.cpu);
    writeSpans(opts.traceFile, t, traced);
    reportLayers(report, layers);
    return report;
  }

  // The paced session: the open loop the checks and the per-layer lag
  // figures come from. Its latency follows the host's speed too
  // closely to gate (README), so it is printed, not reported.
  Ledger ledger(false);
  EndToEnd paced;
  const Observed f =
      liveSession(report, full, *first, fullModel, ledger, work.sub("live50"));
  paced.absorb(report, f, ledger, kLiveScale);
  first->stop();
  report.note(strformat("paced alarm latency: n=%zu, p50 %.4g ms, p90 "
                        "%.4g ms",
                        paced.latencyMs.size(),
                        percentile(paced.latencyMs, 50.0),
                        percentile(paced.latencyMs, 90.0)));

  // The socket path unpaced: 12- and 50-slave sessions in adjacent
  // pairs, each against a fresh daemon. The 50-slave sessions give the
  // gated speed and latency, speed-corrected like the other workloads.
  EndToEnd e2e;
  e2e.countRpc(f.result);
  std::vector<double> exponents, walls;
  for (int i = 0; i < kPairs; ++i) {
    double wall[2] = {0.0, 0.0};
    for (int big = 0; big < 2; ++big) {
      ExperimentSpec spec =
          liveSpec(big ? kSlaves : kQuarter, kPairDuration, seed);
      spec.realtimeScale = kUnpacedScale;
      const RpcdProcess daemon(opts.rpcdBinary, rpcdArgs(spec));
      const double refBefore = referenceSeconds();
      const Observed o =
          liveSession(report, spec, daemon, big ? fullModel : quarterModel,
                      ledger, work.sub(strformat("pair%d-%d", i, big)));
      e2e.countRpc(o.result);
      wall[big] = o.wall;
      if (big) {
        const double factor =
            speedFactor(refBefore, referenceSeconds());
        e2e.absorb(report, o, ledger, kUnpaced, factor);
        walls.push_back(o.wall * factor);
      }
    }
    exponents.push_back(std::log(wall[1] / wall[0]) /
                        std::log(double(kSlaves) / kQuarter));
  }

  checkAgainstSim(report, full, fullModel, f);
  const double localization =
      asdf::harness::summarize(f.result).combined.latencySeconds;
  if (localization < 0.0) {
    report.fail("the live run did not localize the fault");
  } else {
    report.note(strformat("fault localized after %.0f s", localization));
  }
  reportEndToEnd(report, e2e, kPairDuration / median(walls),
                 median(exponents), median(setups), f.peakMb);
  return report;
}

}  // namespace

Report runWorkload(const Options& opts) {
  if (opts.workload == "sim_scale") return simScale(opts);
  if (opts.workload == "replay_50") return replay50(opts);
  if (opts.workload == "live_50") return live50(opts);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace perfbench
