// fpt-core: the fingerpointing core (Section 3 of the paper).
//
// A configuration file instantiates modules and wires outputs to
// inputs; fpt-core builds the resulting DAG with the paper's
// initialization-queue algorithm (Section 3.3):
//
//   1. a vertex per module instance in the configuration;
//   2. annotate each instance with its unsatisfied inputs;
//      output-only instances join the initialization queue;
//   3. initialize queued instances — init() verifies inputs, reads
//      parameters, creates outputs; new outputs satisfy other
//      instances' inputs, queueing them in turn;
//   4. repeat until all instances are initialized; anything left is a
//      configuration error and fpt-core terminates (ConfigError).
//
// At runtime the scheduler calls run() on instances either at their
// requested frequency (data-collection modules poll external sources)
// or when the configured number of their inputs were updated
// (analysis modules fire as soon as the data they need is available).
//
// Execution is split into two layers (documented in DESIGN.md):
//
//   Scheduler (this class) — per virtual tick, collects every ready
//   instance and dispatches it as part of a *wavefront*: the ready set
//   grouped by topological DAG level. Levels run lowest-first with a
//   barrier between them; output notifications produced inside a level
//   are merged in deterministic (configuration) order at the barrier,
//   which is what keeps results independent of the executor.
//
//   Executor (executor.h) — carries out the runs of one level. The
//   default SerialExecutor is bit-reproducible (same seed → same
//   alarms, byte for byte); ThreadPoolExecutor runs independent
//   instances of a level concurrently, restoring the paper's
//   thread-per-module concurrency, with identical alarm content.
//
// A wall-clock driver for live use is provided by RealTimeDriver
// (realtime.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cputime.h"
#include "common/ini.h"
#include "common/strings.h"
#include "core/environment.h"
#include "core/executor.h"
#include "core/graph.h"
#include "core/registry.h"
#include "sim/engine.h"

namespace asdf::core {

class FptCore {
 public:
  /// The environment is copied in; provide services first. Modules
  /// are created through `registry` (defaults to the global one).
  FptCore(sim::SimEngine& engine, Environment env,
          ModuleRegistry* registry = nullptr);
  ~FptCore();

  FptCore(const FptCore&) = delete;
  FptCore& operator=(const FptCore&) = delete;

  /// Parses + builds + initializes the DAG. Throws ConfigError on
  /// malformed configuration, unknown module types, unsatisfiable
  /// inputs, duplicate ids, or dependency cycles.
  void configure(const IniFile& config);
  void configureFromText(const std::string& configText);
  void configureFromFile(const std::string& path);

  /// Instance lookup by id (hash index; O(1), heterogeneous — a
  /// string_view slice of a config ref needs no temporary string).
  /// nullptr when absent.
  ModuleInstance* findInstance(std::string_view id);
  const std::vector<std::unique_ptr<ModuleInstance>>& instances() const {
    return instances_;
  }

  /// Swaps the execution back-end. Defaults to SerialExecutor. May be
  /// called before or after configure(), but not from module code
  /// while a wavefront is being dispatched.
  void setExecutor(std::unique_ptr<Executor> executor);
  Executor& executor() { return *executor_; }

  Environment& env() { return env_; }
  sim::SimEngine& engine() { return engine_; }

  /// Real CPU seconds spent executing module code (Table 3): the thread
  /// CPU time of every executor batch, summed across the threads that
  /// ran it. It also covers the scheduler's per-run loop inside a task.
  double cpuSeconds() const { return cpu_.seconds(); }
  /// The meter behind cpuSeconds(); scopes() counts its clock scopes.
  const CpuMeter& cpuMeter() const { return cpu_; }
  /// Approximate resident footprint of the graph (Table 3).
  std::size_t memoryFootprintBytes() const;
  /// Total module run() invocations (sanity/throughput metrics).
  std::uint64_t totalRuns() const {
    return totalRuns_.load(std::memory_order_relaxed);
  }
  /// Wavefront dispatches performed (each covers >= 1 level).
  std::uint64_t wavefronts() const { return wavefronts_; }

 private:
  friend class InstanceContext;

  // One dispatchable unit: an instance plus why it runs. An instance
  // can appear twice in a level (periodic firing and a satisfied input
  // trigger at the same timestamp) — both runs happen back to back on
  // the same executor task, periodic first, matching the engine-order
  // semantics of the previous inline dispatcher.
  struct ReadyRun {
    ModuleInstance* instance;
    RunReason reason;
  };

  void initializeGraph();
  void wireInputs(ModuleInstance& instance);
  void runInstance(ModuleInstance& instance, RunReason reason);

  // --- wavefront scheduling ---------------------------------------------
  /// Called by InstanceContext::write. During a dispatch the
  /// notification is deferred to the current level's barrier;
  /// otherwise (init-time writes) it fires immediately.
  void noteOutputWritten(ModuleInstance& writer, OutputPort& port);
  /// Counts the update for every listener of `port` and enqueues them
  /// for dispatch.
  void onOutputWritten(OutputPort& port);
  /// Batch form used at the level barrier: stamps and publishes a
  /// producer's whole deferred write set in one pass, counting every
  /// port update per listener but enqueueing each consumer once.
  void publishWrites(const std::vector<OutputPort*>& writes);
  /// Adds an instance to the ready set and arms the dispatch event.
  void enqueueReady(ModuleInstance& instance);
  void scheduleWavefront();
  /// Drains the ready set: groups it by topological level, runs each
  /// level through the executor, merges deferred notifications at the
  /// level barrier, and repeats for newly readied (deeper) levels.
  void dispatchWavefront();
  /// Splits one level's runs into executor tasks: instances sharing an
  /// exclusivity domain form one serial task (configuration order);
  /// all other instances get a task each. Fills groups_/groupCount_
  /// from reused buffers; levels without exclusivity domains take an
  /// allocation-free linear path.
  void buildExclusiveGroups(const std::vector<ReadyRun>& runs);

  sim::SimEngine& engine_;
  Environment env_;
  ModuleRegistry* registry_;
  std::vector<std::unique_ptr<ModuleInstance>> instances_;
  std::unordered_map<std::string, ModuleInstance*, TransparentStringHash,
                     std::equal_to<>>
      instanceIndex_;
  std::unique_ptr<Executor> executor_;

  std::vector<ModuleInstance*> readySet_;
  // Reused dispatch buffers (wavefront hot path; capacity persists so
  // the steady state allocates nothing). frontier_ is indexed by
  // topological level, sized once the DAG is built.
  std::vector<std::vector<ModuleInstance*>> frontier_;
  std::vector<ReadyRun> levelRuns_;
  std::vector<ModuleInstance*> batchTargets_;
  std::vector<std::vector<ReadyRun>> groups_;  // first groupCount_ valid
  std::size_t groupCount_ = 0;
  std::vector<Executor::Task> tasks_;
  bool wavefrontScheduled_ = false;  // dispatch event already queued
  bool dispatching_ = false;         // inside dispatchWavefront
  std::uint64_t writeSeq_ = 0;       // deterministic global write stamp
  std::uint64_t wavefronts_ = 0;
  std::mutex alarmMutex_;  // serializes the wrapped env alarm sink

  CpuMeter cpu_;
  std::atomic<std::uint64_t> totalRuns_{0};
  bool configured_ = false;
};

}  // namespace asdf::core
