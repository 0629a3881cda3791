#include "core/fpt_core.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <numeric>
#include <set>

#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"

namespace asdf::core {

FptCore::FptCore(sim::SimEngine& engine, Environment env,
                 ModuleRegistry* registry)
    : engine_(engine),
      env_(std::move(env)),
      registry_(registry != nullptr ? registry : &ModuleRegistry::global()),
      executor_(std::make_unique<SerialExecutor>()) {
  // Parallel executors may deliver alarms from several print sinks of
  // one wavefront level concurrently; serialize the embedder's sink so
  // it never needs its own locking. (Alarm *sets* stay deterministic;
  // only intra-level delivery order may vary across executors.)
  if (env_.alarmSink) {
    auto inner = std::move(env_.alarmSink);
    env_.alarmSink = [this, inner](const Alarm& alarm) {
      std::lock_guard<std::mutex> lock(alarmMutex_);
      inner(alarm);
    };
  }
}

FptCore::~FptCore() = default;

void FptCore::configureFromText(const std::string& configText) {
  configure(parseIni(configText));
}

void FptCore::configureFromFile(const std::string& path) {
  configure(parseIniFile(path));
}

ModuleInstance* FptCore::findInstance(std::string_view id) {
  const auto it = instanceIndex_.find(id);
  return it == instanceIndex_.end() ? nullptr : it->second;
}

void FptCore::setExecutor(std::unique_ptr<Executor> executor) {
  assert(executor != nullptr);
  assert(!dispatching_);
  executor_ = std::move(executor);
}

void FptCore::configure(const IniFile& config) {
  if (configured_) {
    throw ConfigError("fpt-core is already configured");
  }
  configured_ = true;

  // Step 1: a vertex per module instance in the configuration file,
  // indexed by id for O(1) lookups everywhere downstream.
  int anonymous = 0;
  for (const auto& section : config.sections) {
    if (!registry_->has(section.name)) {
      throw ConfigError(strformat(
          "config line %d: unknown module type '%s'", section.line,
          section.name.c_str()));
    }
    std::string id = section.get("id");
    if (id.empty()) {
      id = strformat("%s%d", section.name.c_str(), anonymous++);
    }
    if (id.find('.') != std::string::npos || id.find('@') != std::string::npos) {
      throw ConfigError(strformat(
          "config line %d: instance id '%s' may not contain '.' or '@'",
          section.line, id.c_str()));
    }
    auto instance = std::make_unique<ModuleInstance>(
        *this, id, section.name, section, registry_->create(section.name));
    instance->order_ = static_cast<int>(instances_.size());
    if (!instanceIndex_.emplace(id, instance.get()).second) {
      throw ConfigError(strformat("config line %d: duplicate instance id '%s'",
                                  section.line, id.c_str()));
    }
    instances_.push_back(std::move(instance));
  }

  initializeGraph();
}

void FptCore::initializeGraph() {
  // Steps 2-4 of Section 3.3, in O(V + E): annotate each instance with
  // its count of unsatisfied (unique) dependencies and a reverse
  // adjacency list producer -> dependents. Initializing an instance
  // decrements its dependents' counts; only instances whose count just
  // reached zero join the queue — no rescan of the whole instance set
  // per initialization.
  std::unordered_map<ModuleInstance*, std::size_t> unsatisfied;
  std::unordered_map<ModuleInstance*, std::vector<ModuleInstance*>>
      producersOf;
  std::unordered_map<ModuleInstance*, std::vector<ModuleInstance*>>
      dependentsOf;
  std::deque<ModuleInstance*> queue;
  for (auto& inst : instances_) {
    std::set<std::string> deps;
    for (auto& dep : inst->dependencyIds()) deps.insert(std::move(dep));
    std::size_t pending = 0;
    for (const std::string& dep : deps) {
      ++pending;
      // Unknown producers keep the count above zero forever; the
      // diagnostic pass below names them.
      if (ModuleInstance* producer = findInstance(dep)) {
        producersOf[inst.get()].push_back(producer);
        dependentsOf[producer].push_back(inst.get());
      }
    }
    unsatisfied[inst.get()] = pending;
    if (pending == 0) queue.push_back(inst.get());
  }

  std::size_t initialized = 0;
  while (!queue.empty()) {
    ModuleInstance* inst = queue.front();
    queue.pop_front();
    if (inst->initialized_) continue;

    wireInputs(*inst);
    InstanceContext ctx(*this, *inst);
    inst->module_->init(ctx);
    inst->initialized_ = true;
    ++initialized;

    // Topological level: producers are guaranteed initialized first.
    int level = 0;
    for (ModuleInstance* producer : producersOf[inst]) {
      level = std::max(level, producer->level_ + 1);
    }
    inst->level_ = level;

    if (inst->outputs_.empty() && inst->inputSpecs_.empty()) {
      logWarn("fpt-core: instance '" + inst->id() +
              "' has neither inputs nor outputs");
    }
    if (inst->periodicInterval_ > 0.0) {
      ModuleInstance* target = inst;
      engine_.addPeriodic(
          inst->periodicInterval_,
          [this, target] {
            target->queuedPeriodic_ = true;
            enqueueReady(*target);
          },
          inst->periodicInterval_);
    }

    // This instance's outputs now exist; dependents with no other
    // missing producers become initializable.
    for (ModuleInstance* dependent : dependentsOf[inst]) {
      if (dependent->initialized_) continue;
      if (--unsatisfied[dependent] == 0) queue.push_back(dependent);
    }
  }

  if (initialized != instances_.size()) {
    // Diagnose: name the stuck instances and the missing dependencies
    // (unknown producer ids or cycles).
    std::string detail;
    for (auto& inst : instances_) {
      if (inst->initialized_) continue;
      detail += " '" + inst->id() + "' waits on {";
      for (const auto& dep : inst->dependencyIds()) {
        ModuleInstance* producer = findInstance(dep);
        if (producer == nullptr) {
          detail += dep + "(unknown) ";
        } else if (!producer->initialized_) {
          detail += dep + " ";
        }
      }
      detail += "}";
    }
    throw ConfigError(
        "fpt-core: DAG construction failed; uninitializable instances:" +
        detail);
  }

  // Size the dispatcher's level-indexed frontier buckets once; the
  // wavefront loop then reuses them without rehashing or tree churn.
  int maxLevel = 0;
  for (const auto& inst : instances_) {
    maxLevel = std::max(maxLevel, inst->level_);
  }
  frontier_.resize(static_cast<std::size_t>(maxLevel) + 1);
}

void FptCore::wireInputs(ModuleInstance& instance) {
  for (const auto& spec : instance.inputSpecs_) {
    std::vector<OutputPort*> ports;
    if (spec.ref[0] == '@') {
      const std::string id = spec.ref.substr(1);
      ModuleInstance* producer = findInstance(id);
      if (producer == nullptr) {
        throw ConfigError(strformat(
            "config line %d: input references unknown instance '%s'",
            spec.line, id.c_str()));
      }
      if (producer->outputs_.empty()) {
        throw ConfigError(strformat(
            "config line %d: instance '%s' has no outputs to bind",
            spec.line, id.c_str()));
      }
      for (auto& port : producer->outputs_) ports.push_back(port.get());
    } else {
      const std::size_t dot = spec.ref.find('.');
      if (dot == std::string::npos) {
        throw ConfigError(strformat(
            "config line %d: input ref '%s' must be '@instance' or "
            "'instance.output'",
            spec.line, spec.ref.c_str()));
      }
      const std::string id = spec.ref.substr(0, dot);
      const std::string outputName = spec.ref.substr(dot + 1);
      ModuleInstance* producer = findInstance(id);
      if (producer == nullptr) {
        throw ConfigError(strformat(
            "config line %d: input references unknown instance '%s'",
            spec.line, id.c_str()));
      }
      OutputPort* port = producer->findOutput(outputName);
      if (port == nullptr) {
        throw ConfigError(strformat(
            "config line %d: instance '%s' has no output '%s'", spec.line,
            id.c_str(), outputName.c_str()));
      }
      ports.push_back(port);
    }

    if (instance.inputs_.find(spec.inputName) == instance.inputs_.end()) {
      instance.inputOrder_.push_back(spec.inputName);
    }
    auto& conns = instance.inputs_[spec.inputName];
    for (OutputPort* port : ports) {
      conns.push_back(InputConnection{port, 0});
      auto& subs = port->owner->subscribers_;
      if (std::find(subs.begin(), subs.end(), &instance) == subs.end()) {
        subs.push_back(&instance);
      }
      // Per-port listener list: lets a write publish by walking exactly
      // the consumers of that port (deduplicated so one consumer with
      // several connections to the port still counts one update per
      // write, matching the historical notification semantics).
      auto& listeners = port->listeners;
      if (std::find(listeners.begin(), listeners.end(), &instance) ==
          listeners.end()) {
        listeners.push_back(&instance);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wavefront scheduling

void FptCore::noteOutputWritten(ModuleInstance& writer, OutputPort& port) {
  if (dispatching_) {
    // Deferred: the dispatcher drains this at the level barrier and
    // merges notifications in deterministic order. Only the writer's
    // own executor thread appends here.
    writer.deferredWrites_.push_back(&port);
    return;
  }
  // Init-time (or out-of-band) write: notify immediately.
  port.writeSeq = ++writeSeq_;
  onOutputWritten(port);
}

void FptCore::onOutputWritten(OutputPort& port) {
  for (ModuleInstance* sub : port.listeners) {
    ++sub->pendingUpdates_;
    sub->runQueued_ = true;
    enqueueReady(*sub);
  }
}

void FptCore::publishWrites(const std::vector<OutputPort*>& writes) {
  // Stamp every port first (write order = deterministic stamp order),
  // then deliver the whole batch: pendingUpdates_ counts one update
  // per port-write per listener exactly as the per-port path would,
  // but each distinct consumer is enqueued once.
  batchTargets_.clear();
  for (OutputPort* port : writes) {
    port->writeSeq = ++writeSeq_;
    for (ModuleInstance* sub : port->listeners) {
      ++sub->pendingUpdates_;
      if (!sub->inPublishBatch_) {
        sub->inPublishBatch_ = true;
        batchTargets_.push_back(sub);
      }
    }
  }
  for (ModuleInstance* sub : batchTargets_) {
    sub->inPublishBatch_ = false;
    sub->runQueued_ = true;
    enqueueReady(*sub);
  }
}

void FptCore::enqueueReady(ModuleInstance& instance) {
  if (!instance.inReadySet_) {
    instance.inReadySet_ = true;
    readySet_.push_back(&instance);
  }
  if (!dispatching_) scheduleWavefront();
}

void FptCore::scheduleWavefront() {
  if (wavefrontScheduled_) return;
  wavefrontScheduled_ = true;
  engine_.scheduleAfter(0.0, [this] { dispatchWavefront(); });
}

void FptCore::buildExclusiveGroups(const std::vector<ReadyRun>& runs) {
  const auto appendToGroup = [this](std::size_t g, const ReadyRun& run) {
    if (g == groups_.size()) groups_.emplace_back();
    if (g >= groupCount_) {
      groups_[g].clear();
      groupCount_ = g + 1;
    }
    groups_[g].push_back(run);
  };
  groupCount_ = 0;

  // Fast path: no instance in this level declares an exclusivity
  // domain. Grouping then only merges the two entries of one instance
  // (periodic + triggered), which are always adjacent — a single
  // linear pass over reused buffers, no allocation in steady state.
  bool anyDomain = false;
  for (const ReadyRun& run : runs) {
    if (!run.instance->exclusiveDomains_.empty()) {
      anyDomain = true;
      break;
    }
  }
  if (!anyDomain) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (i > 0 && runs[i].instance == runs[i - 1].instance) {
        groups_[groupCount_ - 1].push_back(runs[i]);
      } else {
        appendToGroup(groupCount_, runs[i]);
      }
    }
    return;
  }

  // Union-find over the level's runs: both entries of one instance and
  // all instances sharing an exclusivity domain collapse into one
  // group, which the executor runs as a single serial task.
  std::vector<std::size_t> parent(runs.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&parent](std::size_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  const auto unite = [&](std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };

  std::unordered_map<const ModuleInstance*, std::size_t> firstOfInstance;
  std::unordered_map<std::string, std::size_t> firstOfDomain;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto [instIt, instNew] =
        firstOfInstance.try_emplace(runs[i].instance, i);
    if (!instNew) unite(i, instIt->second);
    for (const std::string& domain : runs[i].instance->exclusiveDomains_) {
      const auto [domIt, domNew] = firstOfDomain.try_emplace(domain, i);
      if (!domNew) unite(i, domIt->second);
    }
  }

  std::unordered_map<std::size_t, std::size_t> groupOfRoot;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::size_t root = find(i);
    const auto [it, isNew] = groupOfRoot.try_emplace(root, groupCount_);
    appendToGroup(it->second, runs[i]);
  }
}

void FptCore::dispatchWavefront() {
  wavefrontScheduled_ = false;
  if (readySet_.empty()) return;
  dispatching_ = true;
  ++wavefronts_;

  // The working frontier, bucketed by topological level in reused
  // member buffers (their capacity persists across wavefronts, so the
  // steady state allocates nothing here). Notifications merged at a
  // level barrier can only ready *deeper* instances (a subscriber's
  // level strictly exceeds its producer's), so one ascending sweep
  // covers everything this wavefront can reach.
  const auto absorbReadySet = [&] {
    for (ModuleInstance* inst : readySet_) {
      inst->inReadySet_ = false;
      frontier_[static_cast<std::size_t>(inst->level_)].push_back(inst);
    }
    readySet_.clear();
  };
  absorbReadySet();

  for (std::size_t lvl = 0; lvl < frontier_.size(); ++lvl) {
    std::vector<ModuleInstance*>& levelInstances = frontier_[lvl];
    if (levelInstances.empty()) continue;
    std::sort(levelInstances.begin(), levelInstances.end(),
              [](const ModuleInstance* a, const ModuleInstance* b) {
                return a->order_ < b->order_;
              });

    levelRuns_.clear();
    for (ModuleInstance* inst : levelInstances) {
      const bool periodic = inst->queuedPeriodic_;
      inst->queuedPeriodic_ = false;
      const bool triggered = inst->runQueued_;
      inst->runQueued_ = false;
      if (periodic) levelRuns_.push_back(ReadyRun{inst, RunReason::kPeriodic});
      if (triggered && inst->pendingUpdates_ >= inst->inputTrigger_) {
        inst->pendingUpdates_ = 0;
        levelRuns_.push_back(ReadyRun{inst, RunReason::kInputsUpdated});
      }
    }
    levelInstances.clear();
    if (levelRuns_.empty()) continue;

    buildExclusiveGroups(levelRuns_);
    tasks_.clear();
    for (std::size_t g = 0; g < groupCount_; ++g) {
      const std::vector<ReadyRun>* group = &groups_[g];
      tasks_.push_back([this, group] {
        for (const ReadyRun& run : *group) {
          runInstance(*run.instance, run.reason);
        }
      });
    }
    try {
      executor_->runBatch(tasks_, cpu_);
    } catch (...) {
      for (const ReadyRun& run : levelRuns_) {
        run.instance->deferredWrites_.clear();
      }
      for (auto& bucket : frontier_) bucket.clear();
      dispatching_ = false;
      throw;
    }

    // Level barrier: every run of this level has completed. Publish
    // each producer's whole deferred write set in deterministic order
    // — instances in configuration order, each instance's writes in
    // its own write order — regardless of how the executor interleaved
    // the runs. (No module code runs during publishing, so draining in
    // place is safe; clear() keeps the buffer's capacity.)
    for (const ReadyRun& run : levelRuns_) {
      ModuleInstance* inst = run.instance;
      if (inst->deferredWrites_.empty()) continue;
      publishWrites(inst->deferredWrites_);
      inst->deferredWrites_.clear();
    }
    absorbReadySet();
  }

  dispatching_ = false;
  if (!readySet_.empty()) scheduleWavefront();
}

void FptCore::runInstance(ModuleInstance& instance, RunReason reason) {
  totalRuns_.fetch_add(1, std::memory_order_relaxed);
  ++instance.runs_;
  InstanceContext ctx(*this, instance);
  instance.module_->run(ctx, reason);
  // Mark everything read: freshness is relative to the end of the run.
  for (auto& [name, conns] : instance.inputs_) {
    for (auto& conn : conns) conn.lastSeenVersion = conn.port->version;
  }
}

std::size_t FptCore::memoryFootprintBytes() const {
  std::size_t total = sizeof(FptCore);
  for (const auto& inst : instances_) {
    total += sizeof(ModuleInstance) + 256 /* module object estimate */;
    for (const auto& port : inst->outputs_) {
      total += sizeof(OutputPort);
      if (const auto* vec = std::get_if<VecBuf>(&port->latest.value)) {
        total += vec->payloadBytes();
      } else if (const auto* str =
                     std::get_if<std::string>(&port->latest.value)) {
        total += str->capacity();
      }
    }
    for (const auto& [name, conns] : inst->inputs_) {
      total += name.capacity() + conns.size() * sizeof(InputConnection);
    }
  }
  return total;
}

}  // namespace asdf::core
