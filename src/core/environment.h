// The service environment fpt-core hands to its modules.
//
// fpt-core itself is domain-agnostic: it knows nothing about Hadoop,
// sadc, or RPC daemons. Data-collection modules find their backends
// (the RpcClient, the trained black-box model, the alarm sink) through
// this typed service locator, which the embedding application
// populates before configuring the core. This is what makes the
// framework pluggable in the paper's sense: a new data source ships a
// module plus whatever service it needs, without touching the core.
#pragma once

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <vector>

#include "common/types.h"

namespace asdf::core {

/// An alarm record emitted by sink modules (e.g. `print`): one flag —
/// and optionally one raw anomaly score — per monitored stream, plus
/// the origin labels of those streams.
struct Alarm {
  SimTime time = kNoTime;
  std::string channel;               // emitting sink instance id
  std::vector<double> flags;         // 1.0 = fingerpointed
  std::vector<double> scores;        // raw distances (may be empty)
  std::vector<std::string> origins;  // per-stream origin labels
  /// Per-stream monitoring health (rpc::NodeHealth codes: 0 healthy,
  /// 1 degraded, 2 unmonitorable). Empty when the pipeline has no
  /// fault-tolerant collection layer. A flag of 0 with health 2 means
  /// "don't know", not "not faulty".
  std::vector<double> health;
};

/// Emitted by analysis modules when the monitoring plane itself
/// degrades: the set of unmonitorable peers changed, or the number of
/// surviving (monitorable) peers crossed the quorum threshold.
struct MonitoringEvent {
  SimTime time = kNoTime;
  std::string channel;  // emitting analysis instance id
  int survivors = 0;    // peers still monitorable this window
  int quorum = 0;       // minimum survivors for alarms to be valid
  bool belowQuorum = false;  // alarms are being suppressed
  std::vector<std::string> unmonitorable;  // origin labels, config order
};

class Environment {
 public:
  /// Registers a service pointer under a name. The environment does
  /// not own services; the embedder keeps them alive.
  template <typename T>
  void provide(const std::string& name, T* service) {
    services_.insert_or_assign(
        name, Entry{std::type_index(typeid(T)),
                    const_cast<void*>(static_cast<const void*>(service))});
  }

  /// Looks a service up; returns nullptr when absent, throws
  /// std::logic_error when present under a different type.
  template <typename T>
  T* get(const std::string& name) const {
    const auto it = services_.find(name);
    if (it == services_.end()) return nullptr;
    if (it->second.type != std::type_index(typeid(T))) {
      throw std::logic_error("Environment service '" + name +
                             "' requested with wrong type");
    }
    return static_cast<T*>(it->second.ptr);
  }

  /// Like get(), but missing services are a configuration error.
  template <typename T>
  T& require(const std::string& name) const {
    T* p = get<T>(name);
    if (p == nullptr) {
      throw std::logic_error("Environment service '" + name +
                             "' is not provided");
    }
    return *p;
  }

  /// Sink invoked by alarm-emitting modules; optional.
  std::function<void(const Alarm&)> alarmSink;

  /// Sink invoked by analysis modules on monitoring-plane degradation
  /// transitions; optional. May be called from pool threads — the
  /// embedder's sink must be thread-safe.
  std::function<void(const MonitoringEvent&)> monitoringSink;

 private:
  struct Entry {
    std::type_index type;
    void* ptr;
  };
  std::map<std::string, Entry> services_;
};

}  // namespace asdf::core
