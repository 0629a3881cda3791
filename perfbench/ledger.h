// Measurement primitives of the end-to-end benchmark: percentile
// reporting, pacing lag and alarm latency, and the module decorators
// that observe fpt-core's layers from outside the program.
//
// Layers are measured without touching the program: a RegistryTap
// saves a copy of core::ModuleRegistry::global(), re-registers every
// module type as a wrapper around the saved factory, and restores the
// saved registry when it goes out of scope. The wrappers record into
// a Ledger. The benchmark runs fpt-core with the serial executor, so a
// Ledger is used from one thread only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/registry.h"

namespace perfbench {

/// Seconds on the steady clock.
double wallNow();
/// CPU seconds used by this process (all threads).
double processCpuNow();

/// A fixed computation owned by the benchmark (sorting and hashing
/// generated data, about 25 ms on a 2.1 GHz Xeon); returns its wall
/// duration. Timed next to each unpaced experiment, it gauges how fast
/// the host runs at that moment, so timings can be corrected for the
/// host's shifting speed (shared machines drift by 20% and more over
/// tens of seconds).
double referenceSeconds();

/// The duration of referenceSeconds() that corrected timings are
/// scaled to: corrected = measured * kReferenceNominalS / reference.
inline constexpr double kReferenceNominalS = 0.025;

// --- percentiles ----------------------------------------------------------

/// Linear-interpolated percentile (0..100) of unsorted samples; 0 when
/// there are none.
double percentile(std::vector<double> samples, double pct);

/// A tail figure: the highest percentile, no higher than the one
/// asked for, that has at least `kMinBeyond` samples beyond it.
struct Tail {
  double pct = 0.0;    // the percentile reported
  double value = 0.0;
  std::size_t n = 0;   // samples it rests on
};
inline constexpr std::size_t kMinBeyond = 10;

/// Picks from the ladder 99.9, 99, 95, 90, 75, 50 (capped at `wanted`)
/// the highest percentile with at least kMinBeyond samples beyond it;
/// the median when even that is not supported.
Tail tail(const std::vector<double>& samples, double wanted);

/// "p95 of n=217", or "p90 of n=120 (too few for p95)".
std::string describeTail(const Tail& t, double wanted);

// --- pacing ---------------------------------------------------------------

/// Per virtual second t: wall time of the first collection at t.
using TickStarts = std::map<double, double>;

/// Due time of every tick on an open-loop schedule advancing `scale`
/// virtual seconds per wall second. The origin is taken from the
/// least-late tick, so a stall delays the due times of no tick and is
/// charged to every tick it made late.
std::map<double, double> dueTimes(const TickStarts& starts, double scale);

/// start(t) - due(t) for every tick, in milliseconds.
std::vector<double> lagsMs(const TickStarts& starts,
                           const std::map<double, double>& due);

/// A delivered alarm: the window end it reports and the wall time the
/// print sink finished delivering it.
struct Delivery {
  double windowEnd = 0.0;
  double wall = 0.0;
};

/// delivery - due(windowEnd) in milliseconds, for every delivery whose
/// window end has a due time.
std::vector<double> alarmLatenciesMs(const std::vector<Delivery>& deliveries,
                                     const std::map<double, double>& due);

// --- the ledger -----------------------------------------------------------

/// The module types of the combined pipeline, in report order.
const std::vector<std::string>& pipelineTypes();

/// One module run observed from outside.
struct Span {
  int type = 0;        // index into Ledger::types()
  int instance = 0;    // index into Ledger::instances()
  double start = 0.0;  // wall seconds
  double end = 0.0;
  double tick = 0.0;   // virtual time: the id shared by one tick's spans
};

/// What the decorators record. In a traced run every module run leaves
/// a Span; in an untraced run only the collections (first start per
/// tick) and the print sinks' deliveries are stamped, one clock read
/// each.
class Ledger {
 public:
  explicit Ledger(bool traced) : traced_(traced) {}

  bool traced() const { return traced_; }

  int typeIndex(const std::string& type);
  int instanceIndex(const std::string& id);
  const std::vector<std::string>& types() const { return types_; }
  const std::vector<std::string>& instances() const { return instances_; }

  void addSpan(const Span& span) { spans_.push_back(span); }
  /// True for the first collection run of each tick, which the caller
  /// then stamps with collectionStart().
  bool firstCollection(double tick) {
    if (tick == lastTick_) return false;
    lastTick_ = tick;
    return true;
  }
  void collectionStart(double tick, double wall) {
    tickStarts_.try_emplace(tick, wall);
  }
  /// A print sink delivered the alarm for `windowEnd`.
  void delivered(double windowEnd, double wall) {
    deliveries_.push_back({windowEnd, wall});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const TickStarts& tickStarts() const { return tickStarts_; }
  const std::vector<Delivery>& deliveries() const { return deliveries_; }

  /// Forgets the recorded runs (types and instances are kept).
  void clear();

 private:
  bool traced_;
  std::vector<std::string> types_;
  std::vector<std::string> instances_;
  std::map<std::string, int> typeIds_;
  std::map<std::string, int> instanceIds_;
  std::vector<Span> spans_;
  TickStarts tickStarts_;
  double lastTick_ = -1.0;
  std::vector<Delivery> deliveries_;
};

/// Per virtual second t, when the core was free to start t: the end of
/// the last span of the tick before (the first tick: `rootStart`). On
/// an unpaced run the lag behind these times is the wait for the
/// substrate (simulator or archive) between ticks.
std::map<double, double> readyTimes(const std::vector<Span>& spans,
                                    double rootStart);

/// Decorates module factories in core::ModuleRegistry::global() for
/// the lifetime of the object and restores the saved registry after.
/// Traced: every type records spans. Untraced: only sadc, hadoop_log
/// and print are wrapped, to stamp collection starts and deliveries.
class RegistryTap {
 public:
  explicit RegistryTap(Ledger& ledger);
  ~RegistryTap();
  RegistryTap(const RegistryTap&) = delete;
  RegistryTap& operator=(const RegistryTap&) = delete;

 private:
  asdf::core::ModuleRegistry saved_;
};

}  // namespace perfbench
