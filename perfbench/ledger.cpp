#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <limits>
#include <memory>
#include <unordered_map>

#include "common/strings.h"
#include "core/module.h"

namespace perfbench {

using asdf::core::ModuleContext;
using asdf::core::ModuleRegistry;
using asdf::core::RunReason;

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double referenceSeconds() {
  static volatile double sink = 0.0;
  const double start = wallNow();
  std::uint64_t x = 12345;
  const auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 11;
  };
  std::vector<double> values(200000);
  for (double& v : values) v = static_cast<double>(next());
  std::sort(values.begin(), values.end());
  std::unordered_map<std::uint64_t, double> sums;
  for (std::size_t i = 0; i < 100000; ++i) sums[next() % 50000] += values[i];
  double total = 0.0;
  for (const auto& [key, sum] : sums) total += sum;
  sink = sink + total;
  return wallNow() - start;
}

double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(pct, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

Tail tail(const std::vector<double>& samples, double wanted) {
  static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  Tail out;
  out.n = samples.size();
  out.pct = 50.0;
  const double n = static_cast<double>(samples.size());
  for (double p : kLadder) {
    if (p > wanted) continue;
    if (n * (100.0 - p) / 100.0 >= static_cast<double>(kMinBeyond) - 1e-9) {
      out.pct = p;
      break;
    }
  }
  out.value = percentile(samples, out.pct);
  return out;
}

std::string describeTail(const Tail& t, double wanted) {
  std::string s = asdf::strformat("p%g of n=%zu", t.pct, t.n);
  if (t.pct < wanted) s += asdf::strformat(" (too few for p%g)", wanted);
  return s;
}

std::map<double, double> dueTimes(const TickStarts& starts, double scale) {
  std::map<double, double> due;
  if (starts.empty()) return due;
  double origin = std::numeric_limits<double>::infinity();
  for (const auto& [tick, wall] : starts) {
    origin = std::min(origin, wall - tick / scale);
  }
  for (const auto& [tick, wall] : starts) due[tick] = origin + tick / scale;
  return due;
}

std::vector<double> lagsMs(const TickStarts& starts,
                           const std::map<double, double>& due) {
  std::vector<double> out;
  out.reserve(starts.size());
  for (const auto& [tick, wall] : starts) {
    const auto it = due.find(tick);
    if (it != due.end()) out.push_back(1e3 * (wall - it->second));
  }
  return out;
}

std::vector<double> alarmLatenciesMs(const std::vector<Delivery>& deliveries,
                                     const std::map<double, double>& due) {
  std::vector<double> out;
  out.reserve(deliveries.size());
  for (const Delivery& d : deliveries) {
    const auto it = due.find(d.windowEnd);
    if (it != due.end()) out.push_back(1e3 * (d.wall - it->second));
  }
  return out;
}

const std::vector<std::string>& pipelineTypes() {
  static const std::vector<std::string> kTypes = {
      "sadc",     "hadoop_log",  "knn",         "ibuffer",
      "mavgvec",  "analysis_bb", "analysis_wb", "print"};
  return kTypes;
}

int Ledger::typeIndex(const std::string& type) {
  const auto [it, added] =
      typeIds_.try_emplace(type, static_cast<int>(types_.size()));
  if (added) types_.push_back(type);
  return it->second;
}

int Ledger::instanceIndex(const std::string& id) {
  const auto [it, added] =
      instanceIds_.try_emplace(id, static_cast<int>(instances_.size()));
  if (added) instances_.push_back(id);
  return it->second;
}

void Ledger::clear() {
  spans_.clear();
  tickStarts_.clear();
  lastTick_ = -1.0;
  deliveries_.clear();
}

std::map<double, double> readyTimes(const std::vector<Span>& spans,
                                    double rootStart) {
  std::map<double, double> lastEnd;
  for (const Span& s : spans) {
    double& end = lastEnd.try_emplace(s.tick, s.end).first->second;
    end = std::max(end, s.end);
  }
  std::map<double, double> ready;
  double previous = rootStart;
  for (const auto& [tick, end] : lastEnd) {
    ready[tick] = previous;
    previous = end;
  }
  return ready;
}

namespace {

enum class Role { kCollect, kPrint, kOther };

Role roleOf(const std::string& type) {
  if (type == "sadc" || type == "hadoop_log") return Role::kCollect;
  if (type == "print") return Role::kPrint;
  return Role::kOther;
}

/// Wraps one module instance. Collections stamp the first start of
/// each tick; print sinks stamp the end of every run that delivers an
/// alarm (the print module's own delivery condition, read before it
/// runs); traced runs also record a span for every run.
class TapModule final : public asdf::core::Module {
 public:
  TapModule(std::unique_ptr<asdf::core::Module> inner, Ledger& ledger,
            int type, Role role)
      : inner_(std::move(inner)), ledger_(ledger), type_(type), role_(role) {}

  void init(ModuleContext& ctx) override {
    inner_->init(ctx);
    instance_ = ledger_.instanceIndex(ctx.instanceId());
    if (role_ != Role::kPrint) return;
    const std::vector<std::string> names = ctx.inputNames();
    input_ = names.front();  // print's init rejects input-less sinks
    const std::size_t width = ctx.inputWidth(input_);
    for (std::size_t i = 0; i < width; ++i) {
      if (ctx.inputPortName(input_, i) == "alarms") alarms_ = i;
    }
  }

  void run(ModuleContext& ctx, RunReason reason) override {
    const double tick = ctx.now();
    const bool traced = ledger_.traced();
    double start = 0.0;
    if (traced) start = wallNow();
    if (role_ == Role::kCollect && ledger_.firstCollection(tick)) {
      ledger_.collectionStart(tick, traced ? start : wallNow());
    }
    double windowEnd = 0.0;
    const bool delivers = role_ == Role::kPrint && delivering(ctx, windowEnd);
    inner_->run(ctx, reason);
    if (!traced && !delivers) return;
    const double end = wallNow();
    if (delivers) ledger_.delivered(windowEnd, end);
    if (traced) ledger_.addSpan({type_, instance_, start, end, tick});
  }

 private:
  bool delivering(ModuleContext& ctx, double& windowEnd) const {
    if (!ctx.inputHasData(input_, alarms_) ||
        !ctx.inputFresh(input_, alarms_)) {
      return false;
    }
    const asdf::core::Sample& sample = ctx.input(input_, alarms_);
    if (!asdf::core::isVector(sample.value)) return false;
    windowEnd = sample.time;
    return true;
  }

  std::unique_ptr<asdf::core::Module> inner_;
  Ledger& ledger_;
  int type_;
  Role role_;
  int instance_ = 0;
  std::string input_;
  std::size_t alarms_ = 0;
};

}  // namespace

RegistryTap::RegistryTap(Ledger& ledger) : saved_(ModuleRegistry::global()) {
  const auto original = std::make_shared<const ModuleRegistry>(saved_);
  ModuleRegistry& global = ModuleRegistry::global();
  for (const std::string& name : saved_.typeNames()) {
    const Role role = roleOf(name);
    if (!ledger.traced() && role == Role::kOther) continue;
    const int type = ledger.typeIndex(name);
    global.registerType(name, [original, name, &ledger, type, role] {
      return std::make_unique<TapModule>(original->create(name), ledger, type,
                                         role);
    });
  }
}

RegistryTap::~RegistryTap() { ModuleRegistry::global() = saved_; }

}  // namespace perfbench
