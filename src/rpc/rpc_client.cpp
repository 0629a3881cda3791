#include "rpc/rpc_client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "rpc/payloads.h"

namespace asdf::rpc {
namespace {

// Per-node attempt logs are bounded so week-long runs under faults
// cannot grow them without limit; the determinism tests only need the
// early schedule. Only rounds that retried or failed are logged (a
// first-attempt success is fully described by the round counters), so
// a healthy run keeps its logs empty.
constexpr std::size_t kMaxLoggedAttempts = 65536;

std::uint64_t mixSeed(std::uint64_t seed, NodeId node) {
  return seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(node + 1);
}

}  // namespace

const char* daemonName(Daemon d) {
  switch (d) {
    case Daemon::kSadc:
      return "sadc_rpcd";
    case Daemon::kHadoopLog:
      return "hadoop_log_rpcd";
    case Daemon::kStrace:
      return "strace_rpcd";
  }
  return "unknown";
}

const char* healthName(NodeHealth h) {
  switch (h) {
    case NodeHealth::kHealthy:
      return "healthy";
    case NodeHealth::kDegraded:
      return "degraded";
    case NodeHealth::kUnmonitorable:
      return "unmonitorable";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// MonitoringFaultBoard

void MonitoringFaultBoard::setCrashed(NodeId node, Daemon d, bool crashed) {
  nodes_[node].crashed[static_cast<int>(d)] = crashed;
}

void MonitoringFaultBoard::setHung(NodeId node, Daemon d, bool hung) {
  nodes_[node].hung[static_cast<int>(d)] = hung;
}

void MonitoringFaultBoard::setSlowFactor(NodeId node, Daemon d,
                                         double factor) {
  nodes_[node].slow[static_cast<int>(d)] = factor;
}

void MonitoringFaultBoard::setPartitioned(NodeId node, bool partitioned) {
  nodes_[node].partitioned = partitioned;
}

const MonitoringFaultBoard::NodeFaultState* MonitoringFaultBoard::find(
    NodeId node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

bool MonitoringFaultBoard::crashed(NodeId node, Daemon d) const {
  const NodeFaultState* s = find(node);
  return s != nullptr && s->crashed[static_cast<int>(d)];
}

bool MonitoringFaultBoard::hung(NodeId node, Daemon d) const {
  const NodeFaultState* s = find(node);
  return s != nullptr && s->hung[static_cast<int>(d)];
}

double MonitoringFaultBoard::slowFactor(NodeId node, Daemon d) const {
  const NodeFaultState* s = find(node);
  return s == nullptr ? 1.0 : s->slow[static_cast<int>(d)];
}

bool MonitoringFaultBoard::partitioned(NodeId node) const {
  const NodeFaultState* s = find(node);
  return s != nullptr && s->partitioned;
}

// ---------------------------------------------------------------------------
// CircuitBreaker

CircuitBreaker::State CircuitBreaker::state(SimTime now) const {
  if (!open_) return State::kClosed;
  return now >= probeAt_ ? State::kHalfOpen : State::kOpen;
}

bool CircuitBreaker::allowRound(SimTime now) const {
  return state(now) != State::kOpen;
}

void CircuitBreaker::onRoundSuccess(SimTime) {
  consecutiveFailures_ = 0;
  open_ = false;
  probeAt_ = kNoTime;
}

void CircuitBreaker::onRoundFailure(SimTime now) {
  ++consecutiveFailures_;
  if (open_) {
    // A failed HALF_OPEN probe: back to OPEN for a fresh interval.
    probeAt_ = now + recovery_;
    return;
  }
  if (consecutiveFailures_ >= threshold_) {
    open_ = true;
    probeAt_ = now + recovery_;
    ++opens_;
  }
}

// ---------------------------------------------------------------------------
// NodeHealthRegistry

void NodeHealthRegistry::registerNode(NodeId node) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.try_emplace(node);
}

void NodeHealthRegistry::markSuccess(NodeId node, Daemon d, SimTime now,
                                     bool degraded) {
  std::lock_guard<std::mutex> lock(mutex_);
  ChannelEntry& e = entries_[node][static_cast<int>(d)];
  e.health = degraded ? NodeHealth::kDegraded : NodeHealth::kHealthy;
  e.lastSuccess = now;
  ++e.successes;
}

void NodeHealthRegistry::markFailure(NodeId node, Daemon d, SimTime now) {
  std::lock_guard<std::mutex> lock(mutex_);
  ChannelEntry& e = entries_[node][static_cast<int>(d)];
  e.health = NodeHealth::kUnmonitorable;
  (void)now;
  ++e.failures;
}

NodeHealth NodeHealthRegistry::channelHealth(NodeId node, Daemon d) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(node);
  if (it == entries_.end()) return NodeHealth::kHealthy;
  return it->second[static_cast<int>(d)].health;
}

NodeHealth NodeHealthRegistry::aggregate(NodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(node);
  if (it == entries_.end()) return NodeHealth::kHealthy;
  NodeHealth worst = NodeHealth::kHealthy;
  for (int d = 0; d < kDaemonCount; ++d) {
    const ChannelEntry& e = it->second[d];
    // Channels that have never been polled (e.g. strace without an
    // strace module) carry no signal.
    if (e.successes == 0 && e.failures == 0) continue;
    worst = std::max(worst, e.health,
                     [](NodeHealth a, NodeHealth b) {
                       return static_cast<int>(a) < static_cast<int>(b);
                     });
  }
  return worst;
}

double NodeHealthRegistry::staleness(NodeId node, Daemon d,
                                     SimTime now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(node);
  if (it == entries_.end()) return 0.0;
  const ChannelEntry& e = it->second[static_cast<int>(d)];
  if (e.lastSuccess == kNoTime) {
    return e.failures > 0 ? now : 0.0;
  }
  return std::max(0.0, now - e.lastSuccess);
}

std::vector<NodeId> NodeHealthRegistry::nodes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<NodeId> out;
  out.reserve(entries_.size());
  for (const auto& [id, e] : entries_) out.push_back(id);
  return out;
}

// ---------------------------------------------------------------------------
// RpcClient

RpcClient::RpcClient(hadoop::Cluster& cluster, RpcHub& hub, RpcPolicy policy,
                     std::uint64_t seed)
    : cluster_(&cluster), hub_(&hub), policy_(policy) {
  for (hadoop::Node* node : cluster.slaveNodes()) {
    states_.emplace(node->id(),
                    NodeState(mixSeed(seed, node->id()), policy_));
    registry_.registerNode(node->id());
  }
}

RpcClient::RpcClient(LiveCollector& live, RpcPolicy policy,
                     std::uint64_t seed, bool realBackoff)
    : live_(&live), realBackoff_(realBackoff), policy_(policy) {
  for (NodeId node = 1; node <= live.slaves(); ++node) {
    states_.emplace(node, NodeState(mixSeed(seed, node), policy_));
    registry_.registerNode(node);
    // One logical connection per node per channel, mirroring RpcHub's
    // per-daemon connects so static-overhead accounting matches.
    liveTransports_.channel("sadc-tcp").recordConnect();
    liveTransports_.channel("hl-tt-tcp").recordConnect();
    liveTransports_.channel("hl-dn-tcp").recordConnect();
    liveTransports_.channel("strace-tcp").recordConnect();
  }
}

RpcClient::NodeState& RpcClient::state(NodeId node) {
  return states_.at(node);
}

const RpcClient::NodeState& RpcClient::state(NodeId node) const {
  return states_.at(node);
}

bool RpcClient::attemptSucceeds(NodeState& st, NodeId node, Daemon d,
                                double& costSeconds) {
  if (board_.partitioned(node) || board_.crashed(node, d)) {
    // Connection refused / unreachable: fails within one RTT.
    costSeconds = policy_.baseLatencySeconds;
    return false;
  }
  if (board_.hung(node, d)) {
    costSeconds = policy_.timeoutSeconds;
    return false;
  }
  const double latency =
      policy_.baseLatencySeconds * board_.slowFactor(node, d);
  if (latency > policy_.timeoutSeconds) {
    costSeconds = policy_.timeoutSeconds;
    return false;
  }
  const double loss = cluster_->node(node).nic().lossRate();
  if (loss > 0.0 &&
      st.rng.bernoulli(std::pow(loss, policy_.lossFailureExponent))) {
    // Enough retransmissions were lost that the attempt blew its
    // timeout — the PacketLoss fault degrades the monitoring plane too.
    costSeconds = policy_.timeoutSeconds;
    return false;
  }
  costSeconds = latency;
  return true;
}

RpcClient::RoundOutcome RpcClient::round(NodeId node, Daemon d,
                                         const std::string& channelName,
                                         SimTime now) {
  NodeState& st = state(node);
  ++st.rounds;
  RoundOutcome out;

  if (!st.breaker.allowRound(now)) {
    ++st.fastFails;
    ++st.failedRounds;
    registry_.markFailure(node, d, now);
    return out;  // attempts == 0: never touched the wire
  }
  // A HALF_OPEN breaker sends exactly one probe; retrying a probe would
  // defeat the point of easing back in.
  const bool probing = st.breaker.state(now) == CircuitBreaker::State::kHalfOpen;
  const int maxAttempts = probing ? 1 : 1 + policy_.maxRetries;

  SimTime t = now;
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    double cost = 0.0;
    const bool ok = attemptSucceeds(st, node, d, cost);
    if ((attempt > 0 || !ok) && st.log.size() < kMaxLoggedAttempts) {
      st.log.push_back(AttemptRecord{t, d, attempt, ok});
    }
    out.attempts = attempt + 1;
    if (ok) {
      out.ok = true;
      out.retried = attempt > 0;
      st.retries += attempt;
      st.breaker.onRoundSuccess(now);
      registry_.markSuccess(node, d, now, out.retried);
      return out;
    }
    hub_->transports().channel(channelName).recordFailedCall(
        kCollectRequestBytes);
    t += cost;
    if (attempt + 1 < maxAttempts) {
      const double backoff = std::min(
          policy_.backoffMax, policy_.backoffBase * std::pow(2.0, attempt));
      const double jitter =
          1.0 + policy_.jitterFrac * (2.0 * st.rng.uniform() - 1.0);
      t += backoff * jitter;
    }
  }
  st.retries += maxAttempts - 1;
  ++st.failedRounds;
  st.breaker.onRoundFailure(now);
  registry_.markFailure(node, d, now);
  return out;
}

RpcClient::RoundOutcome RpcClient::liveRound(
    NodeId node, Daemon d, const std::string& channelName, SimTime now,
    const std::function<bool(std::size_t&)>& attempt) {
  NodeState& st = state(node);
  ++st.rounds;
  RoundOutcome out;

  if (!st.breaker.allowRound(now)) {
    ++st.fastFails;
    ++st.failedRounds;
    registry_.markFailure(node, d, now);
    return out;  // attempts == 0: never touched the wire
  }
  const bool probing =
      st.breaker.state(now) == CircuitBreaker::State::kHalfOpen;
  const int maxAttempts = probing ? 1 : 1 + policy_.maxRetries;

  RpcChannelStats& channel = liveTransports_.channel(channelName);
  for (int i = 0; i < maxAttempts; ++i) {
    std::size_t responseBytes = 0;
    const bool ok = attempt(responseBytes);
    if ((i > 0 || !ok) && st.log.size() < kMaxLoggedAttempts) {
      st.log.push_back(AttemptRecord{now, d, i, ok});
    }
    out.attempts = i + 1;
    if (ok) {
      out.ok = true;
      out.retried = i > 0;
      st.retries += i;
      st.breaker.onRoundSuccess(now);
      registry_.markSuccess(node, d, now, out.retried);
      channel.recordCall(kCollectRequestBytes, responseBytes);
      return out;
    }
    // A failed attempt still put the request (+ framing overhead) on
    // the wire — charge it exactly like the simulated path.
    channel.recordFailedCall(kCollectRequestBytes);
    if (realBackoff_ && i + 1 < maxAttempts) {
      const double backoff = std::min(
          policy_.backoffMax, policy_.backoffBase * std::pow(2.0, i));
      const double jitter =
          1.0 + policy_.jitterFrac * (2.0 * st.rng.uniform() - 1.0);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(backoff * jitter));
    }
  }
  st.retries += maxAttempts - 1;
  ++st.failedRounds;
  st.breaker.onRoundFailure(now);
  registry_.markFailure(node, d, now);
  return out;
}

void RpcClient::emitSample(CollectKind kind, NodeId node, SimTime now,
                           SimTime watermark, const RoundOutcome& r,
                           const std::function<void(Encoder&)>& encode) {
  if (observer_ == nullptr) return;
  Encoder enc;
  if (r.ok) encode(enc);
  CollectSample sample;
  sample.kind = kind;
  sample.node = node;
  sample.now = now;
  sample.watermark = watermark;
  sample.attempts = r.attempts;
  sample.ok = r.ok;
  sample.payload = enc.bytes().data();
  sample.payloadSize = enc.size();
  observer_->onSample(sample);
}

Fetched<metrics::SadcSnapshot> RpcClient::fetchSadc(NodeId node,
                                                    SimTime now) {
  Fetched<metrics::SadcSnapshot> out;
  RoundOutcome r;
  if (live_ != nullptr) {
    r = liveRound(node, Daemon::kSadc, "sadc-tcp", now,
                  [&](std::size_t& bytes) {
                    return live_->fetchSadc(node, now, out.value, bytes);
                  });
  } else {
    r = round(node, Daemon::kSadc, "sadc-tcp", now);
    if (r.ok) out.value = hub_->sadc(node).fetch();
  }
  emitSample(CollectKind::kSadc, node, now, kNoTime, r,
             [&](Encoder& enc) { encodeSnapshot(enc, out.value); });
  out.ok = r.ok;
  out.retried = r.retried;
  out.attempts = r.attempts;
  return out;
}

Fetched<std::vector<hadooplog::StateSample>> RpcClient::fetchTt(
    NodeId node, SimTime now, SimTime watermark) {
  Fetched<std::vector<hadooplog::StateSample>> out;
  RoundOutcome r;
  if (live_ != nullptr) {
    r = liveRound(node, Daemon::kHadoopLog, "hl-tt-tcp", now,
                  [&](std::size_t& bytes) {
                    return live_->fetchTt(node, now, watermark, out.value,
                                          bytes);
                  });
  } else {
    r = round(node, Daemon::kHadoopLog, "hl-tt-tcp", now);
    if (r.ok) out.value = hub_->hadoopLog(node).fetchTt(watermark);
  }
  emitSample(CollectKind::kTt, node, now, watermark, r,
             [&](Encoder& enc) { encodeSamples(enc, out.value); });
  out.ok = r.ok;
  out.retried = r.retried;
  out.attempts = r.attempts;
  return out;
}

Fetched<std::vector<hadooplog::StateSample>> RpcClient::fetchDn(
    NodeId node, SimTime now, SimTime watermark) {
  Fetched<std::vector<hadooplog::StateSample>> out;
  RoundOutcome r;
  if (live_ != nullptr) {
    r = liveRound(node, Daemon::kHadoopLog, "hl-dn-tcp", now,
                  [&](std::size_t& bytes) {
                    return live_->fetchDn(node, now, watermark, out.value,
                                          bytes);
                  });
  } else {
    r = round(node, Daemon::kHadoopLog, "hl-dn-tcp", now);
    if (r.ok) out.value = hub_->hadoopLog(node).fetchDn(watermark);
  }
  emitSample(CollectKind::kDn, node, now, watermark, r,
             [&](Encoder& enc) { encodeSamples(enc, out.value); });
  out.ok = r.ok;
  out.retried = r.retried;
  out.attempts = r.attempts;
  return out;
}

Fetched<syscalls::TraceSecond> RpcClient::fetchStrace(NodeId node,
                                                      SimTime now) {
  Fetched<syscalls::TraceSecond> out;
  RoundOutcome r;
  if (live_ != nullptr) {
    r = liveRound(node, Daemon::kStrace, "strace-tcp", now,
                  [&](std::size_t& bytes) {
                    if (!live_->fetchStrace(node, now, out.value, bytes)) {
                      return false;
                    }
                    // Account the sim convention — length prefix plus
                    // one byte per event — not the padded frame payload.
                    bytes = 4 + out.value.size();
                    return true;
                  });
  } else {
    r = round(node, Daemon::kStrace, "strace-tcp", now);
    if (r.ok) out.value = hub_->strace(node).fetch();
  }
  emitSample(CollectKind::kStrace, node, now, kNoTime, r,
             [&](Encoder& enc) { encodeTrace(enc, out.value); });
  out.ok = r.ok;
  out.retried = r.retried;
  out.attempts = r.attempts;
  return out;
}

CircuitBreaker::State RpcClient::breakerState(NodeId node,
                                              SimTime now) const {
  return state(node).breaker.state(now);
}

const std::vector<AttemptRecord>& RpcClient::attemptLog(NodeId node) const {
  return state(node).log;
}

long RpcClient::totalRounds() const {
  long total = 0;
  for (const auto& [id, st] : states_) total += st.rounds;
  return total;
}

long RpcClient::totalRetries() const {
  long total = 0;
  for (const auto& [id, st] : states_) total += st.retries;
  return total;
}

long RpcClient::totalFailedRounds() const {
  long total = 0;
  for (const auto& [id, st] : states_) total += st.failedRounds;
  return total;
}

long RpcClient::totalFastFails() const {
  long total = 0;
  for (const auto& [id, st] : states_) total += st.fastFails;
  return total;
}

long RpcClient::totalBreakerOpens() const {
  long total = 0;
  for (const auto& [id, st] : states_) total += st.breaker.opens();
  return total;
}

NodeId nodeIdFromOrigin(const std::string& origin) {
  constexpr const char kPrefix[] = "slave";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (origin.size() <= kPrefixLen ||
      origin.compare(0, kPrefixLen, kPrefix) != 0) {
    return kInvalidNode;
  }
  NodeId id = 0;
  for (std::size_t i = kPrefixLen; i < origin.size(); ++i) {
    const char c = origin[i];
    if (c < '0' || c > '9') return kInvalidNode;
    id = id * 10 + (c - '0');
  }
  return id >= 1 ? id : kInvalidNode;
}

}  // namespace asdf::rpc
