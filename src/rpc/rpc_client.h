// Fault-tolerant RPC collection layer.
//
// The paper's collection plane is implicitly infallible: fpt-core polls
// sadc_rpcd / hadoop_log_rpcd and the fetch always returns. A real
// deployment must survive failures of the thing it monitors — a crashed
// daemon, a hung daemon, a partitioned node — without stalling or
// poisoning the analysis pipeline. RpcClient wraps the per-node daemon
// fetches with:
//
//   * a per-channel timeout (virtual, driven off the sim clock),
//   * bounded retries with exponential backoff and seeded jitter, and
//   * a per-node circuit breaker: CLOSED -> OPEN after N consecutive
//     failed rounds -> HALF_OPEN probe after a recovery interval.
//
// All failure decisions are deterministic for a given seed: each node
// owns its own Rng stream, and every collector for a node runs inside
// that node's fpt-core exclusivity domain, so the draw sequence is
// independent of the executor (serial or thread pool).
//
// Failures come from two sources: the MonitoringFaultBoard (flipped by
// faults::MonitoringFaultInjector on an engine schedule — crash, hang,
// slowdown, partition), and the node's NIC packet-loss rate (the Table 2
// PacketLoss fault also degrades the monitoring RPCs: an attempt times
// out with probability lossRate^2, i.e. two consecutive retransmission
// losses blow the timeout).
//
// Every fetch outcome lands in the NodeHealthRegistry, which the
// analysis modules consult to compute peer medians over *surviving*
// nodes only and to distinguish "node faulty" from "node unmonitorable".
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "hadoop/cluster.h"
#include "rpc/collection_tap.h"
#include "rpc/daemons.h"
#include "rpc/live_collector.h"
#include "rpc/wire.h"

namespace asdf::rpc {

/// The three per-node collection daemons a channel can target.
enum class Daemon : int { kSadc = 0, kHadoopLog = 1, kStrace = 2 };
inline constexpr int kDaemonCount = 3;
const char* daemonName(Daemon d);

/// Monitoring-plane health of a node (or of one of its channels):
///   kHealthy       — last fetch succeeded on the first attempt;
///   kDegraded      — last fetch succeeded but needed retries;
///   kUnmonitorable — last fetch round failed (or the breaker is open):
///                    the node's samples are stale, so peer comparison
///                    must exclude it and must not raise a fault alarm
///                    against it.
enum class NodeHealth : int { kHealthy = 0, kDegraded = 1, kUnmonitorable = 2 };
const char* healthName(NodeHealth h);

/// Retry / timeout / breaker tunables (ExperimentSpec::rpcPolicy).
struct RpcPolicy {
  double timeoutSeconds = 0.25;   // per-attempt channel timeout
  int maxRetries = 3;             // attempts per round = 1 + maxRetries
  double backoffBase = 0.05;      // first backoff, doubled per retry
  double backoffMax = 2.0;        // backoff ceiling
  double jitterFrac = 0.25;       // +/- fraction applied to each backoff
  int breakerThreshold = 3;       // consecutive failed rounds -> OPEN
  double breakerRecoverySeconds = 10.0;  // OPEN -> HALF_OPEN probe delay
  double baseLatencySeconds = 0.002;     // healthy round-trip time
  /// P(attempt fails) = lossRate^exp. NIC loss rates lie in [0, 1),
  /// so +infinity decouples packet loss from the monitoring plane.
  double lossFailureExponent = 2.0;
};

/// Monitoring-plane fault state, poked by faults::MonitoringFaultInjector
/// on the engine schedule and read by RpcClient on every attempt.
/// Mutations happen in engine events, reads in module runs of later
/// events; the executor's dispatch ordering provides the needed
/// happens-before, so no locking is required.
class MonitoringFaultBoard {
 public:
  void setCrashed(NodeId node, Daemon d, bool crashed);
  void setHung(NodeId node, Daemon d, bool hung);
  /// Multiplies the channel's round-trip latency; 1.0 disables. Factors
  /// large enough to push latency past the timeout make calls fail.
  void setSlowFactor(NodeId node, Daemon d, double factor);
  /// Partitions the node: every channel of every daemon fails fast.
  void setPartitioned(NodeId node, bool partitioned);

  bool crashed(NodeId node, Daemon d) const;
  bool hung(NodeId node, Daemon d) const;
  double slowFactor(NodeId node, Daemon d) const;
  bool partitioned(NodeId node) const;

 private:
  struct NodeFaultState {
    std::array<bool, kDaemonCount> crashed{};
    std::array<bool, kDaemonCount> hung{};
    std::array<double, kDaemonCount> slow{1.0, 1.0, 1.0};
    bool partitioned = false;
  };
  const NodeFaultState* find(NodeId node) const;

  std::map<NodeId, NodeFaultState> nodes_;
};

/// Per-node circuit breaker over full fetch rounds (a round = one fetch
/// including all its retries). Time comes from the sim engine clock, so
/// transitions are deterministic.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(int threshold, double recoverySeconds)
      : threshold_(threshold), recovery_(recoverySeconds) {}

  /// kOpen reports as kHalfOpen once the recovery interval has elapsed.
  State state(SimTime now) const;
  /// False only while OPEN and still inside the recovery interval
  /// (callers fast-fail without touching the wire).
  bool allowRound(SimTime now) const;
  void onRoundSuccess(SimTime now);
  void onRoundFailure(SimTime now);

  int consecutiveFailures() const { return consecutiveFailures_; }
  long opens() const { return opens_; }

 private:
  int threshold_;
  double recovery_;
  int consecutiveFailures_ = 0;
  bool open_ = false;
  SimTime probeAt_ = kNoTime;
  long opens_ = 0;
};

/// Shared health bulletin: written by RpcClient after every fetch round,
/// read by the analysis modules (quorum / survivor selection), the
/// node_health module, and the harness. Internally locked — writers run
/// under per-node exclusivity domains but readers (analysis instances)
/// may run on other pool threads.
class NodeHealthRegistry {
 public:
  void registerNode(NodeId node);

  void markSuccess(NodeId node, Daemon d, SimTime now, bool degraded);
  void markFailure(NodeId node, Daemon d, SimTime now);

  /// Health of one daemon channel; kHealthy for unknown nodes.
  NodeHealth channelHealth(NodeId node, Daemon d) const;
  /// Worst health across the node's sadc and hadoop_log channels (the
  /// strace channel participates only once it has been polled).
  NodeHealth aggregate(NodeId node) const;
  /// Seconds since the channel's last successful fetch (0 when it has
  /// never been polled or just succeeded).
  double staleness(NodeId node, Daemon d, SimTime now) const;

  /// Registered nodes in id order.
  std::vector<NodeId> nodes() const;

 private:
  struct ChannelEntry {
    NodeHealth health = NodeHealth::kHealthy;
    SimTime lastSuccess = kNoTime;
    long successes = 0;
    long failures = 0;
  };

  mutable std::mutex mutex_;
  std::map<NodeId, std::array<ChannelEntry, kDaemonCount>> entries_;
};

/// One fetch-round outcome. `value` is meaningful only when ok.
template <typename T>
struct Fetched {
  bool ok = false;
  bool retried = false;  // succeeded, but not on the first attempt
  int attempts = 0;      // 0 = fast-failed on an open breaker
  T value{};
};

/// One RPC attempt, for the deterministic backoff-schedule tests: the
/// virtual time the attempt was issued and whether it succeeded.
struct AttemptRecord {
  SimTime at = kNoTime;
  Daemon daemon = Daemon::kSadc;
  int attempt = 0;
  bool success = false;
};

class RpcClient {
 public:
  /// Sim mode: fetches call the hub's in-process daemons; `cluster`
  /// supplies the NIC loss rates that fail attempts.
  RpcClient(hadoop::Cluster& cluster, RpcHub& hub, RpcPolicy policy,
            std::uint64_t seed);
  /// Live mode: fetches go over a real socket transport instead of the
  /// in-process hub. Timeout/retry/backoff/breaker behaviour, health
  /// bookkeeping and per-channel byte accounting are identical to the
  /// simulated constructor — the accounting lands in this client's own
  /// TransportRegistry (see transports()) since there is no hub.
  /// Backoffs between live attempts are real sleeps; pass
  /// `realBackoff = false` for replay collectors, whose "attempts"
  /// resolve instantly from the archive.
  RpcClient(LiveCollector& live, RpcPolicy policy, std::uint64_t seed,
            bool realBackoff = true);
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  Fetched<metrics::SadcSnapshot> fetchSadc(NodeId node, SimTime now);
  Fetched<std::vector<hadooplog::StateSample>> fetchTt(NodeId node,
                                                       SimTime now,
                                                       SimTime watermark);
  Fetched<std::vector<hadooplog::StateSample>> fetchDn(NodeId node,
                                                       SimTime now,
                                                       SimTime watermark);
  Fetched<syscalls::TraceSecond> fetchStrace(NodeId node, SimTime now);

  /// Flight-recorder tap: after every fetch round the observer sees
  /// the outcome (attempts/ok) plus, on success, the value re-encoded
  /// through the payload codec — byte-identical to what the daemon
  /// marshalled, so an archive written here replays exactly. Null
  /// detaches. Thread-safety matches the health registry's: set it
  /// before the run starts.
  void setObserver(CollectionObserver* observer) { observer_ = observer; }

  MonitoringFaultBoard& faults() { return board_; }
  NodeHealthRegistry& health() { return registry_; }
  const RpcPolicy& policy() const { return policy_; }
  bool liveMode() const { return live_ != nullptr; }
  /// Per-channel byte accounting: the hub's registry in sim mode, the
  /// client's own in live mode.
  TransportRegistry& transports() {
    return hub_ != nullptr ? hub_->transports() : liveTransports_;
  }

  CircuitBreaker::State breakerState(NodeId node, SimTime now) const;

  /// Per-node attempt log (bounded; per-node order is deterministic).
  /// Holds every attempt of rounds that retried or failed; a round
  /// that succeeds on its first attempt logs nothing.
  const std::vector<AttemptRecord>& attemptLog(NodeId node) const;

  // Aggregate robustness counters, summed over nodes on demand (no
  // shared mutable counters — nodes may be polled concurrently).
  long totalRounds() const;
  long totalRetries() const;
  long totalFailedRounds() const;
  long totalFastFails() const;
  long totalBreakerOpens() const;

 private:
  struct NodeState {
    Rng rng;
    CircuitBreaker breaker;
    std::vector<AttemptRecord> log;
    long rounds = 0;
    long retries = 0;
    long failedRounds = 0;
    long fastFails = 0;
    NodeState(std::uint64_t seed, const RpcPolicy& p)
        : rng(seed),
          breaker(p.breakerThreshold, p.breakerRecoverySeconds) {}
  };
  struct RoundOutcome {
    bool ok = false;
    bool retried = false;
    int attempts = 0;
  };

  NodeState& state(NodeId node);
  const NodeState& state(NodeId node) const;
  /// Runs the retry loop for one fetch round. Does not touch the daemon
  /// itself — the caller invokes the real fetch iff the round succeeds.
  RoundOutcome round(NodeId node, Daemon d, const std::string& channelName,
                     SimTime now);
  /// Decides one attempt: success flag plus the virtual seconds it
  /// consumed (latency on success, timeout or refusal cost on failure).
  bool attemptSucceeds(NodeState& st, NodeId node, Daemon d,
                       double& costSeconds);
  /// Live-mode retry loop: `attempt` performs one real call and, on
  /// success, reports the response bytes to account. Sleeps real
  /// backoffs between attempts; charges kCollectRequestBytes per
  /// failed attempt exactly as the simulated round() does.
  RoundOutcome liveRound(NodeId node, Daemon d,
                         const std::string& channelName, SimTime now,
                         const std::function<bool(std::size_t&)>& attempt);
  /// Reports one fetch round to the observer (no-op when detached).
  /// `encode` marshals the fetched value; only called when ok.
  void emitSample(CollectKind kind, NodeId node, SimTime now,
                  SimTime watermark, const RoundOutcome& r,
                  const std::function<void(Encoder&)>& encode);

  hadoop::Cluster* cluster_ = nullptr;
  RpcHub* hub_ = nullptr;
  LiveCollector* live_ = nullptr;
  CollectionObserver* observer_ = nullptr;
  bool realBackoff_ = true;
  RpcPolicy policy_;
  MonitoringFaultBoard board_;
  NodeHealthRegistry registry_;
  TransportRegistry liveTransports_;  // live mode only
  std::map<NodeId, NodeState> states_;
};

/// Parses an analysis origin label of the form "slave<k>"; kInvalidNode
/// when the label has a different shape (custom test pipelines).
NodeId nodeIdFromOrigin(const std::string& origin);

}  // namespace asdf::rpc
