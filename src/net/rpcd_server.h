// asdf_rpcd: the live collection daemon (server side of DESIGN.md §9).
//
// One process answers every collection channel for every monitored
// node over the framed TCP protocol. Two data sources:
//
//   sim  — the daemon hosts the monitored-cluster simulation itself
//          (Cluster + GridMix + RpcHub + FaultInjector, seeded exactly
//          as harness::runExperiment seeds them) and advances it lazily
//          to the virtual `now` carried in each request. A live client
//          driving the same module schedule therefore reads byte-for-
//          byte the same data a sim-transport run reads, which is what
//          makes the sim/live alarm-equality contract testable.
//   proc — serves this host's real /proc counters (synthetic random
//          walk when /proc is unavailable) plus replayed hadoop-log
//          rows; the honest "online on a real machine" mode.
//
// Default (--shards=1): single-threaded on an EventLoop — requests
// are served in arrival order, never concurrently, so the hosted
// simulation needs no locks. With --shards=N the network plane is a
// ShardGroup (per-shard loops + SO_REUSEPORT listeners, DESIGN.md
// §15) and a state mutex serializes access to the shared source.
// Responses stay byte-identical either way: every request carries its
// own virtual `now`, the simulation is advanced lazily to it under
// the mutex, and what a fetch returns depends only on (channel, node,
// now, watermark) — not on which connection's request ran first.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "faults/faults.h"
#include "hadoop/cluster.h"
#include "net/cluster_stats.h"
#include "net/proc_source.h"
#include "net/shard_group.h"
#include "rpc/collection_tap.h"
#include "rpc/daemons.h"
#include "sim/engine.h"
#include "workload/gridmix.h"

namespace asdf::net {

struct RpcdOptions {
  std::uint16_t port = 0;        // 0 = ephemeral, see RpcdServer::port()
  int slaves = 16;
  std::uint64_t seed = 42;
  std::string source = "sim";    // "sim" | "proc"
  faults::FaultSpec fault;       // sim source only
  double mixChangeTime = -1.0;   // sim source only
  /// Flight-recorder tap (--archive-dir): every served data response
  /// is reported here. Not owned; must outlive the server.
  rpc::CollectionObserver* observer = nullptr;
  /// Reap connections with no read/write progress for this long
  /// (--idle-timeout; 0 = never — see TcpServer::setIdleTimeout).
  double idleTimeoutSeconds = 0.0;
  /// Network-plane shards (--shards; see ShardGroup). 1 = the classic
  /// single-loop daemon.
  int shards = 1;
  /// Test hook: force the acceptor-handoff fallback path.
  bool preferReusePort = true;
};

class RpcdServer {
 public:
  explicit RpcdServer(const RpcdOptions& opts);
  ~RpcdServer();

  std::uint16_t port() const { return group_.port(); }
  int shardCount() const { return group_.shardCount(); }
  bool usingReusePort() const { return group_.usingReusePort(); }

  /// Serves until stop() or a kShutdown frame. Call from the thread
  /// that owns the daemon (shards 2..N run on spawned threads).
  void run();

  /// Thread-safe; makes run() return.
  void stop();

  long framesServed() const { return group_.framesServed(); }
  long connectionsRejected() const { return group_.connectionsRejected(); }
  long connectionsReaped() const { return group_.connectionsReaped(); }

  /// Cluster-side accounting as of virtual time `now` (the payload the
  /// kStats request returns; the daemon main also stamps it into the
  /// archive's truth record on shutdown).
  ClusterStatsWire snapshotStats(double now);

 private:
  void handleFrame(TcpServer::Connection& conn, const Frame& frame);
  void advanceTo(double now);
  void handleStats(TcpServer::Connection& conn, double now);
  void observeSample(rpc::CollectKind kind, NodeId node, double now,
                     double watermark, const rpc::Encoder& enc);

  RpcdOptions opts_;
  ShardGroup group_;
  /// Serializes shard threads through the shared source (sim engine /
  /// proc walker) and the archive observer. Uncontended no-op cost at
  /// shards=1.
  std::mutex stateMutex_;

  // sim source (null in proc mode).
  std::unique_ptr<sim::SimEngine> engine_;
  std::unique_ptr<hadoop::Cluster> cluster_;
  std::unique_ptr<workload::GridMixGenerator> gridmix_;
  std::unique_ptr<rpc::RpcHub> hub_;
  std::unique_ptr<faults::FaultInjector> injector_;

  // proc source (null in sim mode).
  std::unique_ptr<ProcSource> proc_;
};

}  // namespace asdf::net
