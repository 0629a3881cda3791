// Per-core sharded network plane (DESIGN.md §15).
//
// A ShardGroup owns N independent {EventLoop, TcpServer} pairs that
// all serve the same port. With more than one shard every shard's
// listener binds with SO_REUSEPORT (Linux >= 3.9, which the epoll and
// eventfd plane already requires) and the kernel spreads incoming
// connections across them — no shared accept path at all. A failed
// bind throws NetError; there is no fallback accept mode.
//
// Ownership rules: a connection belongs to exactly one shard for its
// whole life — its decoder, scratch frame and outbound buffer are
// plain members touched only by that shard's loop thread. The only
// cross-shard traffic is the relaxed counter reads summed here.
// Whatever state the frame handler touches (e.g. the hosted simulation
// in RpcdServer) is the handler owner's problem; see the state mutex
// there.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/tcp_server.h"

namespace asdf::net {

struct ShardGroupOptions {
  std::uint16_t port = 0;  // 0 = ephemeral; all shards share the result
  int shards = 1;
};

class ShardGroup {
 public:
  /// Throws NetError when a shard's listener cannot bind.
  explicit ShardGroup(const ShardGroupOptions& options);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int shardCount() const { return static_cast<int>(servers_.size()); }
  EventLoop& loop(int i) { return *loops_[static_cast<std::size_t>(i)]; }
  TcpServer& server(int i) {
    return *servers_[static_cast<std::size_t>(i)];
  }
  std::uint16_t port() const { return port_; }
  /// True when the shards share the port through SO_REUSEPORT, i.e.
  /// when there is more than one.
  bool usingReusePort() const { return servers_.size() > 1; }

  /// Runs shard 0's loop on the calling thread and shards 1..N-1 on
  /// spawned threads; returns — after stopping and joining everything
  /// — once stop() is called (from any thread, including a frame
  /// handler on any shard).
  void runOnCaller();

  /// Thread-safe and idempotent: stops every shard loop. Safe to call
  /// from a shard's own handler (it does not join).
  void stop();

  /// Counters summed across shards (relaxed; safe while running).
  long framesServed() const;
  long connectionsRejected() const;
  long connectionsReaped() const;
  long connectionsOverflowed() const;
  std::size_t connectionCount() const;

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::unique_ptr<TcpServer>> servers_;
  std::vector<std::thread> threads_;  // shards 1..N-1, runOnCaller only
  std::uint16_t port_ = 0;
};

}  // namespace asdf::net
