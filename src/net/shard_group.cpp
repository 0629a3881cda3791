#include "net/shard_group.h"

#include <algorithm>

namespace asdf::net {

ShardGroup::ShardGroup(const ShardGroupOptions& options) {
  const int n = std::max(1, options.shards);
  const bool reusePort = n > 1;
  loops_.reserve(static_cast<std::size_t>(n));
  servers_.reserve(static_cast<std::size_t>(n));
  // Shard 0 binds first and resolves an ephemeral port; its siblings
  // bind the resolved port.
  for (int i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    servers_.push_back(std::make_unique<TcpServer>(
        *loops_.back(),
        TcpServerOptions{i == 0 ? options.port : port_, reusePort}));
    if (i == 0) port_ = servers_[0]->port();
  }
}

ShardGroup::~ShardGroup() {
  stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ShardGroup::runOnCaller() {
  threads_.clear();
  for (std::size_t i = 1; i < loops_.size(); ++i) {
    EventLoop* loop = loops_[i].get();
    threads_.emplace_back([loop] { loop->run(); });
  }
  loops_[0]->run();
  // Shard 0 stopped (stop(), or a handler on this shard): bring the
  // rest down and join before returning to the caller.
  stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void ShardGroup::stop() {
  for (auto& loop : loops_) loop->stop();
}

long ShardGroup::framesServed() const {
  long total = 0;
  for (const auto& s : servers_) total += s->framesServed();
  return total;
}

long ShardGroup::connectionsRejected() const {
  long total = 0;
  for (const auto& s : servers_) total += s->connectionsRejected();
  return total;
}

long ShardGroup::connectionsReaped() const {
  long total = 0;
  for (const auto& s : servers_) total += s->connectionsReaped();
  return total;
}

long ShardGroup::connectionsOverflowed() const {
  long total = 0;
  for (const auto& s : servers_) total += s->connectionsOverflowed();
  return total;
}

std::size_t ShardGroup::connectionCount() const {
  std::size_t total = 0;
  for (const auto& s : servers_) total += s->connectionCount();
  return total;
}

}  // namespace asdf::net
