// The built-in ASDF module library.
//
// These are the module types the paper describes: the sadc and
// hadoop_log data-collection modules, the mavgvec / knn / ibuffer
// processing modules, the analysis_bb / analysis_wb fingerpointers,
// and the print alarm sink. The fingerpointers and their aggregation-
// tier split (agg_bb / agg_wb, analysis_bb_merge / analysis_wb_merge)
// are one peer-comparison unit: flat analysis is the single-group case
// of reduce -> merge, judged by the shared PeerJudge (peer_modules.cpp,
// peer_judge.h). registerBuiltinModules() installs them in
// a registry (static libraries would otherwise drop the registration
// objects); call it once at startup.
//
// Environment services the modules look up:
//   "rpc_client"  rpc::RpcClient          — sadc, hadoop_log, strace
//                                          (required: the one path to
//                                          the daemons); analysis_bb,
//                                          analysis_wb, agg_bb, agg_wb
//                                          (optional; survivor health
//                                          for degraded analysis)
//   "bb_model"    analysis::BlackBoxModel — knn, analysis_bb
//   "hl_sync"     modules::HadoopLogSync  — hadoop_log
//   "node_health" rpc::NodeHealthRegistry — node_health
//   "transports"  rpc::TransportRegistry  — agg_bb, agg_wb (optional;
//                                          Table 4 accounting of the
//                                          tier-2 summary traffic)
//   "summary_board" rpc::SummaryBoard     — agg_bb, agg_wb (optional;
//                                          live aggregator processes
//                                          publish windows upward)
//   env.alarmSink                         — print
//   env.monitoringSink                    — analysis_bb, analysis_wb,
//                                          analysis_bb_merge,
//                                          analysis_wb_merge
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/registry.h"
#include "core/value.h"

namespace asdf::modules {

/// Installs every built-in module type into the registry (the global
/// one by default). Idempotent.
void registerBuiltinModules(core::ModuleRegistry* registry = nullptr);

/// Service interface the [mitigate] module acts through (environment
/// name "mitigator"): quarantine the node identified by an analysis
/// origin label (e.g. "slave3").
class Mitigator {
 public:
  virtual ~Mitigator() = default;
  virtual void quarantine(const std::string& origin, SimTime when) = 0;
};

/// Cross-instance synchronization for the hadoop_log module
/// (Section 3.7): per-second white-box rows are released only once
/// every registered node has produced that second, so the analysis
/// always sees rows from the same time point. Incomplete seconds that
/// fall behind a completed one are dropped (and counted).
///
/// Operations are internally locked. Note that locking alone does not
/// make release timing order-independent: which poll's push completes
/// a row decides which instances drain it this tick. The hadoop_log
/// module therefore also declares the "hl-sync" exclusivity domain so
/// the fpt-core scheduler serializes its instances in configuration
/// order under any executor, keeping release timing deterministic.
class HadoopLogSync {
 public:
  void registerNode(NodeId node);

  /// Adds node's white-box vector for `second`; may release rows.
  /// Rows are immutable COW buffers, so every instance draining the
  /// same second shares one payload instead of copying it. A push from
  /// a node that was never registered is ignored.
  void push(NodeId node, long second, core::VecBuf wb);

  /// Released (second, row) handles for this node that have not been
  /// drained yet, in second order. Draining hands out cheap buffer
  /// references; the payload bytes are never duplicated. A node that
  /// was never registered drains nothing.
  std::vector<std::pair<long, core::VecBuf>> drain(NodeId node);

  long droppedSeconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
  }
  std::size_t registeredNodes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return drainCursor_.size();
  }

 private:
  /// A registered node's index into every row's slot vector; nodes are
  /// numbered in registration order.
  using Slots = std::vector<std::optional<core::VecBuf>>;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// One second's row. While pending, `count` is the number of slots
  /// pushed so far; once released, it is the number of registered
  /// nodes whose cursor has not passed the row yet (the registered
  /// count at release: later registrants start past it).
  struct Row {
    long second = 0;
    Slots bySlot;
    std::size_t count = 0;
  };

  std::size_t slotOf(NodeId node) const;
  /// An empty row for `second`, reusing a recycled slot vector.
  Row takeRow(long second);
  /// Drops the row's buffer handles (returning the buffers to the
  /// producers' pools) and keeps its slot vector for reuse.
  void recycle(Row& row);

  mutable std::mutex mutex_;
  std::unordered_map<NodeId, std::size_t> slots_;
  /// Per slot: absolute index of the next released row to drain.
  std::vector<std::size_t> drainCursor_;
  /// Incomplete seconds, ascending. Rows and their slot vectors are
  /// recycled through spare_, so the steady state allocates nothing
  /// per push.
  std::vector<Row> pending_;
  std::vector<Slots> spare_;
  /// Released rows not yet drained by every node. released_[i] holds
  /// absolute row index releasedBase_ + i. Each drain decrements the
  /// `count` of the rows its cursor passes, and the prefix whose count
  /// reached zero is pruned, so the row buffers return to the
  /// producers' pools at O(1) amortized cost per (node, row).
  std::vector<Row> released_;
  std::size_t releasedBase_ = 0;
  long dropped_ = 0;
};

}  // namespace asdf::modules
