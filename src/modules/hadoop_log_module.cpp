// [hadoop_log] — white-box data collection (Sections 3.7 / 4.4).
//
// Parameters:
//   node     = <slave id, 1-based>      (required)
//   interval = <seconds between polls>  (default 1)
//
// Outputs:
//   output0  — the per-second white-box state vector for the node:
//              5 TaskTracker states followed by 3 DataNode states,
//              released only at cross-node-synchronized timestamps.
//   health   — monitoring health of the poll (rpc::NodeHealth code:
//              0 healthy, 1 degraded/retried, 2 unmonitorable).
//
// Each poll asks the node's hadoop_log_rpcd for freshly finalized
// TaskTracker and DataNode state vectors, zips the two by second, and
// hands the merged row to the shared HadoopLogSync. The sync holds the
// row until every monitored node produced the same second ("the
// hadoop_log module waits for all nodes to reveal data with the same
// timestamp before updating its outputs"); rows a node never fills in
// are dropped. Each instance then writes whatever synchronized rows
// are newly available for its node — typically one per poll, one or
// two iterations behind real time, exactly like the original.
//
// Polls go through the environment's "rpc_client" service (required).
// Degraded mode: when a fetch round fails (daemon crash, hang,
// partition, packet loss, open breaker), the module must still feed
// the sync — a silent node would hold back *every* peer's release
// forever. It synthesizes rows from the last known state halves (zeros
// when nothing was ever fetched) for the seconds the daemon should
// have finalized by now (watermark minus a small finalization lag), so
// the cross-node release cadence survives a dead collector. Real rows
// for seconds already synthesized are discarded when the daemon
// recovers.
#include <iterator>
#include <map>

#include "common/error.h"
#include "common/strings.h"
#include "core/module.h"
#include "hadooplog/states.h"
#include "modules/modules.h"
#include "rpc/rpc_client.h"

namespace asdf::modules {
namespace {

// Seconds behind the poll watermark that a synthesized row trails:
// matches the parsers' own finalization delay, so a recovered daemon's
// real rows resume exactly where synthesis stopped.
constexpr long kSynthesisLagSeconds = 3;

}  // namespace

class HadoopLogModule final : public core::Module {
 public:
  void init(core::ModuleContext& ctx) override {
    node_ = static_cast<NodeId>(ctx.intParam("node", -1));
    if (node_ < 1) {
      throw ConfigError("[" + ctx.instanceId() +
                        "] hadoop_log requires a 'node' parameter >= 1");
    }
    const double interval = ctx.numParam("interval", 1.0);
    client_ = &ctx.env().require<rpc::RpcClient>("rpc_client");
    sync_ = &ctx.env().require<HadoopLogSync>("hl_sync");
    sync_->registerNode(node_);
    out_ = ctx.addOutput("output0", strformat("slave%d", node_));
    healthOut_ = ctx.addOutput("health", strformat("slave%d", node_));
    ctx.requestPeriodic(interval);
    // The daemon charges CPU/network to this node, and the sync's
    // release timing depends on push order across instances: serialize
    // with the node's other collectors and with all hadoop_log peers.
    ctx.requestExclusive(strformat("node%d", node_));
    ctx.requestExclusive("hl-sync");
  }

  void run(core::ModuleContext& ctx, core::RunReason) override {
    const SimTime watermark = ctx.now();
    rpc::NodeHealth health = rpc::NodeHealth::kUnmonitorable;
    auto tt = client_->fetchTt(node_, watermark, watermark);
    auto dn = tt.ok ? client_->fetchDn(node_, watermark, watermark)
                    : decltype(tt){};
    if (tt.ok && dn.ok) {
      ingestTt(tt.value);
      ingestDn(dn.value);
      health = (tt.retried || dn.retried) ? rpc::NodeHealth::kDegraded
                                          : rpc::NodeHealth::kHealthy;
    } else {
      synthesizeThrough(static_cast<long>(watermark) - kSynthesisLagSeconds);
    }
    for (auto& [second, wb] : sync_->drain(node_)) {
      (void)second;  // Sample time is the write time; the row order is
                     // the synchronized second order.
      ctx.write(out_, std::move(wb));
    }
    ctx.write(healthOut_, core::VecBuf{static_cast<double>(health)});
  }

 private:
  void ingestTt(const std::vector<hadooplog::StateSample>& samples) {
    for (const auto& s : samples) {
      lastTt_ = s.counts;
      partial_[s.second].first = s.counts;
      partialHasTt_[s.second] = true;
      flushPartial();
    }
  }

  void ingestDn(const std::vector<hadooplog::StateSample>& samples) {
    for (const auto& s : samples) {
      lastDn_ = s.counts;
      partial_[s.second].second = s.counts;
      partialHasDn_[s.second] = true;
      flushPartial();
    }
  }

  void flushPartial() {
    // Push every second for which both halves arrived.
    for (auto it = partial_.begin(); it != partial_.end();) {
      const long second = it->first;
      if (!partialHasTt_[second] || !partialHasDn_[second]) {
        ++it;
        continue;
      }
      // Seconds already covered by synthesized rows (the daemon was
      // down when they were due) must not be pushed twice — and real
      // pushes advance the anchor so a later outage resumes synthesis
      // from the last pushed second instead of re-pushing history.
      if (!anchored_ || second > lastSynthesized_) {
        std::vector<double>& wb = rowBuilder_.acquire();
        wb.assign(it->second.first.begin(), it->second.first.end());
        wb.insert(wb.end(), it->second.second.begin(),
                  it->second.second.end());
        sync_->push(node_, second, rowBuilder_.share());
        lastSynthesized_ = second;
        anchored_ = true;
      }
      partialHasTt_.erase(second);
      partialHasDn_.erase(second);
      it = partial_.erase(it);
    }
  }

  void synthesizeThrough(long uptoSecond) {
    if (uptoSecond < 0) return;
    if (!anchored_) {
      // The daemon was never reachable: synthesize forward only, from
      // the second its parsers would have been finalizing now.
      lastSynthesized_ = uptoSecond - 1;
      anchored_ = true;
    }
    if (lastTt_.empty()) lastTt_.assign(hadooplog::kTtStateCount, 0.0);
    if (lastDn_.empty()) lastDn_.assign(hadooplog::kDnStateCount, 0.0);
    for (long s = lastSynthesized_ + 1; s <= uptoSecond; ++s) {
      // Prefer any real half that arrived before the daemon died.
      const auto it = partial_.find(s);
      const std::vector<double>& tt =
          (it != partial_.end() && partialHasTt_[s]) ? it->second.first
                                                     : lastTt_;
      const std::vector<double>& dn =
          (it != partial_.end() && partialHasDn_[s]) ? it->second.second
                                                     : lastDn_;
      std::vector<double>& wb = rowBuilder_.acquire();
      wb.assign(tt.begin(), tt.end());
      wb.insert(wb.end(), dn.begin(), dn.end());
      sync_->push(node_, s, rowBuilder_.share());
      if (it != partial_.end()) {
        partialHasTt_.erase(s);
        partialHasDn_.erase(s);
        partial_.erase(it);
      }
      lastSynthesized_ = s;
    }
  }

  NodeId node_ = kInvalidNode;
  rpc::RpcClient* client_ = nullptr;
  HadoopLogSync* sync_ = nullptr;
  int out_ = -1;
  int healthOut_ = -1;
  /// Highest second pushed to the sync (real or synthesized); valid
  /// only once anchored_ is set by the first push.
  bool anchored_ = false;
  long lastSynthesized_ = 0;
  /// Pooled buffers for rows handed to the sync; once every consumer
  /// of a row drops its handle the buffer returns to this pool.
  core::VecBuilder rowBuilder_;
  std::vector<double> lastTt_;
  std::vector<double> lastDn_;
  std::map<long, std::pair<std::vector<double>, std::vector<double>>>
      partial_;
  std::map<long, bool> partialHasTt_;
  std::map<long, bool> partialHasDn_;
};

void registerHadoopLogModule(core::ModuleRegistry& registry) {
  registry.registerType(
      "hadoop_log", [] { return std::make_unique<HadoopLogModule>(); });
}

// ---------------------------------------------------------------------------
// HadoopLogSync

void HadoopLogSync::registerNode(NodeId node) {
  std::lock_guard<std::mutex> lock(mutex_);
  const bool isNew = slots_.try_emplace(node, drainCursor_.size()).second;
  if (isNew) drainCursor_.push_back(releasedBase_ + released_.size());
}

std::size_t HadoopLogSync::slotOf(NodeId node) const {
  const auto it = slots_.find(node);
  return it == slots_.end() ? kNoSlot : it->second;
}

HadoopLogSync::Row HadoopLogSync::takeRow(long second) {
  Row row;
  row.second = second;
  if (!spare_.empty()) {
    row.bySlot = std::move(spare_.back());
    spare_.pop_back();
  }
  return row;
}

void HadoopLogSync::recycle(Row& row) {
  for (auto& buf : row.bySlot) buf.reset();
  spare_.push_back(std::move(row.bySlot));
}

void HadoopLogSync::push(NodeId node, long second, core::VecBuf wb) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t slot = slotOf(node);
  if (slot == kNoSlot) return;
  // Seconds arrive mostly in order: find the row from the back.
  auto it = pending_.end();
  while (it != pending_.begin() && std::prev(it)->second >= second) --it;
  if (it == pending_.end() || it->second != second) {
    it = pending_.insert(it, takeRow(second));
  }
  Row& row = *it;
  if (row.bySlot.size() <= slot) row.bySlot.resize(drainCursor_.size());
  if (!row.bySlot[slot].has_value()) ++row.count;
  row.bySlot[slot] = std::move(wb);
  if (row.count < drainCursor_.size()) return;

  // Complete: release this row and drop the older incomplete seconds —
  // they can no longer complete in order.
  for (auto older = pending_.begin(); older != it; ++older) {
    ++dropped_;
    recycle(*older);
  }
  row.count = drainCursor_.size();
  released_.push_back(std::move(row));
  pending_.erase(pending_.begin(), it + 1);
}

std::vector<std::pair<long, core::VecBuf>> HadoopLogSync::drain(
    NodeId node) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<long, core::VecBuf>> out;
  const std::size_t slot = slotOf(node);
  if (slot == kNoSlot) return out;
  std::size_t& cursor = drainCursor_[slot];
  const std::size_t end = releasedBase_ + released_.size();
  for (; cursor < end; ++cursor) {
    Row& row = released_[cursor - releasedBase_];
    if (slot < row.bySlot.size() && row.bySlot[slot].has_value()) {
      out.emplace_back(row.second, *row.bySlot[slot]);  // shares the buffer
    }
    --row.count;
  }
  // Prune the rows every registered node has drained: dropping the
  // last handle releases each row's buffer back to its producer's
  // pool. Cursors advance in order, so the drained rows are a prefix.
  std::size_t drained = 0;
  while (drained < released_.size() && released_[drained].count == 0) {
    recycle(released_[drained]);
    ++drained;
  }
  if (drained > 0) {
    released_.erase(released_.begin(),
                    released_.begin() + static_cast<std::ptrdiff_t>(drained));
    releasedBase_ += drained;
  }
  return out;
}

}  // namespace asdf::modules
