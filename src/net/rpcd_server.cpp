#include "net/rpcd_server.h"

#include "common/logging.h"
#include "rpc/payloads.h"

namespace asdf::net {

RpcdServer::RpcdServer(const RpcdOptions& opts)
    : opts_(opts), group_(ShardGroupOptions{opts.port, opts.shards}) {
  if (opts_.source == "sim") {
    sim_ = std::make_unique<SimSource>(opts_.slaves, topology::TopologySpec{},
                                       opts_.seed, opts_.mixChangeTime,
                                       opts_.fault);
    sim_->armFault();
  } else {
    proc_ = std::make_unique<ProcSource>(opts_.slaves, opts_.seed);
  }
  for (int i = 0; i < group_.shardCount(); ++i) {
    group_.server(i).onFrame(
        [this](TcpServer::Connection& conn, const Frame& frame) {
          handleFrame(conn, frame);
        });
    if (opts_.idleTimeoutSeconds > 0.0) {
      group_.server(i).setIdleTimeout(opts_.idleTimeoutSeconds);
    }
  }
}

RpcdServer::~RpcdServer() = default;

void RpcdServer::run() { group_.runOnCaller(); }

void RpcdServer::stop() { group_.stop(); }

void RpcdServer::observeSample(rpc::CollectKind kind, NodeId node,
                               double now, double watermark,
                               const rpc::Encoder& enc) {
  if (opts_.observer == nullptr) return;
  rpc::CollectSample sample;
  sample.kind = kind;
  sample.node = node;
  sample.now = now;
  sample.watermark = watermark;
  sample.attempts = 1;
  sample.ok = true;
  sample.payload = enc.bytes().data();
  sample.payloadSize = enc.size();
  opts_.observer->onSample(sample);
}

ClusterStatsWire RpcdServer::snapshotStats(double now) {
  std::lock_guard<std::mutex> lock(stateMutex_);
  if (sim_ != nullptr) {
    sim_->advanceTo(now);
    return sim_->stats();
  }
  ClusterStatsWire stats;
  stats.simNow = now;
  stats.faultEndedAt = kNoTime;
  return stats;
}

void RpcdServer::handleStats(TcpServer::Connection& conn, double now) {
  rpc::Encoder enc;
  encodeClusterStats(enc, snapshotStats(now));
  conn.send(MsgType::kStatsData, enc);
}

void RpcdServer::handleFrame(TcpServer::Connection& conn,
                             const Frame& frame) {
  rpc::Decoder dec(frame.payload);
  switch (frame.type) {
    case MsgType::kHello: {
      const std::uint32_t version = dec.getU32();
      if (version != kProtocolVersion) {
        conn.sendError(ErrorCode::kVersionSkew,
                       "server speaks version " +
                           std::to_string(kProtocolVersion));
        conn.close();
        return;
      }
      rpc::Encoder enc;
      enc.putU32(kProtocolVersion);
      enc.putU32(static_cast<std::uint32_t>(opts_.slaves));
      enc.putI64(static_cast<std::int64_t>(opts_.seed));
      enc.putString(opts_.source);
      conn.send(MsgType::kHelloAck, enc);
      return;
    }
    case MsgType::kFetchSadc: {
      const NodeId node = static_cast<NodeId>(dec.getU32());
      const double now = dec.getDouble();
      if (node < 1 || node > opts_.slaves) {
        conn.sendError(ErrorCode::kUnknownNode,
                       "node " + std::to_string(node));
        return;
      }
      // The state mutex serializes shard threads through the shared
      // source and the archive observer (DESIGN.md §15): responses
      // depend only on (node, now), so which shard's request advances
      // the simulation first does not change any payload.
      metrics::SadcSnapshot snap;
      rpc::Encoder enc;
      {
        std::lock_guard<std::mutex> lock(stateMutex_);
        if (sim_ != nullptr) {
          sim_->advanceTo(now);
          snap = sim_->hub().sadc(node).fetch();
        } else {
          snap = proc_->collect(node, now);
        }
        rpc::encodeSnapshot(enc, snap);
        observeSample(rpc::CollectKind::kSadc, node, now, kNoTime, enc);
      }
      conn.send(MsgType::kSadcData, enc);
      return;
    }
    case MsgType::kFetchTt:
    case MsgType::kFetchDn: {
      const bool tt = frame.type == MsgType::kFetchTt;
      const NodeId node = static_cast<NodeId>(dec.getU32());
      const double now = dec.getDouble();
      const double watermark = dec.getDouble();
      if (node < 1 || node > opts_.slaves) {
        conn.sendError(ErrorCode::kUnknownNode,
                       "node " + std::to_string(node));
        return;
      }
      std::vector<hadooplog::StateSample> rows;
      rpc::Encoder enc;
      {
        std::lock_guard<std::mutex> lock(stateMutex_);
        if (sim_ != nullptr) {
          sim_->advanceTo(now);
          rpc::HadoopLogDaemon& daemon = sim_->hub().hadoopLog(node);
          rows = tt ? daemon.fetchTt(watermark) : daemon.fetchDn(watermark);
        } else {
          rows = tt ? proc_->fetchTt(node, watermark)
                    : proc_->fetchDn(node, watermark);
        }
        rpc::encodeSamples(enc, rows);
        observeSample(tt ? rpc::CollectKind::kTt : rpc::CollectKind::kDn,
                      node, now, watermark, enc);
      }
      conn.send(tt ? MsgType::kTtData : MsgType::kDnData, enc);
      return;
    }
    case MsgType::kFetchStrace: {
      const NodeId node = static_cast<NodeId>(dec.getU32());
      const double now = dec.getDouble();
      if (sim_ == nullptr) {
        conn.sendError(ErrorCode::kUnsupported,
                       "strace channel requires the sim source");
        return;
      }
      if (node < 1 || node > opts_.slaves) {
        conn.sendError(ErrorCode::kUnknownNode,
                       "node " + std::to_string(node));
        return;
      }
      rpc::Encoder enc;
      {
        std::lock_guard<std::mutex> lock(stateMutex_);
        sim_->advanceTo(now);
        const syscalls::TraceSecond trace = sim_->hub().strace(node).fetch();
        rpc::encodeTrace(enc, trace);
        observeSample(rpc::CollectKind::kStrace, node, now, kNoTime, enc);
      }
      conn.send(MsgType::kStraceData, enc);
      return;
    }
    case MsgType::kStats: {
      handleStats(conn, dec.getDouble());
      return;
    }
    case MsgType::kShutdown: {
      rpc::Encoder enc;
      conn.send(MsgType::kShutdownAck, enc);
      conn.close();
      logInfo("asdf_rpcd: shutdown requested; exiting");
      group_.stop();
      return;
    }
    default:
      conn.sendError(ErrorCode::kBadRequest,
                     "unexpected message type " +
                         std::to_string(static_cast<int>(frame.type)));
      return;
  }
}

}  // namespace asdf::net
