#include "net/agg_server.h"

#include "common/logging.h"

namespace asdf::net {

AggServer::AggServer(const AggServerOptions& opts)
    : opts_(opts), group_(ShardGroupOptions{opts.port, opts.shards}) {
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

void AggServer::run() { group_.runOnCaller(); }

void AggServer::stop() { group_.stop(); }

void AggServer::handleFrame(TcpServer::Connection& conn,
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
      enc.putU32(static_cast<std::uint32_t>(opts_.groupSize));
      enc.putI64(static_cast<std::int64_t>(opts_.seed));
      enc.putString("agg");
      conn.send(MsgType::kHelloAck, enc);
      return;
    }
    case MsgType::kFetchSummary: {
      const std::uint32_t channel = dec.getU32();
      const double since = dec.getDouble();
      if (channel >= static_cast<std::uint32_t>(rpc::kSummaryChannelCount)) {
        conn.sendError(ErrorCode::kBadRequest,
                       "unknown summary channel " + std::to_string(channel));
        return;
      }
      std::vector<rpc::SummaryWindow> windows;
      opts_.board->fetchSince(static_cast<rpc::SummaryChannel>(channel),
                              since, windows);
      rpc::Encoder enc;
      enc.putU32(static_cast<std::uint32_t>(windows.size()));
      for (const rpc::SummaryWindow& w : windows) {
        rpc::encodeSummaryWindow(enc, w);
      }
      conn.send(MsgType::kSummaryData, enc);
      return;
    }
    case MsgType::kShutdown: {
      rpc::Encoder enc;
      conn.send(MsgType::kShutdownAck, enc);
      conn.close();
      logInfo("asdf_aggd: shutdown requested; exiting");
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
