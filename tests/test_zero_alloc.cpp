// Asserts the core data-plane claim with the counting allocator: once
// scratch buffers and builder pools are warm, the analysis loop — the
// flat kernels, the single-group reduce + judge path the analysis
// modules run, pooled emission and handle retention — performs zero
// heap allocations per iteration.
//
// This lives in its own test binary (asdf_zero_alloc_test) because it
// links the global operator new/delete replacements from
// bench/alloc_hook.cpp, which must not leak into the main suite.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "analysis/kmeans.h"
#include "analysis/partials.h"
#include "analysis/peercompare.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/value.h"
#include "modules/peer_judge.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/tcp_server.h"
#include "rpc/wire.h"

namespace asdf {
namespace {

constexpr std::size_t kNodes = 50;
constexpr std::size_t kDims = 16;

Matrix makePoints(std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.row(r)[c] = static_cast<double>((r * 31 + c * 7) % 23);
    }
  }
  return m;
}

TEST(ZeroAlloc, KMeansSteadyStateAllocatesNothing) {
  const Matrix points = makePoints(64, 8);
  analysis::KMeansOptions options;
  options.k = 4;
  analysis::KMeansScratch scratch;
  analysis::KMeansResult result;

  // Warm: scratch, result, and centroid storage reach capacity.
  for (int i = 0; i < 3; ++i) {
    Rng rng(42);
    analysis::kmeans(points, options, rng, scratch, result);
  }

  allochook::reset();
  Rng rng(42);
  analysis::kmeans(points, options, rng, scratch, result);
  const allochook::Totals t = allochook::totals();
  EXPECT_EQ(t.allocs, 0u) << "kmeans allocated in steady state";
}

TEST(ZeroAlloc, NearestCentroidsSteadyStateAllocatesNothing) {
  const Matrix centroids = makePoints(8, kDims);
  std::vector<double> x(kDims, 3.0);
  analysis::NearestScratch scratch;
  (void)analysis::nearestCentroids(centroids, x.data(), 3, scratch);  // warm

  allochook::reset();
  for (int i = 0; i < 100; ++i) {
    x[0] = static_cast<double>(i);
    const auto& order = analysis::nearestCentroids(centroids, x.data(), 3,
                                                   scratch);
    ASSERT_EQ(order.size(), 3u);
  }
  EXPECT_EQ(allochook::totals().allocs, 0u);
}

TEST(ZeroAlloc, PeerComparisonSteadyStateAllocatesNothing) {
  // One histogram/mean/stddev row per node, flat storage.
  Matrix hists = makePoints(kNodes, kDims);
  Matrix means = makePoints(kNodes, kDims);
  Matrix stddevs(kNodes, kDims);
  for (std::size_t r = 0; r < kNodes; ++r) {
    for (std::size_t c = 0; c < kDims; ++c) stddevs.row(r)[c] = 1.0;
  }
  std::vector<const double*> histRows(kNodes);
  std::vector<const double*> meanRows(kNodes);
  std::vector<const double*> sdRows(kNodes);
  for (std::size_t r = 0; r < kNodes; ++r) {
    histRows[r] = hists.row(r);
    meanRows[r] = means.row(r);
    sdRows[r] = stddevs.row(r);
  }
  std::vector<double> flags(kNodes);
  std::vector<double> scores(kNodes);
  std::vector<double> stateSeq(60);
  for (std::size_t i = 0; i < stateSeq.size(); ++i) {
    stateSeq[i] = static_cast<double>(i % kDims);
  }
  std::vector<double> hist(kDims);
  analysis::PeerScratch scratch;

  // Warm both comparisons once.
  analysis::blackBoxCompareInto(histRows.data(), kNodes, kDims, 40.0, scratch,
                                flags.data(), scores.data());
  analysis::whiteBoxCompareInto(meanRows.data(), sdRows.data(), kNodes, kDims,
                                2.0, scratch, flags.data(), scores.data());

  allochook::reset();
  for (int i = 0; i < 100; ++i) {
    analysis::stateHistogramInto(stateSeq.data(), stateSeq.size(),
                                 hist.data(), kDims);
    analysis::blackBoxCompareInto(histRows.data(), kNodes, kDims, 40.0,
                                  scratch, flags.data(), scores.data());
    analysis::whiteBoxCompareInto(meanRows.data(), sdRows.data(), kNodes,
                                  kDims, 2.0, scratch, flags.data(),
                                  scores.data());
  }
  EXPECT_EQ(allochook::totals().allocs, 0u);
}

// The flat [analysis_bb]/[analysis_wb] hot path: reduce all nodes into
// one GroupSummary, then judge it (merge + quorum + transition check).
// One node is unmonitorable, so the survivor path is exercised; its
// MonitoringEvent fires once during warm-up and never again.
TEST(ZeroAlloc, SingleGroupJudgeSteadyStateAllocatesNothing) {
  const Matrix hists = makePoints(kNodes, kDims);
  const Matrix means = makePoints(kNodes, kDims);
  Matrix stddevs(kNodes, kDims);
  for (std::size_t r = 0; r < kNodes; ++r) {
    for (std::size_t c = 0; c < kDims; ++c) stddevs.row(r)[c] = 1.0;
  }
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < kNodes; ++i) {
    labels.push_back(strformat("slave%zu", i + 1));
  }
  constexpr std::size_t kExcluded = 7;

  analysis::GroupSummary bb;
  analysis::GroupSummary wb;
  std::vector<const double*> rowPtrs;
  std::vector<const double*> devPtrs;
  // What the reducer does per window: survivor rows plus their
  // sorted median partials.
  const auto reduce = [&](const Matrix& rows, const Matrix* devs,
                          analysis::GroupSummary& out) {
    out.members = kNodes;
    out.dims = kDims;
    out.hasDev = devs != nullptr;
    out.health.assign(kNodes, 0.0);
    out.health[kExcluded] = 2.0;
    out.rows.resizeRows(0, kDims);
    devPtrs.clear();
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (i == kExcluded) continue;
      out.rows.push_back(rows.row(i), kDims);
      if (devs != nullptr) devPtrs.push_back(devs->row(i));
    }
    rowPtrs.clear();
    for (std::size_t j = 0; j < out.rows.rows(); ++j) {
      rowPtrs.push_back(out.rows.row(j));
    }
    analysis::reduceMedianPartial(rowPtrs.data(), rowPtrs.size(), kDims,
                                  out.median);
    if (devs != nullptr) {
      analysis::reduceMedianPartial(devPtrs.data(), devPtrs.size(), kDims,
                                    out.devMedian);
    }
  };

  modules::PeerJudge bbJudge(modules::PeerKind::kBlackBox, 40.0, 0, labels);
  modules::PeerJudge wbJudge(modules::PeerKind::kWhiteBox, 2.0, 0, labels);
  const std::string bbChannel = "analysis_bb";
  const std::string wbChannel = "analysis_wb";
  std::vector<double> flags(kNodes);
  std::vector<double> scores(kNodes);
  std::vector<double> health(kNodes);
  const analysis::GroupSummary* bbGroup = &bb;
  const analysis::GroupSummary* wbGroup = &wb;
  const auto pass = [&] {
    reduce(hists, nullptr, bb);
    const core::MonitoringEvent* bbEvent =
        bbJudge.judge(&bbGroup, 1, 0.0, bbChannel, flags.data(),
                      scores.data(), health.data());
    reduce(means, &stddevs, wb);
    const core::MonitoringEvent* wbEvent =
        wbJudge.judge(&wbGroup, 1, 0.0, wbChannel, flags.data(),
                      scores.data(), health.data());
    return bbEvent != nullptr || wbEvent != nullptr;
  };

  EXPECT_TRUE(pass());  // warm-up: the exclusion is a transition
  EXPECT_FALSE(pass());

  allochook::reset();
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(pass());
  }
  EXPECT_EQ(allochook::totals().allocs, 0u);
  EXPECT_EQ(health[kExcluded], 2.0);
  EXPECT_EQ(flags[kExcluded], 0.0);
}

TEST(ZeroAlloc, BuilderEmissionAndRetentionAllocateNothing) {
  core::VecBuilder builder;
  core::VecBuf portSlot;                  // the port's latest sample
  std::vector<core::VecBuf> window(10);   // a consumer's history ring

  // Warm: pool grows to retention depth + 1, vectors reach capacity.
  for (int i = 0; i < 30; ++i) {
    std::vector<double>& v = builder.acquire();
    v.assign(82, static_cast<double>(i));
    portSlot = builder.share();
    window[static_cast<std::size_t>(i) % 10] = portSlot;
  }

  allochook::reset();
  for (int i = 30; i < 130; ++i) {
    std::vector<double>& v = builder.acquire();
    v.assign(82, static_cast<double>(i));
    portSlot = builder.share();
    window[static_cast<std::size_t>(i) % 10] = portSlot;
  }
  EXPECT_EQ(allochook::totals().allocs, 0u);
  EXPECT_LE(builder.poolSize(), 12u);
}

// The net-plane claim (DESIGN.md §15): once a connection's decode
// buffer, scratch frame and outbound queue are warm, a full
// request -> decode -> dispatch -> respond exchange performs zero heap
// allocations on the server — the hot path reuses the per-connection
// scratch Frame, appends responses into the retained outbound buffer,
// and the uncorked single-frame path writes straight from a stack
// header + payload iovec pair.
TEST(ZeroAlloc, TcpServerSteadyStateExchangeAllocatesNothing) {
  net::EventLoop loop;
  net::TcpServer server(loop, 0);
  // Pre-built response so the handler itself is allocation-free; real
  // daemons reuse encoders the same way.
  rpc::Encoder response;
  response.putDouble(1234.5);
  response.putString("steady-state");
  server.onFrame([&response](net::TcpServer::Connection& conn,
                             const net::Frame&) {
    conn.send(net::MsgType::kSadcData, response);
  });
  std::thread loopThread([&loop] { loop.run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const std::vector<std::uint8_t> request =
      net::encodeFrame(net::MsgType::kStats, nullptr, 0);
  net::FrameDecoder decoder;
  net::Frame reply;
  std::uint8_t chunk[4096];
  // The client side of the exchange loop is allocation-free too once
  // the decoder buffer and reply payload are at capacity, so the
  // global counter isolates the server path.
  const auto exchange = [&]() -> bool {
    std::size_t off = 0;
    while (off < request.size()) {
      const ssize_t n = ::write(fd, request.data() + off,
                                request.size() - off);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    while (!decoder.next(reply)) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0 || !decoder.feed(chunk, static_cast<std::size_t>(n))) {
        return false;
      }
    }
    return reply.type == net::MsgType::kSadcData;
  };

  // Warm: connection buffers, scratch frame, decoder, reply payload.
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(exchange());

  allochook::reset();
  int ok = 0;
  for (int i = 0; i < 200; ++i) ok += exchange() ? 1 : 0;
  const allochook::Totals t = allochook::totals();
  EXPECT_EQ(ok, 200);
  EXPECT_EQ(t.allocs, 0u)
      << "accept->dispatch->respond allocated in steady state";

  ::close(fd);
  loop.stop();
  loopThread.join();
  EXPECT_EQ(server.framesServed(), 250);
}

}  // namespace
}  // namespace asdf
