// EventLoop, TcpServer and RealTimeDriver behavior over real sockets
// and real (but short) wall-clock waits.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/realtime.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/tcp_server.h"
#include "rpc/wire.h"
#include "sim/engine.h"

namespace asdf::net {
namespace {

// Minimal blocking client for poking the server from the test thread.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void sendAll(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Blocks until one full frame arrives (or EOF, returning false).
  bool readFrame(Frame& out) {
    std::uint8_t chunk[512];
    while (!decoder_.next(out)) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return false;
      if (!decoder_.feed(chunk, static_cast<std::size_t>(n))) return false;
    }
    return true;
  }

  /// Blocks until the server closes the connection.
  bool waitForEof() {
    std::uint8_t chunk[64];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

TEST(EventLoop, TimersFireInDeadlineOrderAndCancelWorks) {
  EventLoop loop;
  std::vector<char> order;
  loop.addTimer(0.02, [&] { order.push_back('a'); });
  const int cancelMe = loop.addTimer(0.03, [&] { order.push_back('X'); });
  loop.addTimer(0.005, [&] { order.push_back('c'); });
  loop.addTimer(0.05, [&] {
    order.push_back('d');
    loop.stop();
  });
  loop.cancelTimer(cancelMe);
  loop.run();
  EXPECT_EQ(std::string(order.begin(), order.end()), "cad");
}

TEST(EventLoop, WatchedFdDeliversReadable) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string received;
  loop.watchFd(fds[0], /*wantRead=*/true, /*wantWrite=*/false,
               [&](int fd, std::uint32_t events) {
                 ASSERT_TRUE(events & EventLoop::kReadable);
                 char buf[16];
                 const ssize_t n = ::read(fd, buf, sizeof(buf));
                 ASSERT_GT(n, 0);
                 received.assign(buf, static_cast<std::size_t>(n));
                 loop.stop();
               });
  ASSERT_EQ(::write(fds[1], "ping", 4), 4);
  loop.run();
  EXPECT_EQ(received, "ping");
  loop.unwatchFd(fds[0]);
  EXPECT_EQ(loop.watchedFds(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, StopFromAnotherThreadUnblocksRun) {
  EventLoop loop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.stop();
  });
  loop.run();  // no fds, no timers: blocks until the wakeup fd fires
  stopper.join();
  EXPECT_TRUE(loop.stopped());
}

TEST(EventLoop, RunOnceHonorsTimeout) {
  EventLoop loop;
  EXPECT_EQ(loop.runOnce(0.01), 0);  // nothing due, returns after timeout
}

TEST(TcpServer, ServesFramesAndSurvivesHandlerErrors) {
  EventLoop loop;
  TcpServer server(loop, 0);
  ASSERT_GT(server.port(), 0);
  server.onFrame([](TcpServer::Connection& conn, const Frame& frame) {
    if (frame.type == MsgType::kHello) {
      rpc::Decoder in(frame.payload);
      in.getU32();
      rpc::Encoder out;
      out.putString("echo:" + in.getString());
      conn.send(MsgType::kHelloAck, out);
    } else {
      throw std::runtime_error("unhandled type");  // must not kill server
    }
  });
  std::thread loopThread([&] { loop.run(); });

  {
    TestClient client(server.port());
    rpc::Encoder hello;
    hello.putU32(kProtocolVersion);
    hello.putString("hi");
    client.sendAll(encodeFrame(MsgType::kHello, hello));

    Frame reply;
    ASSERT_TRUE(client.readFrame(reply));
    EXPECT_EQ(reply.type, MsgType::kHelloAck);
    rpc::Decoder in(reply.payload);
    EXPECT_EQ(in.getString(), "echo:hi");

    // A handler exception comes back as kError, on the same connection.
    client.sendAll(encodeFrame(MsgType::kStats, nullptr, 0));
    ASSERT_TRUE(client.readFrame(reply));
    EXPECT_EQ(reply.type, MsgType::kError);
  }

  loop.stop();
  loopThread.join();
  EXPECT_EQ(server.framesServed(), 2);
  EXPECT_EQ(server.connectionsRejected(), 0);
}

TEST(TcpServer, MalformedFramingDropsOnlyThatConnection) {
  EventLoop loop;
  TcpServer server(loop, 0);
  server.onFrame([](TcpServer::Connection& conn, const Frame& frame) {
    rpc::Encoder out;
    out.putU32(0);
    conn.send(frame.type, out);
  });
  std::thread loopThread([&] { loop.run(); });

  {
    TestClient vandal(server.port());
    TestClient bystander(server.port());

    const char* garbage = "this is definitely not an ASDF frame";
    vandal.sendAll(std::vector<std::uint8_t>(
        garbage, garbage + std::strlen(garbage)));
    EXPECT_TRUE(vandal.waitForEof());  // dropped, not wedged

    // The other connection keeps working.
    bystander.sendAll(encodeFrame(MsgType::kStats, nullptr, 0));
    Frame reply;
    ASSERT_TRUE(bystander.readFrame(reply));
    EXPECT_EQ(reply.type, MsgType::kStats);
  }

  loop.stop();
  loopThread.join();
  EXPECT_EQ(server.connectionsRejected(), 1);
  EXPECT_EQ(server.connectionCount(), 0u);
}

TEST(TcpServer, CrcCorruptionDropsConnection) {
  EventLoop loop;
  TcpServer server(loop, 0);
  server.onFrame([](TcpServer::Connection&, const Frame&) {});
  std::thread loopThread([&] { loop.run(); });

  {
    TestClient client(server.port());
    std::vector<std::uint8_t> frame = encodeFrame(MsgType::kStats, nullptr, 0);
    frame[12] ^= 0x01;  // corrupt the CRC field
    client.sendAll(frame);
    EXPECT_TRUE(client.waitForEof());
  }

  loop.stop();
  loopThread.join();
  EXPECT_EQ(server.connectionsRejected(), 1);
}

// A connection that goes quiet for longer than the idle timeout is
// reaped — the daemon's defense against leaked client sockets pinning
// buffers forever (DESIGN.md §13).
TEST(TcpServer, ReapsIdleConnections) {
  EventLoop loop;
  TcpServer server(loop, 0);
  server.onFrame([](TcpServer::Connection& conn, const Frame& frame) {
    rpc::Encoder out;
    out.putU32(0);
    conn.send(frame.type, out);
  });
  server.setIdleTimeout(0.15);  // before the loop thread starts
  std::thread loopThread([&] { loop.run(); });

  {
    TestClient client(server.port());
    client.sendAll(encodeFrame(MsgType::kStats, nullptr, 0));
    Frame reply;
    ASSERT_TRUE(client.readFrame(reply));  // active: not reaped yet
    EXPECT_TRUE(client.waitForEof());      // idle: reaped within ~0.3 s
  }

  loop.stop();
  loopThread.join();
  EXPECT_EQ(server.connectionsReaped(), 1);
  EXPECT_EQ(server.connectionCount(), 0u);
}

// A peer that requests data but never drains its socket cannot grow
// the outbound buffer without bound: past the cap the connection is
// dropped (its decoder couldn't survive a truncated stream anyway).
TEST(TcpServer, OutboundBufferOverCapDropsTheConnection) {
  EventLoop loop;
  TcpServer server(loop, 0);
  server.setMaxOutboundBytes(128 * 1024);
  const std::string blob(64 * 1024, 'x');
  server.onFrame([&blob](TcpServer::Connection& conn, const Frame& frame) {
    rpc::Encoder out;
    out.putString(blob);
    conn.send(frame.type, out);
  });
  std::thread loopThread([&] { loop.run(); });

  {
    TestClient client(server.port());
    // 1024 requests x 64 KiB responses = 64 MiB the client never
    // reads: far beyond what the kernel's socket buffers absorb, so
    // the outbound queue hits the cap and the connection is dropped
    // mid-burst — the server's memory stays bounded either way.
    std::vector<std::uint8_t> requests;
    for (int i = 0; i < 1024; ++i) {
      const std::vector<std::uint8_t> one =
          encodeFrame(MsgType::kStats, nullptr, 0);
      requests.insert(requests.end(), one.begin(), one.end());
    }
    client.sendAll(requests);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }

  loop.stop();
  loopThread.join();
  EXPECT_EQ(server.connectionsOverflowed(), 1);
  EXPECT_EQ(server.connectionCount(), 0u);
}

// Writing a response into a connection whose peer already vanished
// must surface as a send error on that connection — never as a
// process-killing SIGPIPE (the daemons additionally ignore SIGPIPE;
// the server must not rely on that).
TEST(TcpServer, WriteToClosedPeerDoesNotKillTheProcess) {
  EventLoop loop;
  TcpServer server(loop, 0);
  server.onFrame([](TcpServer::Connection& conn, const Frame& frame) {
    // Give the peer's FIN (and the RST its closed socket answers our
    // data with) time to arrive before the 1 MiB response goes out.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rpc::Encoder out;
    out.putString(std::string(1 << 20, 'x'));
    conn.send(frame.type, out);
  });
  std::thread loopThread([&] { loop.run(); });

  {
    TestClient client(server.port());
    client.sendAll(encodeFrame(MsgType::kStats, nullptr, 0));
  }  // gone before the handler replies

  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  {
    TestClient survivor(server.port());  // the server is still serving
    survivor.sendAll(encodeFrame(MsgType::kStats, nullptr, 0));
    Frame reply;
    EXPECT_TRUE(survivor.readFrame(reply));
  }

  loop.stop();
  loopThread.join();
  EXPECT_EQ(server.connectionCount(), 0u);
}

// --- RealTimeDriver ------------------------------------------------

// The no-spin contract: every loop iteration that doesn't finish the
// run takes a wait of at least the minimum nap. With an event due
// immediately (the pathological spin case), the driver must wait, not
// poll the steady clock in a tight loop.
TEST(RealTimeDriver, NeverSpinsEvenWithImmediatelyDueEvents) {
  sim::SimEngine engine;
  long fired = 0;
  engine.addPeriodic(0.001, [&] { ++fired; });  // always an event "due now"
  core::RealTimeDriver driver(engine, 1.0);
  std::vector<double> naps;
  driver.setWaiter([&](double seconds) {
    naps.push_back(seconds);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  });
  driver.run(0.05);
  EXPECT_GT(fired, 0);
  ASSERT_FALSE(naps.empty());
  for (double nap : naps) {
    EXPECT_GE(nap, 0.001);  // minNap floor: wall time advances every pass
    EXPECT_LE(nap, 0.1);    // maxNap cap: stop() stays responsive
  }
  // Bounded iteration count is the point: a spinning driver would take
  // thousands of passes through a 50 ms run.
  EXPECT_LE(driver.waits(), 60);
  EXPECT_EQ(driver.waits(), static_cast<long>(naps.size()));
}

// An idle engine (empty ready set) must still tick forward to the end
// of the run — waiting in maxNap slices, not returning early and not
// spinning.
TEST(RealTimeDriver, IdleEngineAdvancesToEndWithoutSpinning) {
  sim::SimEngine engine;
  core::RealTimeDriver driver(engine, 10.0);
  driver.run(0.03);
  EXPECT_GE(driver.waits(), 1);
  EXPECT_LE(driver.waits(), 40);
  EXPECT_NEAR(engine.now(), 0.3, 1e-6);  // 0.03 s wall at 10x
  EXPECT_TRUE(engine.idle());
}

// Pacing is measured from the clock after each batch: a batch that
// takes 40 ms of wall time must shorten the wait for an event due at
// 80 ms to at most 40 ms. Measuring from the clock read before the
// batch would request the full 80 ms and start every tick one batch
// late.
TEST(RealTimeDriver, NapSubtractsBatchRunTime) {
  sim::SimEngine engine;
  engine.scheduleAt(0.0, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  });
  engine.scheduleAt(0.08, [] {});
  core::RealTimeDriver driver(engine, 1.0);
  std::vector<double> naps;
  driver.setWaiter([&](double seconds) {
    naps.push_back(seconds);
    driver.stop();
  });
  driver.run(10.0);
  ASSERT_EQ(naps.size(), 1u);
  EXPECT_LE(naps[0], 0.04);
  EXPECT_GE(naps[0], 0.001);
}

TEST(RealTimeDriver, StopInterruptsRun) {
  sim::SimEngine engine;
  core::RealTimeDriver driver(engine, 1.0);
  driver.setWaiter([&](double) { driver.stop(); });  // stop at first wait
  driver.run(60.0);  // must return promptly, not after a minute
  EXPECT_EQ(driver.waits(), 1);
}

TEST(RealTimeDriver, ScalesVirtualTime) {
  sim::SimEngine engine;
  std::vector<double> at;
  engine.addPeriodic(1.0, [&] { at.push_back(engine.now()); });
  core::RealTimeDriver driver(engine, 100.0);  // 100 virtual s per wall s
  driver.run(0.05);                            // => 5 virtual seconds
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
  ASSERT_GE(at.size(), 4u);
  EXPECT_DOUBLE_EQ(at.front(), 1.0);
}

}  // namespace
}  // namespace asdf::net
