#include "rpc/daemons.h"

#include <stdexcept>
#include <string>

#include "rpc/payloads.h"
#include "rpc/wire.h"

namespace asdf::rpc {
namespace {

// The node-side cost of answering one poll: a sliver of CPU and the
// response bytes on the NIC (this is the perturbation Table 3 bounds).
void chargeNode(hadoop::Node& node, double cpuSeconds, double txBytes) {
  node.addCpuSystem(cpuSeconds);
  node.addNetTx(txBytes);
  node.addNetRx(kCollectRequestBytes);
}

}  // namespace

SadcDaemon::SadcDaemon(hadoop::Node& node, TransportRegistry& transports)
    : node_(node), channel_(transports.channel("sadc-tcp")) {
  channel_.recordConnect();
}

metrics::SadcSnapshot SadcDaemon::fetch() {
  CpuMeter::BusyScope scope(cpu_);
  ++calls_;
  Encoder enc;
  encodeSnapshot(enc, node_.sadcCollect());
  channel_.recordCall(kCollectRequestBytes, enc.size());
  chargeNode(node_, 2.0e-5, static_cast<double>(enc.size()));
  Decoder dec(enc.bytes());
  return decodeSnapshot(dec);
}

std::size_t SadcDaemon::memoryFootprintBytes() const {
  // libsadc keeps one snapshot-sized working buffer plus /proc read
  // scratch; the daemon itself holds the encoder buffer.
  return sizeof(SadcDaemon) +
         (metrics::kNodeMetricCount + metrics::kNicMetricCount +
          2 * metrics::kProcessMetricCount) *
             sizeof(double) +
         4096 /* /proc scratch */;
}

HadoopLogDaemon::HadoopLogDaemon(hadoop::Node& node,
                                 TransportRegistry& transports,
                                 SimTime attachTime)
    : node_(node),
      ttChannel_(transports.channel("hl-tt-tcp")),
      dnChannel_(transports.channel("hl-dn-tcp")) {
  ttChannel_.recordConnect();
  dnChannel_.recordConnect();
  ttParser_.startAt(static_cast<long>(attachTime));
  dnParser_.startAt(static_cast<long>(attachTime));
}

std::vector<hadooplog::StateSample> HadoopLogDaemon::roundTrip(
    RpcChannelStats& channel,
    const std::vector<hadooplog::StateSample>& samples) {
  Encoder enc;
  encodeSamples(enc, samples);
  channel.recordCall(kCollectRequestBytes, enc.size());
  chargeNode(node_, 1.0e-5, static_cast<double>(enc.size()));
  Decoder dec(enc.bytes());
  return decodeSamples(dec);
}

std::vector<hadooplog::StateSample> HadoopLogDaemon::fetchTt(
    SimTime watermark) {
  CpuMeter::BusyScope scope(cpu_);
  ++calls_;
  ttParser_.consume(node_.ttLog().linesFrom(ttCursor_));
  ttCursor_ = node_.ttLog().lineCount();
  return roundTrip(ttChannel_, ttParser_.poll(watermark));
}

std::vector<hadooplog::StateSample> HadoopLogDaemon::fetchDn(
    SimTime watermark) {
  CpuMeter::BusyScope scope(cpu_);
  ++calls_;
  dnParser_.consume(node_.dnLog().linesFrom(dnCursor_));
  dnCursor_ = node_.dnLog().lineCount();
  return roundTrip(dnChannel_, dnParser_.poll(watermark));
}

std::size_t HadoopLogDaemon::memoryFootprintBytes() const {
  // The parser "maintains state that has constant memory use": the
  // open-task / open-transfer maps plus the per-second accumulators.
  return sizeof(HadoopLogDaemon) + ttParser_.openTaskCount() * 96 +
         dnParser_.openTransferCount() * 96 + 4096 /* line scratch */;
}

StraceDaemon::StraceDaemon(hadoop::Node& node,
                           TransportRegistry& transports)
    : node_(node), channel_(transports.channel("strace-tcp")) {
  channel_.recordConnect();
}

syscalls::TraceSecond StraceDaemon::fetch() {
  CpuMeter::BusyScope scope(cpu_);
  ++calls_;
  const syscalls::TraceSecond& trace = node_.lastSyscallTrace();
  // Wire format: one byte per event plus a length prefix.
  channel_.recordCall(kCollectRequestBytes, 4 + trace.size());
  chargeNode(node_, 1.0e-5, static_cast<double>(trace.size()) + 4.0);
  return trace;
}

std::size_t StraceDaemon::memoryFootprintBytes() const {
  // One second of trace buffer (one byte per event, sized for a busy
  // node) plus the ring the tracer writes into before it is drained.
  return sizeof(StraceDaemon) + 2 * node_.lastSyscallTrace().capacity() +
         4096 /* tracer ring scratch */;
}

RpcHub::NodeDaemons::NodeDaemons(hadoop::Node& node,
                                 TransportRegistry& transports,
                                 SimTime attachTime)
    : sadc(node, transports),
      hadoopLog(node, transports, attachTime),
      strace(node, transports) {}

RpcHub::RpcHub(hadoop::Cluster& cluster, SimTime attachTime) {
  for (hadoop::Node* node : cluster.slaveNodes()) {
    const auto slot = static_cast<std::size_t>(node->id());
    if (daemons_.size() <= slot) daemons_.resize(slot + 1);
    daemons_[slot] =
        std::make_unique<NodeDaemons>(*node, transports_, attachTime);
  }
}

RpcHub::NodeDaemons& RpcHub::daemonsOf(NodeId node) {
  const auto slot = static_cast<std::size_t>(node);
  if (node < 0 || slot >= daemons_.size() || daemons_[slot] == nullptr) {
    throw std::out_of_range("RpcHub: no daemons on node " +
                            std::to_string(node));
  }
  return *daemons_[slot];
}

SadcDaemon& RpcHub::sadc(NodeId node) { return daemonsOf(node).sadc; }

HadoopLogDaemon& RpcHub::hadoopLog(NodeId node) {
  return daemonsOf(node).hadoopLog;
}

StraceDaemon& RpcHub::strace(NodeId node) { return daemonsOf(node).strace; }

double RpcHub::sadcCpuSeconds() const {
  return sum([](const NodeDaemons& d) { return d.sadc.cpuSeconds(); });
}

double RpcHub::hadoopLogCpuSeconds() const {
  return sum([](const NodeDaemons& d) { return d.hadoopLog.cpuSeconds(); });
}

double RpcHub::straceCpuSeconds() const {
  return sum([](const NodeDaemons& d) { return d.strace.cpuSeconds(); });
}

std::size_t RpcHub::sadcMemoryBytes() const {
  return sum([](const NodeDaemons& d) {
    return d.sadc.memoryFootprintBytes();
  });
}

std::size_t RpcHub::hadoopLogMemoryBytes() const {
  return sum([](const NodeDaemons& d) {
    return d.hadoopLog.memoryFootprintBytes();
  });
}

std::size_t RpcHub::straceMemoryBytes() const {
  return sum([](const NodeDaemons& d) {
    return d.strace.memoryFootprintBytes();
  });
}

}  // namespace asdf::rpc
