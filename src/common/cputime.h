// Real (host) CPU-time metering.
//
// The paper's Table 3 reports the CPU cost of the collection daemons
// and of fpt-core. We meter the actual CPU time the host process
// spends inside those components while the simulation runs, and the
// Table 3 bench divides by the simulated duration to report "% CPU".
//
// The meter must not become the cost it reports. Linux has no vDSO
// path for CLOCK_THREAD_CPUTIME_ID, so every thread-CPU read is a real
// syscall (several hundred ns), while CLOCK_MONOTONIC (steady_clock)
// is read in user space. Two scope kinds follow from that:
//
//   CpuMeter::Scope      thread-CPU time. Opened around coarse units of
//                        work only: fpt-core opens one per executing
//                        thread per executor batch (DESIGN.md §7), not
//                        one per module run.
//   CpuMeter::BusyScope  elapsed steady_clock time. Used for the
//                        collection daemons, whose fetches last
//                        microseconds and run on a single thread: the
//                        elapsed time equals the on-CPU time unless the
//                        thread is preempted mid-fetch, and a syscall
//                        pair per fetch would cost more than the fetch.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>

namespace asdf {

/// CPU seconds consumed by the calling thread so far (one syscall).
inline double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Monotonic wall-clock seconds (steady_clock; no syscall on Linux).
inline double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Accumulates CPU time across RAII scopes. Thread-safe: scopes may
/// close concurrently (fpt-core's parallel executors meter from several
/// worker threads; per-thread CPU clocks sum to the total process cost,
/// which is what Table 3 reports).
class CpuMeter {
 public:
  template <double (*Clock)()>
  class BasicScope {
   public:
    explicit BasicScope(CpuMeter& meter) : meter_(meter), start_(Clock()) {}
    ~BasicScope() { meter_.add(Clock() - start_); }
    BasicScope(const BasicScope&) = delete;
    BasicScope& operator=(const BasicScope&) = delete;

   private:
    CpuMeter& meter_;
    double start_;
  };
  using Scope = BasicScope<threadCpuSeconds>;
  using BusyScope = BasicScope<monotonicSeconds>;

  double seconds() const { return seconds_.load(std::memory_order_relaxed); }
  /// Scopes closed on this meter so far: two clock reads each.
  std::uint64_t scopes() const {
    return scopes_.load(std::memory_order_relaxed);
  }
  void reset() {
    seconds_.store(0.0, std::memory_order_relaxed);
    scopes_.store(0, std::memory_order_relaxed);
  }

 private:
  void add(double delta) {
    double current = seconds_.load(std::memory_order_relaxed);
    while (!seconds_.compare_exchange_weak(current, current + delta,
                                           std::memory_order_relaxed)) {
    }
    scopes_.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<double> seconds_{0.0};
  std::atomic<std::uint64_t> scopes_{0};
};

}  // namespace asdf
