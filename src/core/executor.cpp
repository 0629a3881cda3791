#include "core/executor.h"

#include <utility>

#include "common/strings.h"

namespace asdf::core {

// ---------------------------------------------------------------------------
// SerialExecutor

void SerialExecutor::runBatch(std::vector<Task>& batch, CpuMeter& meter) {
  if (batch.empty()) return;
  CpuMeter::Scope scope(meter);
  for (Task& task : batch) task();
}

// ---------------------------------------------------------------------------
// ThreadPoolExecutor

ThreadPoolExecutor::ThreadPoolExecutor(int threads) {
  if (threads < 1) threads = 1;
  name_ = strformat("pool(%d)", threads);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPoolExecutor::workerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) return;
    seen = generation_;
    if (batch_ == nullptr || nextIndex_ >= batch_->size()) continue;
    // One thread-CPU scope around this worker's whole share of the
    // batch. It is declared after `lock`, so it closes while the lock
    // is held: before the last task's completion can wake runBatch,
    // which therefore returns with the meter complete.
    CpuMeter::Scope scope(*meter_);
    while (batch_ != nullptr && nextIndex_ < batch_->size()) {
      const std::size_t index = nextIndex_++;
      lock.unlock();
      std::exception_ptr error;
      try {
        (*batch_)[index]();
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error) errors_[index] = error;
      if (--remaining_ == 0) done_.notify_all();
    }
  }
}

void ThreadPoolExecutor::runBatch(std::vector<Task>& batch,
                                  CpuMeter& meter) {
  if (batch.empty()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  batch_ = &batch;
  meter_ = &meter;
  errors_.assign(batch.size(), nullptr);
  nextIndex_ = 0;
  remaining_ = batch.size();
  ++generation_;
  wake_.notify_all();
  done_.wait(lock, [&] { return remaining_ == 0; });
  batch_ = nullptr;
  for (std::exception_ptr& error : errors_) {
    if (error) std::rethrow_exception(error);
  }
}

// ---------------------------------------------------------------------------

std::unique_ptr<Executor> makeExecutor(int threads) {
  if (threads <= 1) return std::make_unique<SerialExecutor>();
  return std::make_unique<ThreadPoolExecutor>(threads);
}

}  // namespace asdf::core
