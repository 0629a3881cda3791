#include "core/realtime.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace asdf::core {

void RealTimeDriver::run(double durationSeconds) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const double virtualStart = engine_.now();
  // Wait until the next pending event is due instead of polling at a
  // fixed rate; stop() is still honored within `maxNap` so a signal
  // handler can interrupt a long idle stretch. `minNap` guarantees
  // forward progress in wall time on every iteration — without it, an
  // event due "now" (or the final fraction of the run) degenerates
  // into a spin on the steady clock.
  constexpr double maxNap = 0.1;
  constexpr double minNap = 0.001;
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  while (!stopped_.load()) {
    const double batchStart = elapsed();
    if (batchStart >= durationSeconds) break;
    engine_.runUntil(virtualStart + timeScale_ * batchStart);
    // The nap is measured from the clock *after* the batch: the batch's
    // own run time already counts toward the wait for the next event,
    // or every paced tick would start one batch late.
    const double wallElapsed = elapsed();
    if (wallElapsed >= durationSeconds) break;
    double nap = maxNap;
    if (!engine_.idle()) {
      const double untilNextWall =
          (engine_.nextEventTime() - virtualStart) / timeScale_ - wallElapsed;
      nap = std::min(maxNap, untilNextWall);
    }
    nap = std::min(nap, durationSeconds - wallElapsed);
    nap = std::max(nap, minNap);
    waits_.fetch_add(1);
    if (waiter_) {
      waiter_(nap);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(nap));
    }
  }
  if (!stopped_.load()) {
    engine_.runUntil(virtualStart + timeScale_ * durationSeconds);
  }
}

}  // namespace asdf::core
