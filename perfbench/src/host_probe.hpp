// The host's momentary speed, measured by a fixed probe that shares no code
// with the simulator.
//
// The reference machine is a virtual machine whose physical cores and
// last-level cache serve other tenants as well. Their load slows the
// simulator by up to 2x for minutes at a time, through the memory
// hierarchy (a pure ALU loop barely moves, and the process is not
// descheduled), so no statistic taken inside one run can undo it. The
// probe walks a random cyclic chain of dependent loads through an 8 MiB
// buffer, four times a core's private L2 there, so its loads miss the
// private caches and TLBs and go to the shared last-level cache and memory,
// where other tenants' traffic slows them as it slows the simulator. Each
// slot walks on from where the last one stopped, an eighth of the chain,
// whose lines were last touched a whole chain ago: its time does not depend
// on what the simulator left in the private caches. The end-to-end run
// divides its host times by the probe's slowdown against its quiet time
// there, so they read as times on the quiet reference host (README.md,
// "Steadiness").
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// Time of one slot on the quiet reference machine, in seconds.
  static constexpr double kQuietSlotS = 0.0024;
  static constexpr std::size_t kBytes = std::size_t{8} << 20;
  static constexpr std::size_t kLine = 64;
  static constexpr std::size_t kStepsPerSlot = kBytes / kLine / 8;

  /// Times one walk of kStepsPerSlot loads, in seconds.
  /// The chain is built on the first call, so a peak RSS read before it
  /// leaves the probe out.
  double Slot() {
    if (next_.empty()) Build();
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t at = at_;
    for (std::size_t i = 0; i < kStepsPerSlot; ++i) at = next_[at];
    at_ = at;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

  /// Times `slots` walks back to back.
  std::vector<double> Block(int slots) {
    std::vector<double> times;
    for (int s = 0; s < slots; ++s) times.push_back(Slot());
    return times;
  }

 private:
  /// One cycle through every cache line, in an order fixed by a xorshift
  /// shuffle (the same on every build).
  void Build() {
    next_.resize(kBytes / sizeof(std::uint32_t));
    const std::size_t lines = kBytes / kLine;
    const std::size_t stride = kLine / sizeof(std::uint32_t);
    std::vector<std::uint32_t> order(lines);
    for (std::size_t i = 0; i < lines; ++i) {
      order[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::size_t i = lines - 1; i > 1; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[1 + x % i]);
    }
    for (std::size_t i = 0; i < lines; ++i) {
      next_[order[i] * stride] =
          static_cast<std::uint32_t>(order[(i + 1) % lines] * stride);
    }
  }

  std::vector<std::uint32_t> next_;
  /// Where the walk stands. Volatile, so the walk can neither be dropped
  /// nor moved outside the two clock reads around it.
  volatile std::uint32_t at_ = 0;
};

}  // namespace perfbench
