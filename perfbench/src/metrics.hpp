// Metric arithmetic shared by the measuring program and its self-tests:
// means and medians over repetitions, the host probe's slowdown, ratios
// whose base may be
// zero, the sampled estimator's error and CI-miss formulas, and a per-call
// latency histogram.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Arithmetic mean of `v`; 0 when empty.
inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (double x : v) total += x;
  return total / static_cast<double>(v.size());
}

/// Median of `v` (mean of the middle pair for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Undisturbed total time of repeated identical slot sequences: the sum
/// over slots of the fastest repetition's time for that slot. Host noise
/// only ever adds time, in bursts that seldom cover the same slot in every
/// repetition. Every repetition must have the same number of slots;
/// returns 0 otherwise.
inline double SumOfSlotMinima(const std::vector<std::vector<double>>& reps) {
  if (reps.empty()) return 0.0;
  const std::size_t slots = reps.front().size();
  for (const std::vector<double>& rep : reps) {
    if (rep.size() != slots) return 0.0;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < slots; ++i) {
    double best = reps.front()[i];
    for (const std::vector<double>& rep : reps) best = std::min(best, rep[i]);
    total += best;
  }
  return total;
}

/// How much slower the host ran than when quiet, from probe blocks taken
/// across a run (one block per repetition, `quiet_slot_s` per slot when
/// quiet): SumOfSlotMinima as a multiple of the quiet time. 1 when there
/// are no blocks.
inline double HostSlowdown(const std::vector<std::vector<double>>& blocks,
                           double quiet_slot_s) {
  if (blocks.empty() || blocks.front().empty()) return 1.0;
  return SumOfSlotMinima(blocks) /
         (quiet_slot_s * static_cast<double>(blocks.front().size()));
}

/// num / den, or 0 when the base is zero (an idle layer, an empty epoch).
inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

inline double Pct(double num, double den) { return 100.0 * Ratio(num, den); }

/// |estimate - truth| as a percentage of the truth.
inline double SampleErrPct(double truth, double estimate) {
  return Pct(std::fabs(estimate - truth), truth);
}

/// How far the truth lies outside the reported interval
/// [estimate - half, estimate + half], as a percentage of the truth; 0 when
/// the interval covers it.
inline double CiMissPct(double truth, double estimate, double half) {
  const double lo = estimate - half;
  const double hi = estimate + half;
  const double miss = truth < lo ? lo - truth : (truth > hi ? truth - hi : 0.0);
  return Pct(miss, truth);
}

/// Per-call duration distribution in clock stamps: log2 buckets split into
/// four linear sub-buckets, so a quantile is exact below 8 stamps and
/// within 25% above. Fixed size; one Add is a few instructions.
class CallHistogram {
 public:
  void Add(std::uint64_t stamps) { ++buckets_[Index(stamps)]; ++count_; }

  std::uint64_t count() const { return count_; }

  /// Upper edge of the bucket holding the q-quantile call (0 when empty).
  std::uint64_t Quantile(double q) const {
    if (count_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= std::max<std::uint64_t>(rank, 1)) return UpperEdge(i);
    }
    return UpperEdge(buckets_.size() - 1);
  }

  static std::size_t Index(std::uint64_t v) {
    if (v < 8) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // v in [2^e, 2^(e+1)), e >= 3
    const auto sub = static_cast<std::size_t>((v >> (e - 2)) & 3);
    return 8 + static_cast<std::size_t>(e - 3) * 4 + sub;
  }

  static std::uint64_t UpperEdge(std::size_t i) {
    if (i < 8) return i;
    const std::size_t e = (i - 8) / 4 + 3;
    const std::uint64_t sub = (i - 8) % 4;
    // The top bucket's edge wraps to 2^64 - 1 (unsigned, well defined).
    return (std::uint64_t{1} << e) + ((sub + 1) << (e - 2)) - 1;
  }

 private:
  std::array<std::uint64_t, 8 + 61 * 4> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
