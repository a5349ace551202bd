#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace redcache {

bool NaturalNameLess(const std::string& a, const std::string& b) {
  std::size_t i = 0, j = 0;
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  while (i < a.size() && j < b.size()) {
    if (digit(a[i]) && digit(b[j])) {
      std::size_t ia = i, jb = j;
      while (ia < a.size() && digit(a[ia])) ia++;
      while (jb < b.size() && digit(b[jb])) jb++;
      // Compare the digit runs by value: longer run of significant digits
      // wins; equal lengths compare lexically (which is numeric here).
      std::size_t pa = i, pb = j;
      while (pa < ia && a[pa] == '0') pa++;
      while (pb < jb && b[pb] == '0') pb++;
      const std::size_t la = ia - pa, lb = jb - pb;
      if (la != lb) return la < lb;
      const int cmp = a.compare(pa, la, b, pb, lb);
      if (cmp != 0) return cmp < 0;
      // Equal values: fewer leading zeros first, for a total order.
      if (ia - i != jb - j) return ia - i < jb - j;
      i = ia;
      j = jb;
      continue;
    }
    if (a[i] != b[j]) return a[i] < b[j];
    i++;
    j++;
  }
  return a.size() - i < b.size() - j;
}

Histogram::Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
    : bucket_width_(bucket_width == 0 ? 1 : bucket_width),
      buckets_(num_buckets == 0 ? 1 : num_buckets, 0) {}

void Histogram::Add(std::uint64_t value, std::uint64_t weight) {
  const std::uint64_t idx = value / bucket_width_;
  if (idx < buckets_.size()) {
    buckets_[idx] += weight;
  } else {
    overflow_ += weight;
  }
  total_samples_ += 1;
  total_weight_ += weight;
  weighted_sum_ += static_cast<double>(value) * static_cast<double>(weight);
}

double Histogram::Mean() const {
  if (total_weight_ == 0) return 0.0;
  return weighted_sum_ / static_cast<double>(total_weight_);
}

std::uint64_t Histogram::Quantile(double q) const {
  if (total_weight_ == 0) return 0;
  // Smallest positive rank at or past the requested quantile. Flooring here
  // (and a plain cast for q=0) yielded target 0, which made the scan stop at
  // bucket 0 even when it was empty — Quantile(0) must be the end of the
  // first bucket that actually observed weight.
  const double scaled = q * static_cast<double>(total_weight_);
  const auto target =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(scaled)));
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    acc += buckets_[i];
    if (acc >= target) return (i + 1) * bucket_width_ - 1;
  }
  return buckets_.size() * bucket_width_;  // in overflow
}

void Histogram::Snapshot(ser::Writer& w) const {
  w.Section("hist");
  w.U64(bucket_width_);
  w.U64Seq(buckets_);
  w.U64(overflow_);
  w.U64(total_samples_);
  w.U64(total_weight_);
  w.F64(weighted_sum_);
}

void Histogram::Restore(ser::Reader& r) {
  r.Section("hist");
  const std::uint64_t bucket_width = r.U64();
  std::vector<std::uint64_t> buckets = r.U64Vec();
  bucket_width_ = bucket_width == 0 ? 1 : bucket_width;
  buckets_ = buckets.empty() ? std::vector<std::uint64_t>(1, 0)
                             : std::move(buckets);
  overflow_ = r.U64();
  total_samples_ = r.U64();
  total_weight_ = r.U64();
  weighted_sum_ = r.F64();
}

void Histogram::Clear() {
  for (auto& b : buckets_) b = 0;
  overflow_ = 0;
  total_samples_ = 0;
  total_weight_ = 0;
  weighted_sum_ = 0.0;
}

std::uint32_t CounterIds::Intern(const std::string& name) {
  const auto [it, inserted] = index_.try_emplace(name, size());
  if (inserted) names_.push_back(name);
  return it->second;
}

std::uint32_t CounterIds::Find(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? kNone : it->second;
}

std::uint64_t& StatSet::Counter(const std::string& name) {
  if (ids_ != nullptr) return CaptureCounter(name);
  return counters_[name];
}

void StatSet::BeginCapture(CounterIds& ids) {
  ids_ = &ids;
  next_id_ = 0;
  std::fill(present_.begin(), present_.end(), std::uint8_t{0});
}

std::uint64_t& StatSet::CaptureCounter(const std::string& name) {
  std::uint32_t id = next_id_;
  if (id >= ids_->size() || ids_->name(id) != name) id = ids_->Intern(name);
  next_id_ = id + 1;
  if (id >= values_.size()) {
    values_.resize(ids_->size(), 0);
    present_.resize(ids_->size(), 0);
  }
  if (present_[id] == 0) {
    present_[id] = 1;
    values_[id] = 0;  // a first write starts from zero, like a new map key
  }
  return values_[id];
}

std::uint64_t StatSet::GetCounter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

bool StatSet::HasCounter(const std::string& name) const {
  return counters_.count(name) != 0;
}

Histogram& StatSet::Hist(const std::string& name, std::uint64_t bucket_width,
                         std::size_t num_buckets) {
  auto it = hists_.find(name);
  if (it == hists_.end()) {
    it = hists_.emplace(name, Histogram(bucket_width, num_buckets)).first;
  }
  return it->second;
}

const Histogram* StatSet::FindHist(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? nullptr : &it->second;
}

StatSet StatSet::Diff(const StatSet& other) const {
  StatSet out;
  for (const auto& [name, value] : counters_) {
    out.Counter(name) = value - other.GetCounter(name);
  }
  return out;
}

void StatSet::Absorb(const StatSet& other, const std::string& prefix) {
  for (const auto& [name, value] : other.counters_) {
    counters_[prefix + name] += value;
  }
  for (const auto& [name, hist] : other.hists_) {
    hists_.emplace(prefix + name, hist);
  }
}

void StatSet::Clear() {
  counters_.clear();
  hists_.clear();
  ids_ = nullptr;
  next_id_ = 0;
  values_.clear();
  present_.clear();
}

void StatSet::Snapshot(ser::Writer& w) const {
  w.Section("stats");
  w.U64(counters_.size());
  for (const auto& [name, value] : counters_) {
    w.Str(name);
    w.U64(value);
  }
  w.U64(hists_.size());
  for (const auto& [name, hist] : hists_) {
    w.Str(name);
    hist.Snapshot(w);
  }
}

void StatSet::Restore(ser::Reader& r) {
  r.Section("stats");
  Clear();
  const std::size_t num_counters = r.SeqLen(16);  // name length + value
  for (std::size_t i = 0; i < num_counters; ++i) {
    const std::string name = r.Str();
    counters_[name] = r.U64();
  }
  const std::size_t num_hists = r.SeqLen(16);
  for (std::size_t i = 0; i < num_hists; ++i) {
    const std::string name = r.Str();
    hists_[name].Restore(r);
  }
}

std::string StatSet::ToString() const {
  // Human-facing dump: natural order groups "chan2" before "chan10".
  std::vector<const std::map<std::string, std::uint64_t>::value_type*> sorted;
  sorted.reserve(counters_.size());
  for (const auto& kv : counters_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return NaturalNameLess(a->first, b->first);
  });
  std::ostringstream os;
  for (const auto* kv : sorted) {
    os << kv->first << " = " << kv->second << '\n';
  }
  return os.str();
}

}  // namespace redcache
