// Measurement primitives of the benchmark driver, kept free of simulator
// state so the self-test can check them on hand-built inputs:
//
//  * exact quantiles over per-op samples (nearest rank on the sorted
//    values — every reported quantile is a sample that occurred, with no
//    bucketing error);
//  * span self time: a span's duration minus the part of its interval that
//    its direct children cover (children may overlap each other and may
//    stick out of the parent; only the covered part inside the parent
//    counts, and overlapping cover is counted once);
//  * a 64-bit FNV-1a digest over per-op outcomes, which the driver compares
//    between repeated and traced replays of one seed;
//  * a host-speed reference: a fixed event loop that shares no code with
//    the simulator, timed to scale host times to a reference-speed host.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"

namespace c4h::perfbench {

/// Nearest-rank quantile, q in [0, 1]: the ceil(q·n)-th smallest sample
/// (the smallest for q = 0). Returns 0 for an empty sample set.
inline double exact_quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

/// Median of a small set of repeated measurements (mean of the middle two
/// for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Length of [lo, hi] covered by the union of `intervals` (each clipped to
/// [lo, hi] first).
inline std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                            std::int64_t lo, std::int64_t hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cur_a = 0;
  std::int64_t cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

/// Self time per span name, summed over every finished span (ns). Spans are
/// the Tracer's: ids are index + 1 and a parent precedes its children.
/// Unfinished spans and their cover are ignored.
inline std::map<std::string, std::int64_t> self_time_by_name(const std::vector<obs::Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const obs::Span& s : spans) {
    if (!s.finished || s.parent == 0 || s.parent > spans.size()) continue;
    kids[s.parent - 1].emplace_back(s.start.count(), s.end.count());
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& s = spans[i];
    if (!s.finished) continue;
    const std::int64_t a = s.start.count();
    const std::int64_t b = s.end.count();
    out[s.name] += (b - a) - covered(std::move(kids[i]), a, b);
  }
  return out;
}

/// Incremental 64-bit FNV-1a over whole words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Wall seconds of a fixed workload shaped like the simulator's hot paths,
/// in two parts: an event loop (a time-ordered heap of std::function
/// events, each touching an ordered map and scheduling the next) and
/// floating-point max-min water-filling over random flow paths. It depends
/// on nothing in src/, so a change to the simulator cannot move it; a
/// change in the host's speed does. Each part alone tracked the host's
/// drift worse than their sum.
inline double reference_seconds() {
  std::uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto t0 = std::chrono::steady_clock::now();

  struct Ev {
    std::uint64_t t;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> queue;
  std::map<std::uint64_t, std::vector<std::uint64_t>> state;
  std::uint64_t now = 0;
  std::uint64_t seq = 0;
  int left = 50000;
  std::function<void(std::uint64_t)> step = [&](std::uint64_t key) {
    std::vector<std::uint64_t>& v = state[key % 4096];
    v.push_back(now);
    if (v.size() > 16) v.erase(v.begin());
    if (--left > 0) {
      const std::uint64_t k = next();
      queue.push(Ev{now + (k & 0xffff), seq++, [&step, k] { step(k); }});
    }
  };
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t k = next();
    queue.push(Ev{k & 0xffff, seq++, [&step, k] { step(k); }});
  }
  while (!queue.empty()) {
    Ev e = queue.top();
    queue.pop();
    now = e.t;
    e.fn();
  }

  constexpr int kFlows = 64;
  constexpr int kLinks = 16;
  std::vector<std::vector<int>> paths(kFlows);
  for (std::vector<int>& p : paths) {
    for (int h = 0; h < 3; ++h) p.push_back(static_cast<int>(next() % kLinks));
  }
  double total = 0.0;
  for (int r = 0; r < 2000; ++r) {
    std::vector<double> cap(kLinks);
    for (double& c : cap) c = 1e6 + static_cast<double>(next() % 1000000);
    std::vector<double> rate(kFlows, 0.0);
    std::vector<bool> frozen(kFlows, false);
    for (int round = 0; round < kFlows; ++round) {
      std::vector<int> users(kLinks, 0);
      for (int f = 0; f < kFlows; ++f) {
        if (!frozen[f]) {
          for (int l : paths[f]) ++users[l];
        }
      }
      double share = 0.0;
      int bottleneck = -1;
      for (int l = 0; l < kLinks; ++l) {
        if (users[l] > 0 && (bottleneck < 0 || cap[l] / users[l] < share)) {
          share = cap[l] / users[l];
          bottleneck = l;
        }
      }
      if (bottleneck < 0) break;
      for (int f = 0; f < kFlows; ++f) {
        if (frozen[f]) continue;
        rate[f] += share;
        for (int l : paths[f]) {
          cap[l] -= share;
          if (l == bottleneck) frozen[f] = true;
        }
      }
    }
    for (double v : rate) total += v;
  }

  const double t = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // `total` is always positive; using it keeps the loop from being elided.
  return total > 0.0 ? t : -t;
}

}  // namespace c4h::perfbench
