// Unit checks of the driver's measurement code (measure.hpp) on hand-built
// samples and span trees. run.py builds and runs this before every
// measurement; a failed check exits non-zero and the benchmark reports no
// result.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/measure.hpp"

namespace {

using c4h::perfbench::covered;
using c4h::perfbench::Digest;
using c4h::perfbench::exact_quantile;
using c4h::perfbench::median;
using c4h::perfbench::reference_seconds;
using c4h::perfbench::self_time_by_name;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

c4h::obs::Span span(std::uint64_t id, std::uint64_t parent, const std::string& name,
                    std::int64_t start, std::int64_t end) {
  c4h::obs::Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start = c4h::TimePoint{start};
  s.end = c4h::TimePoint{end};
  s.finished = true;
  return s;
}

void quantiles() {
  check(exact_quantile({}, 0.5) == 0.0, "empty sample set gives 0");
  check(exact_quantile({7.0}, 0.0) == 7.0, "single sample, q=0");
  check(exact_quantile({7.0}, 0.5) == 7.0, "single sample, median");
  check(exact_quantile({7.0}, 0.99) == 7.0, "single sample, p99");
  check(exact_quantile({7.0}, 1.0) == 7.0, "single sample, max");

  // Unsorted input; nearest rank on 1..10.
  const std::vector<double> ten = {10, 3, 7, 1, 9, 2, 8, 4, 6, 5};
  check(exact_quantile(ten, 0.5) == 5.0, "p50 of 1..10 is the 5th value");
  check(exact_quantile(ten, 0.51) == 6.0, "p51 of 1..10 is the 6th value");
  check(exact_quantile(ten, 0.99) == 10.0, "p99 of 1..10 is the max");
  check(exact_quantile(ten, 0.1) == 1.0, "p10 of 1..10 is the min");

  // Ties: the quantile is the tied value, never an interpolation.
  const std::vector<double> ties = {4, 4, 4, 4, 9};
  check(exact_quantile(ties, 0.5) == 4.0, "tied p50");
  check(exact_quantile(ties, 0.8) == 4.0, "tied p80 (rank 4)");
  check(exact_quantile(ties, 0.81) == 9.0, "rank 5 past the ties");

  // 1000 samples: p99 is the 990th value.
  std::vector<double> big;
  for (int i = 1000; i >= 1; --i) big.push_back(i);
  check(exact_quantile(big, 0.99) == 990.0, "p99 of 1..1000");

  check(median({3.0}) == 3.0, "median of one");
  check(median({5.0, 1.0, 3.0}) == 3.0, "median of three");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of four");
}

void self_times() {
  // Interval union, with clipping and overlap.
  check(covered({}, 0, 10) == 0, "nothing covered");
  check(covered({{2, 4}, {3, 6}}, 0, 10) == 4, "overlap counted once");
  check(covered({{-5, 2}, {8, 20}}, 0, 10) == 4, "clipped to the parent");
  check(covered({{2, 4}, {4, 6}}, 0, 10) == 4, "touching intervals");
  check(covered({{1, 9}, {2, 3}, {4, 5}}, 0, 10) == 8, "nested intervals");
  check(covered({{5, 5}}, 0, 10) == 0, "empty interval");

  // root [0,100): a [10,40), b [30,60) overlap → cover 50; c [90,120)
  // sticks out → cover 10. Root self = 100 − 60 = 40.
  // a has child a1 [15,25) → a self 20. b and c are leaves.
  const std::vector<c4h::obs::Span> tree = {
      span(1, 0, "root", 0, 100),   span(2, 1, "a", 10, 40),   span(3, 1, "b", 30, 60),
      span(4, 1, "c", 90, 120),     span(5, 2, "a1", 15, 25),
  };
  const auto st = self_time_by_name(tree);
  check(st.at("root") == 40, "root self time with overlapping children");
  check(st.at("a") == 20, "child with its own child");
  check(st.at("b") == 30, "leaf b");
  check(st.at("c") == 30, "leaf c keeps its full duration");
  check(st.at("a1") == 10, "grandchild");

  // Same name on several spans sums; two roots.
  const std::vector<c4h::obs::Span> two = {
      span(1, 0, "op", 0, 10), span(2, 1, "net", 0, 10), span(3, 0, "op", 20, 50),
      span(4, 3, "net", 25, 30),
  };
  const auto st2 = self_time_by_name(two);
  check(st2.at("op") == 25, "fully covered root adds 0, second adds 25");
  check(st2.at("net") == 15, "leaf durations sum");

  // A single span has self time equal to its duration; an unfinished span
  // is ignored and does not cover its parent.
  std::vector<c4h::obs::Span> open = {span(1, 0, "solo", 5, 12), span(2, 1, "open", 6, 8)};
  open[1].finished = false;
  const auto st3 = self_time_by_name(open);
  check(st3.at("solo") == 7, "single span");
  check(!st3.contains("open"), "unfinished span skipped");
}

void digests() {
  Digest a;
  Digest b;
  Digest c;
  for (std::uint64_t v : {1u, 2u, 3u}) {
    a.add(v);
    b.add(v);
  }
  for (std::uint64_t v : {1u, 3u, 2u}) c.add(v);
  check(a.value() == b.value(), "same sequence, same digest");
  check(a.value() != c.value(), "order changes the digest");
  check(Digest{}.value() == 0xcbf29ce484222325ull, "FNV offset basis");
}

}  // namespace

int main() {
  quantiles();
  self_times();
  digests();
  check(reference_seconds() > 0.0, "reference loop runs and takes time");
  if (failures != 0) {
    std::fprintf(stderr, "%d selftest check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return EXIT_SUCCESS;
}
