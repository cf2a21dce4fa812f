// The benchmark's own arithmetic: exact percentiles, the tail percentile a
// sample supports, span self time, per-commit ratios with explicit bases,
// and the longest commit gap ("unavailable_ms"). Header-only so the unit
// test (tests/bench_math_test.cc) links nothing but this file.

#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Exact percentile `p` in [0, 100] of `samples`, interpolating linearly
/// between order statistics (the rule helios::Distribution uses). 0 when
/// empty.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// The highest percentile of the ladder {99.9, 99, 95, 90, 50} that has at
/// least ten of `n` samples strictly beyond its rank; 0 when even the
/// median lacks them. A timing is reported as its median plus this tail.
inline double HighestSupportedPercentile(size_t n) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  for (double p : kLadder) {
    const double at_or_below = std::ceil(static_cast<double>(n) * p / 100.0);
    if (static_cast<double>(n) - at_or_below >= 10.0) return p;
  }
  return 0.0;
}

struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// A span's self time: its duration minus the part of [parent.start,
/// parent.end] that the union of `children` covers. Children may overlap
/// each other and stick out of the parent; only the covered part inside
/// the parent is subtracted.
inline int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  const int64_t duration = std::max<int64_t>(0, parent.end - parent.start);
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t cursor = parent.start;
  for (const Interval& c : children) {
    const int64_t s = std::max({c.start, cursor, parent.start});
    const int64_t e = std::min(c.end, parent.end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return duration - covered;
}

/// `numerator / base`, or 0 when the base is 0 (nothing to divide by).
inline double Ratio(double numerator, double base) {
  return base > 0.0 ? numerator / base : 0.0;
}

/// Per-commit and per-attempt ratios from a run's exported counters. Every
/// counter the registry exports covers the whole run (warm-up, window and
/// drain), so each ratio divides by a whole-run base too:
///  * "per commit" ratios divide by protocol.commits, the server-side
///    commit count of the whole run -- never by client.committed, which
///    counts the measurement window only;
///  * abort ratios divide by protocol.commits + protocol.aborts, every
///    transaction the protocol decided;
///  * slice ratios divide by xshard.slices_staged, every cross-shard slice
///    admission tried; slices per cross-shard commit by xshard.committed.
/// Missing counters read as 0, so a layer a run never exercised reports 0.
inline std::map<std::string, double> CounterRatios(
    const std::map<std::string, uint64_t>& counters) {
  const auto get = [&counters](const char* name) -> double {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double commits = get("protocol.commits");
  const double decided = commits + get("protocol.aborts");
  const double staged = get("xshard.slices_staged");
  return {
      {"sim.events_per_commit", Ratio(get("sim.events_processed"), commits)},
      {"sim.messages_per_commit", Ratio(get("net.messages_sent"), commits)},
      {"core.envelopes_per_commit", Ratio(get("node.envelopes_sent"), commits)},
      {"rdict.records_ingested_per_commit",
       Ratio(get("node.records_ingested"), commits)},
      {"core.aborts_on_request_ratio",
       Ratio(get("node.aborts_on_request"), decided)},
      {"core.aborts_by_remote_ratio",
       Ratio(get("node.aborts_by_remote"), decided)},
      {"core.aborts_liveness_ratio",
       Ratio(get("node.aborts_liveness"), decided)},
      {"reliable.retransmits_per_commit",
       Ratio(get("reliable.retransmits"), commits)},
      {"reliable.acks_per_commit", Ratio(get("reliable.acks_sent"), commits)},
      {"shard.slices_per_xshard_commit",
       Ratio(get("xshard.slices_committed"), get("xshard.committed"))},
      {"shard.slices_waited_ratio", Ratio(get("xshard.slices_waited"), staged)},
      {"shard.slice_commit_ratio",
       Ratio(get("xshard.slices_committed"), staged)},
  };
}

/// One client-observed commit decision.
struct CommitMark {
  int dc = 0;          ///< The client's home datacenter.
  int64_t at_us = 0;   ///< When the decision reached the client.
};

/// The longest time any datacenter in `surviving` went without a commit
/// inside [from_us, until_us), in milliseconds. The gap from `from_us` to a
/// datacenter's first commit counts (that is the outage a crash at
/// `from_us` causes); the tail after its last commit does not, unless it
/// committed nothing at all, in which case the whole interval counts.
inline double LongestCommitGapMs(const std::vector<CommitMark>& marks,
                                 int64_t from_us, int64_t until_us,
                                 const std::vector<int>& surviving) {
  int64_t longest = 0;
  for (int dc : surviving) {
    std::vector<int64_t> times;
    for (const CommitMark& m : marks) {
      if (m.dc == dc && m.at_us >= from_us && m.at_us < until_us) {
        times.push_back(m.at_us);
      }
    }
    if (times.empty()) {
      longest = std::max(longest, until_us - from_us);
      continue;
    }
    std::sort(times.begin(), times.end());
    int64_t prev = from_us;
    for (int64_t t : times) {
      longest = std::max(longest, t - prev);
      prev = t;
    }
  }
  return static_cast<double>(longest) / 1000.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
