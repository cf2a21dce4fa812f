// Tests for the benchmark's own arithmetic (src/bench_math.h).

#include "bench_math.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, 50), 1.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 99), 0.0);
}

TEST(HighestSupportedPercentile, NeedsTenSamplesBeyondTheRank) {
  // p99 of 1000 samples has exactly 10 beyond it; of 999 only 9.
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(0), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenInsideTheParent) {
  EXPECT_EQ(SelfTime({0, 100}, {}), 100);
  EXPECT_EQ(SelfTime({0, 100}, {{10, 30}, {50, 60}}), 70);
  // Overlapping children count once.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 40}, {20, 50}}), 60);
  // A child nested in another counts once.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 90}, {20, 30}}), 20);
  // Parts of children outside the parent are ignored.
  EXPECT_EQ(SelfTime({50, 100}, {{0, 60}, {90, 200}}), 30);
  // Children fully outside do not count; unsorted input is fine.
  EXPECT_EQ(SelfTime({50, 100}, {{200, 300}, {60, 70}, {0, 10}}), 40);
  // A child covering the whole parent leaves nothing.
  EXPECT_EQ(SelfTime({50, 100}, {{0, 200}}), 0);
}

TEST(CounterRatios, EachRatioUsesItsWholeRunBase) {
  // client.committed (window only) deliberately differs from
  // protocol.commits (whole run): per-commit ratios must use the latter.
  const std::map<std::string, uint64_t> c = {
      {"protocol.commits", 1000},
      {"protocol.aborts", 250},
      {"client.committed", 400},
      {"sim.events_processed", 50000},
      {"net.messages_sent", 3000},
      {"node.envelopes_sent", 2500},
      {"node.records_ingested", 8000},
      {"node.aborts_on_request", 100},
      {"node.aborts_by_remote", 50},
      {"node.aborts_liveness", 25},
      {"reliable.retransmits", 700},
      {"reliable.acks_sent", 1500},
      {"xshard.committed", 300},
      {"xshard.slices_staged", 800},
      {"xshard.slices_waited", 200},
      {"xshard.slices_committed", 600},
  };
  const auto r = CounterRatios(c);
  EXPECT_DOUBLE_EQ(r.at("sim.events_per_commit"), 50.0);
  EXPECT_DOUBLE_EQ(r.at("sim.messages_per_commit"), 3.0);
  EXPECT_DOUBLE_EQ(r.at("core.envelopes_per_commit"), 2.5);
  EXPECT_DOUBLE_EQ(r.at("rdict.records_ingested_per_commit"), 8.0);
  // Abort ratios: over every decided transaction (1000 + 250).
  EXPECT_DOUBLE_EQ(r.at("core.aborts_on_request_ratio"), 0.08);
  EXPECT_DOUBLE_EQ(r.at("core.aborts_by_remote_ratio"), 0.04);
  EXPECT_DOUBLE_EQ(r.at("core.aborts_liveness_ratio"), 0.02);
  EXPECT_DOUBLE_EQ(r.at("reliable.retransmits_per_commit"), 0.7);
  EXPECT_DOUBLE_EQ(r.at("reliable.acks_per_commit"), 1.5);
  // Slices per cross-shard commit: over cross-shard commits only.
  EXPECT_DOUBLE_EQ(r.at("shard.slices_per_xshard_commit"), 2.0);
  // Slice ratios: over every slice admission tried.
  EXPECT_DOUBLE_EQ(r.at("shard.slices_waited_ratio"), 0.25);
  EXPECT_DOUBLE_EQ(r.at("shard.slice_commit_ratio"), 0.75);
}

TEST(CounterRatios, UnexercisedLayersReadZero) {
  // An unsharded, fault-free run exports no reliable.* or xshard.*.
  const auto r = CounterRatios({{"protocol.commits", 10}});
  EXPECT_DOUBLE_EQ(r.at("reliable.retransmits_per_commit"), 0.0);
  EXPECT_DOUBLE_EQ(r.at("shard.slices_per_xshard_commit"), 0.0);
  EXPECT_DOUBLE_EQ(r.at("shard.slice_commit_ratio"), 0.0);
  EXPECT_DOUBLE_EQ(CounterRatios({}).at("sim.events_per_commit"), 0.0);
}

TEST(LongestCommitGap, CountsTheOutageFromTheWindowStart) {
  // DC 0 commits steadily; DC 1 stops at 2 ms and resumes at 9 ms; DC 2
  // is the crashed one and is not among the survivors.
  const std::vector<CommitMark> marks = {
      {0, 1000}, {0, 2000}, {0, 3000}, {0, 4000}, {0, 5000},
      {1, 1500}, {1, 2000}, {1, 9000}, {1, 9500}, {2, 100},
  };
  EXPECT_DOUBLE_EQ(LongestCommitGapMs(marks, 0, 10000, {0, 1}), 7.0);
  EXPECT_DOUBLE_EQ(LongestCommitGapMs(marks, 0, 10000, {0}), 1.0);
  // From a later crash time the first commit after it bounds the gap.
  EXPECT_DOUBLE_EQ(LongestCommitGapMs(marks, 3000, 10000, {1}), 6.0);
  // The tail after the last commit does not count...
  EXPECT_DOUBLE_EQ(LongestCommitGapMs(marks, 4500, 10000, {0}), 0.5);
  // ...unless the datacenter committed nothing inside the interval.
  EXPECT_DOUBLE_EQ(LongestCommitGapMs(marks, 6000, 8000, {0, 1}), 2.0);
  // Commits outside [from, until) are ignored.
  EXPECT_DOUBLE_EQ(LongestCommitGapMs(marks, 0, 9000, {1}), 1.5);
}

}  // namespace
}  // namespace perfbench
