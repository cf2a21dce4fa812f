// Chaos sweep: every protocol family survives a lossy, duplicating WAN.
//
// Each grid cell runs a full harness experiment on the paper's Table 2
// topology with a FaultPlan losing and duplicating messages on every
// link, then asserts the invariants the chaos layer must preserve:
//   - safety: the committed history stays conflict-serializable;
//   - progress: every datacenter's clients keep committing;
//   - visibility: the metrics snapshot shows the faults actually fired
//     (drops, duplicates, reorders), and the session layer is where it
//     belongs: under RC and 2PC it retransmits and suppresses
//     duplicates; Helios-family gossip rides the bare lossy network, so
//     those runs export no reliable.* counter at all.
// A final test locks in the sweep engine's determinism under chaos: the
// aggregated JSON of a loss grid is bit-identical at --jobs=1 and
// --jobs=4.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.h"
#include "harness/experiment_spec.h"
#include "harness/sweep.h"
#include "sim/fault_plan.h"

namespace helios::harness {
namespace {

uint64_t CounterOr0(const obs::MetricsSnapshot& m, const std::string& name) {
  const auto* c = m.FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

bool IsBaseline(Protocol p) {
  return p == Protocol::kReplicatedCommit || p == Protocol::kTwoPcPaxos;
}

/// Runs `protocol` on Table 2 under `plan` and checks safety, per-DC
/// progress and where the reliable session layer ran.
void ExpectSerializableWithProgress(Protocol protocol,
                                    const sim::FaultPlan& plan) {
  ExperimentSpec spec;
  spec.WithProtocol(protocol)
      .WithTopology("table2")
      .WithClients(10)
      .WithWarmup(Seconds(1))
      .WithMeasure(Seconds(4))
      .WithDrain(Seconds(10))
      .WithSeed(42)
      .WithNumKeys(500)
      .WithFaultPlan(plan)
      .WithSerializabilityCheck();
  ASSERT_TRUE(spec.Validate().ok());

  auto cfg_or = spec.ToConfig();
  ASSERT_TRUE(cfg_or.ok()) << cfg_or.status().ToString();
  ExperimentConfig cfg = std::move(cfg_or).value();
  cfg.trace.enabled = true;  // For the metrics snapshot.
  const ExperimentResult r = RunExperiment(cfg);

  // Safety.
  ASSERT_TRUE(r.serializability.has_value());
  EXPECT_TRUE(r.serializability->ok()) << r.serializability->ToString();

  // Progress: every datacenter's clients committed transactions despite
  // the faults (a wedged request/reply protocol would flatline here).
  for (const DcResult& dc : r.per_dc) {
    EXPECT_GT(dc.committed, 0u) << dc.name;
  }

  // Visibility: the faults fired...
  bool dup = false;
  bool reorder = false;
  for (const sim::LinkFault& lf : plan.link_faults) {
    dup = dup || lf.duplicate > 0.0;
    reorder = reorder || lf.reorder > 0.0;
  }
  EXPECT_GT(CounterOr0(r.metrics, "net.fault_drops"), 0u);
  if (dup) {
    EXPECT_GT(CounterOr0(r.metrics, "net.fault_duplicates"), 0u);
  }
  if (reorder) {
    EXPECT_GT(CounterOr0(r.metrics, "net.fault_reorders"), 0u);
  }

  // ...and the session layer ran exactly under the baselines.
  if (IsBaseline(protocol)) {
    EXPECT_GT(CounterOr0(r.metrics, "reliable.retransmits"), 0u);
    EXPECT_EQ(CounterOr0(r.metrics, "reliable.gave_up"), 0u);
    if (dup) {
      EXPECT_GT(CounterOr0(r.metrics, "reliable.duplicates_suppressed"), 0u);
    }
  } else {
    for (const auto& c : r.metrics.counters) {
      EXPECT_NE(c.name.rfind("reliable.", 0), 0u)
          << c.name << " exported by a Helios-family run";
    }
  }
}

/// (protocol, loss, duplication): the loss x duplication x f grid, with f
/// varied through the Helios protocol family (f = 0, 1, 2).
class ChaosSweep : public ::testing::TestWithParam<
                       std::tuple<Protocol, double, double>> {};

TEST_P(ChaosSweep, SerializableWithProgressUnderLossAndDuplication) {
  const auto [protocol, loss, dup] = GetParam();
  sim::FaultPlan plan;
  plan.WithLoss(loss);
  if (dup > 0.0) plan.WithDuplication(dup);
  ExpectSerializableWithProgress(protocol, plan);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChaosSweep,
    ::testing::Values(
        std::make_tuple(Protocol::kHelios0, 0.10, 0.05),
        std::make_tuple(Protocol::kHelios1, 0.10, 0.05),
        std::make_tuple(Protocol::kHelios2, 0.05, 0.0),
        std::make_tuple(Protocol::kHeliosB, 0.10, 0.05),
        std::make_tuple(Protocol::kMessageFutures, 0.10, 0.05),
        std::make_tuple(Protocol::kReplicatedCommit, 0.10, 0.05),
        std::make_tuple(Protocol::kTwoPcPaxos, 0.10, 0.05)),
    [](const ::testing::TestParamInfo<std::tuple<Protocol, double, double>>&
           info) {
      std::string name = ProtocolToken(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-' || c == '/') c = '_';
      }
      name += "_loss" +
              std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
      name += "_dup" +
              std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
      return name;
    });

// The same invariants with reordering on top: gossip on the bare network
// carries no per-link order, and none of Helios's dependencies need one
// (DESIGN.md §4, the ordering audit).
TEST(ChaosTest, Helios1SerializableWithProgressUnderReordering) {
  sim::LinkFault lf;
  lf.loss = 0.05;
  lf.duplicate = 0.03;
  lf.reorder = 0.2;
  lf.reorder_window = Millis(20);
  sim::FaultPlan plan;
  plan.AddLinkFault(lf);
  ExpectSerializableWithProgress(Protocol::kHelios1, plan);
}

// Timed chaos through the spec: a crash/recover and a partition/heal
// scheduled by the fault plan, plus a loss window that ends mid-run.
// After everything heals the cluster keeps committing at every DC. The
// crash is a real amnesia restart (docs/RECOVERY.md), so the crashed
// datacenter's clients need the commit timeout to ride out requests the
// outage swallowed.
TEST(ChaosTest, TimedCrashPartitionAndLossWindowThroughSpec) {
  sim::FaultPlan plan;
  sim::LinkFault lf;
  lf.loss = 0.15;
  lf.active_until = Seconds(6);  // Faults relent.
  plan.AddLinkFault(lf);
  plan.AddCrash(Seconds(2), 4).AddRecover(Seconds(4), 4);
  plan.AddPartition(Seconds(3), 0, 1).AddHeal(Seconds(5), 0, 1);

  ExperimentSpec spec;
  spec.WithProtocol(Protocol::kHelios1)
      .WithClients(10)
      .WithWarmup(Seconds(1))
      .WithMeasure(Seconds(8))
      .WithDrain(Seconds(10))
      .WithSeed(7)
      .WithNumKeys(500)
      .WithFaultPlan(plan)
      .WithClientTimeout(Seconds(2), /*retries=*/10)
      .WithSerializabilityCheck();
  ASSERT_TRUE(spec.Validate().ok());

  auto cfg_or = spec.ToConfig();
  ASSERT_TRUE(cfg_or.ok());
  ExperimentConfig cfg = std::move(cfg_or).value();
  cfg.trace.enabled = true;
  const ExperimentResult r = RunExperiment(cfg);

  ASSERT_TRUE(r.serializability.has_value());
  EXPECT_TRUE(r.serializability->ok()) << r.serializability->ToString();
  for (const DcResult& dc : r.per_dc) {
    EXPECT_GT(dc.committed, 0u) << dc.name;
  }
  EXPECT_GT(CounterOr0(r.metrics, "net.fault_drops"), 0u);
}

// The spec JSON round-trips the whole fault plan, so sweep documents
// echo exactly what ran.
TEST(ChaosTest, SpecJsonRoundTripsFaultPlan) {
  ExperimentSpec spec;
  spec.WithProtocol(Protocol::kHelios1).WithLoss(0.1).WithDuplication(0.05);
  spec.fault_plan.AddCrash(Seconds(2), 1);
  const std::string json = spec.ToJson();
  EXPECT_NE(json.find("\"fault_plan\""), std::string::npos);
  auto parsed = ExperimentSpec::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == spec);
  // Defaults are omitted: a spec without chaos has no fault plan key.
  ExperimentSpec plain;
  EXPECT_EQ(plain.ToJson().find("fault_plan"), std::string::npos);
}

// Sweep determinism under chaos: the aggregated JSON of a loss-grid sweep
// is bit-identical however many worker threads ran it.
TEST(ChaosTest, LossGridSweepJsonIsBitIdenticalAcrossJobCounts) {
  std::vector<ExperimentSpec> specs;
  for (double loss : {0.0, 0.05, 0.10}) {
    ExperimentSpec spec;
    spec.WithProtocol(Protocol::kHelios0)
        .WithClients(5)
        .WithWarmup(Seconds(1))
        .WithMeasure(Seconds(2))
        .WithDrain(Seconds(5))
        .WithSeed(3)
        .WithNumKeys(200)
        .WithLabel("loss " + std::to_string(loss));
    if (loss > 0.0) spec.WithLoss(loss);
    specs.push_back(std::move(spec));
  }

  SweepOptions serial;
  serial.jobs = 1;
  const std::string json1 = SweepRunner(serial).Run(specs).ToJson();
  SweepOptions parallel;
  parallel.jobs = 4;
  const std::string json4 = SweepRunner(parallel).Run(specs).ToJson();
  EXPECT_EQ(json1, json4);
}

}  // namespace
}  // namespace helios::harness
