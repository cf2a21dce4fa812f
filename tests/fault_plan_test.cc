// Tests for the chaos layer's building blocks: FaultPlan validation and
// JSON round-trips, probabilistic fault injection inside sim::Network
// (determinism, loss, duplication, reordering, delay spikes), and the
// ReliableMesh session layer (delivery under loss, in-order delivery,
// duplicate suppression, and the strict passthrough contract when off).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/fault_plan.h"
#include "sim/network.h"
#include "sim/reliable.h"
#include "sim/scheduler.h"

namespace helios::sim {
namespace {

// --- FaultPlan JSON -----------------------------------------------------------

TEST(FaultPlanTest, EmptyPlanRendersAsEmptyObject) {
  FaultPlan plan;
  EXPECT_EQ(plan.ToJson(), "{}");
  auto parsed = FaultPlan::FromJson("{}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().empty());
  EXPECT_TRUE(parsed.value() == plan);
}

TEST(FaultPlanTest, JsonRoundTripPreservesEveryField) {
  FaultPlan plan;
  LinkFault f;
  f.from = 1;
  f.to = 3;
  f.loss = 0.1;
  f.duplicate = 0.05;
  f.reorder = 0.2;
  f.reorder_window = Millis(30);
  f.delay = Millis(7);
  f.active_from = Seconds(2);
  f.active_until = Seconds(9);
  plan.AddLinkFault(f)
      .WithLoss(0.02)
      .AddCrash(Seconds(3), 2)
      .AddRecover(Seconds(5), 2)
      .AddPartition(Seconds(1), 0, 4)
      .AddHeal(Seconds(4), 0, 4);

  const std::string json = plan.ToJson();
  auto parsed = FaultPlan::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == plan);
  // Deterministic rendering: re-serializing gives the same bytes.
  EXPECT_EQ(parsed.value().ToJson(), json);
}

TEST(FaultPlanTest, FromJsonRejectsUnknownKeys) {
  auto parsed = FaultPlan::FromJson("{\"link_fautls\": []}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("unknown fault-plan field"),
            std::string::npos);
}

TEST(FaultPlanTest, ValidateChecksRangesAndIndices) {
  {
    FaultPlan plan;
    plan.WithLoss(1.5);
    EXPECT_FALSE(plan.Validate(5).ok());
  }
  {
    FaultPlan plan;
    LinkFault f;
    f.from = 7;  // Out of range for a 5-DC deployment.
    f.loss = 0.1;
    plan.AddLinkFault(f);
    EXPECT_FALSE(plan.Validate(5).ok());
  }
  {
    FaultPlan plan;
    LinkFault f;
    f.from = 2;
    f.to = 2;  // Self-link.
    f.loss = 0.1;
    plan.AddLinkFault(f);
    EXPECT_FALSE(plan.Validate(5).ok());
  }
  {
    FaultPlan plan;
    LinkFault f;
    f.reorder = 0.5;  // Reordering needs a positive window.
    plan.AddLinkFault(f);
    EXPECT_FALSE(plan.Validate(5).ok());
  }
  {
    FaultPlan plan;
    plan.AddCrash(Seconds(1), 9);  // Bad node index.
    const Status s = plan.Validate(5);
    ASSERT_FALSE(s.ok());
    // The message must name the dimension: node indices run along the
    // datacenter axis, never the shard axis (src/shard deployments crash
    // all of a datacenter's shards together).
    EXPECT_NE(s.ToString().find("datacenter axis"), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.ToString().find("shard"), std::string::npos) << s.ToString();
  }
  {
    FaultPlan plan;
    LinkFault f;
    f.loss = 0.3;
    f.active_from = Seconds(5);
    f.active_until = Seconds(2);  // Inverted window.
    plan.AddLinkFault(f);
    EXPECT_FALSE(plan.Validate(5).ok());
  }
  {
    FaultPlan plan;
    plan.WithLoss(0.1).WithDuplication(0.05).AddCrash(Seconds(1), 0);
    EXPECT_TRUE(plan.Validate(5).ok());
  }
}

TEST(FaultPlanTest, HasMessageFaultsIgnoresTimedEvents) {
  FaultPlan plan;
  plan.AddCrash(Seconds(1), 0).AddPartition(Seconds(2), 0, 1);
  EXPECT_FALSE(plan.HasMessageFaults());
  plan.WithLoss(0.1);
  EXPECT_TRUE(plan.HasMessageFaults());
}

Network MakePair(Scheduler* scheduler, uint64_t seed = 7) {
  Network network(scheduler, 2, seed);
  network.SetLink(0, 1, LinkSpec{Millis(10), 0});
  return network;
}

// --- Gray faults --------------------------------------------------------------

TEST(GrayFaultTest, JsonRoundTripPreservesEveryKind) {
  FaultPlan plan;
  plan.AddSlowLink(Seconds(1), Seconds(5), 0, 2, 4.0, Millis(3))
      .AddAsymPartition(Seconds(2), Seconds(6), 1, 0)
      .AddProcessStall(Seconds(3), Seconds(4), 2)
      .AddFsyncStall(Seconds(1), Seconds(7), 0, Millis(20));
  ASSERT_TRUE(plan.Validate(3).ok()) << plan.Validate(3).ToString();
  const std::string json = plan.ToJson();
  auto parsed = FaultPlan::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed.value() == plan);
  EXPECT_EQ(parsed.value().ToJson(), json);
}

TEST(GrayFaultTest, GrayFaultsDoNotCountAsMessageFaults) {
  // Gray degradations are deterministic: they must neither engage the
  // fault RNG nor put the baselines on reliable delivery.
  FaultPlan plan;
  plan.AddSlowLink(0, kMaxSimTime, 0, 1, 10.0);
  EXPECT_FALSE(plan.HasMessageFaults());
  EXPECT_TRUE(plan.HasGrayFaults());
  EXPECT_TRUE(plan.HasGrayLinkFaults());
  FaultPlan stalls;
  stalls.AddProcessStall(Seconds(1), Seconds(2), 0);
  EXPECT_TRUE(stalls.HasGrayFaults());
  EXPECT_FALSE(stalls.HasGrayLinkFaults());
  EXPECT_FALSE(stalls.empty());
}

TEST(GrayFaultTest, ValidateChecksKindSpecificFields) {
  {
    FaultPlan plan;
    plan.AddSlowLink(0, Seconds(1), 0, 1, 0.5);  // Factor < 1.
    EXPECT_FALSE(plan.Validate(3).ok());
  }
  {
    FaultPlan plan;
    plan.AddSlowLink(0, Seconds(1), 0, 1, 1.0);  // No effect at all.
    EXPECT_FALSE(plan.Validate(3).ok());
  }
  {
    FaultPlan plan;
    plan.AddSlowLink(0, Seconds(1), 2, 2, 3.0);  // Self-link.
    EXPECT_FALSE(plan.Validate(3).ok());
  }
  {
    FaultPlan plan;
    plan.AddProcessStall(0, kMaxSimTime, 1);  // Unbounded stall.
    EXPECT_FALSE(plan.Validate(3).ok());
  }
  {
    FaultPlan plan;
    plan.AddFsyncStall(0, Seconds(1), 1, 0);  // No penalty.
    EXPECT_FALSE(plan.Validate(3).ok());
  }
  {
    FaultPlan plan;
    plan.AddProcessStall(0, Seconds(1), 9);  // Bad node index.
    EXPECT_FALSE(plan.Validate(3).ok());
  }
  {
    FaultPlan plan;
    plan.AddAsymPartition(0, Seconds(1), 0, 1)
        .AddProcessStall(Seconds(1), Seconds(2), 2)
        .AddFsyncStall(0, Seconds(3), 1, Millis(5))
        .AddSlowLink(0, Seconds(4), kAnyDc, 2, 2.0);
    EXPECT_TRUE(plan.Validate(3).ok()) << plan.Validate(3).ToString();
  }
}

TEST(GrayNetworkTest, SlowLinkMultipliesLatencyAndPreservesFifo) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  plan.AddSlowLink(0, kMaxSimTime, 0, 1, 5.0, Millis(2));
  ASSERT_TRUE(network.InstallGrayFaults(plan).ok());
  std::vector<SimTime> arrivals;
  network.Send(0, 1, [&] { arrivals.push_back(scheduler.Now()); });
  network.Send(1, 0, [&] { arrivals.push_back(scheduler.Now()); });
  scheduler.RunUntil(Seconds(1));
  ASSERT_EQ(arrivals.size(), 2u);
  // Reverse direction is untouched (10 ms); forward is 10*5 + 2 = 52 ms.
  EXPECT_EQ(arrivals[0], Millis(10));
  EXPECT_EQ(arrivals[1], Millis(52));
  EXPECT_EQ(network.gray_slowed(), 1u);
}

TEST(GrayNetworkTest, AsymPartitionDropsOneDirectionOnly) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  plan.AddAsymPartition(0, kMaxSimTime, 0, 1);
  ASSERT_TRUE(network.InstallGrayFaults(plan).ok());
  int forward = 0;
  int backward = 0;
  for (int i = 0; i < 10; ++i) {
    network.Send(0, 1, [&] { ++forward; });
    network.Send(1, 0, [&] { ++backward; });
  }
  scheduler.RunUntil(Seconds(1));
  EXPECT_EQ(forward, 0);
  EXPECT_EQ(backward, 10);
  EXPECT_EQ(network.gray_asym_drops(), 10u);
}

TEST(GrayNetworkTest, WindowedSlowLinkRelents) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  plan.AddSlowLink(Seconds(1), Seconds(2), 0, 1, 10.0);
  ASSERT_TRUE(network.InstallGrayFaults(plan).ok());
  std::vector<SimTime> arrivals;
  auto probe = [&](SimTime at) {
    scheduler.At(at, [&] {
      network.Send(0, 1, [&] { arrivals.push_back(scheduler.Now()); });
    });
  };
  probe(Millis(500));   // Before: 10 ms.
  probe(Millis(1500));  // During: 100 ms.
  probe(Millis(2500));  // After: 10 ms again.
  scheduler.RunUntil(Seconds(10));
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], Millis(510));
  EXPECT_EQ(arrivals[1], Millis(1600));
  EXPECT_EQ(arrivals[2], Millis(2510));
}

TEST(GrayNetworkTest, InstallingGrayFaultsConsumesNoRandomness) {
  // The latency stream must be bit-identical with and without an installed
  // (but inactive-window) gray plan, and identical on unaffected links even
  // while one is active.
  std::vector<SimTime> bare;
  std::vector<SimTime> gray;
  for (int run = 0; run < 2; ++run) {
    Scheduler scheduler;
    Network network(&scheduler, 3, 7);
    network.SetLink(0, 1, LinkSpec{Millis(10), Millis(2)});
    network.SetLink(0, 2, LinkSpec{Millis(10), Millis(2)});
    network.SetLink(1, 2, LinkSpec{Millis(10), Millis(2)});
    if (run == 1) {
      FaultPlan plan;
      plan.AddSlowLink(0, kMaxSimTime, 0, 1, 3.0);
      ASSERT_TRUE(network.InstallGrayFaults(plan).ok());
    }
    auto& out = run == 0 ? bare : gray;
    for (int i = 0; i < 50; ++i) {
      network.Send(1, 2, [&] { out.push_back(scheduler.Now()); });
      network.Send(0, 1, [] {});  // Affected link: keeps the RNG in step.
    }
    scheduler.RunUntil(Seconds(10));
  }
  EXPECT_EQ(bare, gray);
}

// --- Network fault injection --------------------------------------------------

TEST(NetworkFaultTest, FullLossDropsEverything) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  plan.WithLoss(1.0);
  ASSERT_TRUE(network.InstallMessageFaults(plan, 1).ok());
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    network.Send(0, 1, [&] { ++delivered; });
  }
  scheduler.RunUntil(Seconds(10));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network.fault_drops(), 50u);
}

TEST(NetworkFaultTest, FullDuplicationDeliversTwice) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  plan.WithDuplication(1.0);
  ASSERT_TRUE(network.InstallMessageFaults(plan, 1).ok());
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    network.Send(0, 1, [&] { ++delivered; });
  }
  scheduler.RunUntil(Seconds(10));
  EXPECT_EQ(delivered, 40);
  EXPECT_EQ(network.fault_duplicates(), 20u);
}

TEST(NetworkFaultTest, DelaySpikeAddsDeterministicLatency) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  LinkFault f;
  f.delay = Millis(100);
  plan.AddLinkFault(f);
  ASSERT_TRUE(network.InstallMessageFaults(plan, 1).ok());
  SimTime arrival = 0;
  network.Send(0, 1, [&] { arrival = scheduler.Now(); });
  scheduler.RunUntil(Seconds(1));
  // Zero-stddev link: exactly one-way mean + spike.
  EXPECT_EQ(arrival, Millis(110));
}

TEST(NetworkFaultTest, SameSeedSameDrops) {
  std::vector<int> delivered_order[2];
  for (int run = 0; run < 2; ++run) {
    Scheduler scheduler;
    Network network(&scheduler, 2, 7);
    network.SetLink(0, 1, LinkSpec{Millis(10), Millis(2)});
    FaultPlan plan;
    plan.WithLoss(0.3);
    ASSERT_TRUE(network.InstallMessageFaults(plan, 99).ok());
    for (int i = 0; i < 100; ++i) {
      network.Send(0, 1, [&, i] { delivered_order[run].push_back(i); });
    }
    scheduler.RunUntil(Seconds(10));
  }
  EXPECT_FALSE(delivered_order[0].empty());
  EXPECT_LT(delivered_order[0].size(), 100u);
  EXPECT_EQ(delivered_order[0], delivered_order[1]);
}

TEST(NetworkFaultTest, ReorderingLetsMessagesOvertake) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  LinkFault f;
  f.reorder = 0.5;
  f.reorder_window = Millis(200);
  plan.AddLinkFault(f);
  ASSERT_TRUE(network.InstallMessageFaults(plan, 3).ok());
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    network.Send(0, 1, [&, i] { order.push_back(i); });
  }
  scheduler.RunUntil(Seconds(10));
  ASSERT_EQ(order.size(), 100u);
  EXPECT_GT(network.fault_reorders(), 0u);
  // At least one message overtook an earlier one.
  bool out_of_order = false;
  for (size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
}

TEST(NetworkFaultTest, WindowedFaultOnlyFiresInsideWindow) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  LinkFault f;
  f.loss = 1.0;
  f.active_from = Seconds(1);
  f.active_until = Seconds(2);
  plan.AddLinkFault(f);
  ASSERT_TRUE(network.InstallMessageFaults(plan, 1).ok());
  int delivered = 0;
  scheduler.At(Millis(500), [&] { network.Send(0, 1, [&] { ++delivered; }); });
  scheduler.At(Millis(1500), [&] { network.Send(0, 1, [&] { ++delivered; }); });
  scheduler.At(Millis(2500), [&] { network.Send(0, 1, [&] { ++delivered; }); });
  scheduler.RunUntil(Seconds(10));
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(network.fault_drops(), 1u);
}

// --- ReliableMesh -------------------------------------------------------------

TEST(ReliableMeshTest, DeliversEverythingUnderHeavyLoss) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  LinkFault f;
  f.loss = 0.5;
  f.active_until = Seconds(30);  // Faults relent eventually.
  plan.AddLinkFault(f);
  ASSERT_TRUE(network.InstallMessageFaults(plan, 11).ok());
  ReliableMesh mesh(&scheduler, &network);
  int delivered = 0;
  for (int i = 0; i < 100; ++i) {
    mesh.Send(0, 1, [&] { ++delivered; });
  }
  scheduler.RunUntil(Seconds(120));
  EXPECT_EQ(delivered, 100);
  EXPECT_GT(mesh.retransmits(), 0u);
  EXPECT_EQ(mesh.gave_up(), 0u);
}

TEST(ReliableMeshTest, DeliversInOrderUnderReordering) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  LinkFault f;
  f.reorder = 0.5;
  f.reorder_window = Millis(200);
  plan.AddLinkFault(f);
  ASSERT_TRUE(network.InstallMessageFaults(plan, 3).ok());
  ReliableMesh mesh(&scheduler, &network);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    mesh.Send(0, 1, [&, i] { order.push_back(i); });
  }
  scheduler.RunUntil(Seconds(60));
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i));
  }
}

TEST(ReliableMeshTest, SuppressesNetworkDuplicates) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  plan.WithDuplication(1.0);
  ASSERT_TRUE(network.InstallMessageFaults(plan, 5).ok());
  ReliableMesh mesh(&scheduler, &network);
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    mesh.Send(0, 1, [&] { ++delivered; });
  }
  scheduler.RunUntil(Seconds(60));
  EXPECT_EQ(delivered, 20);  // Exactly once despite 100% duplication.
  EXPECT_GT(mesh.duplicates_suppressed(), 0u);
}

TEST(ReliableMeshTest, DisabledMeshIsStrictPassthrough) {
  // The determinism contract: with the mesh disabled, the event stream is
  // identical to not having a mesh at all — same event count, same
  // delivery times, zero protocol overhead (no acks, no timers).
  SimTime direct_arrival = 0;
  uint64_t direct_events = 0;
  {
    Scheduler scheduler;
    Network network(&scheduler, 2, 7);
    network.SetLink(0, 1, LinkSpec{Millis(10), Millis(3)});
    SimTime arrival = 0;
    for (int i = 0; i < 50; ++i) {
      network.Send(0, 1, [&] { arrival = scheduler.Now(); });
    }
    scheduler.RunUntil(Seconds(5));
    direct_arrival = arrival;
    direct_events = scheduler.events_processed();
  }
  {
    Scheduler scheduler;
    Network network(&scheduler, 2, 7);
    network.SetLink(0, 1, LinkSpec{Millis(10), Millis(3)});
    ReliableConfig config;
    config.enabled = false;
    ReliableMesh mesh(&scheduler, &network, config);
    SimTime arrival = 0;
    for (int i = 0; i < 50; ++i) {
      mesh.Send(0, 1, [&] { arrival = scheduler.Now(); });
    }
    scheduler.RunUntil(Seconds(5));
    EXPECT_EQ(arrival, direct_arrival);
    EXPECT_EQ(scheduler.events_processed(), direct_events);
    EXPECT_EQ(mesh.retransmits(), 0u);
    EXPECT_EQ(mesh.acks_sent(), 0u);
  }
}

TEST(ReliableMeshTest, BoundedAttemptsGiveUpOnBlackhole) {
  Scheduler scheduler;
  Network network = MakePair(&scheduler);
  FaultPlan plan;
  plan.WithLoss(1.0);  // Permanent blackhole.
  ASSERT_TRUE(network.InstallMessageFaults(plan, 1).ok());
  ReliableConfig config;
  config.max_attempts = 3;
  ReliableMesh mesh(&scheduler, &network, config);
  int delivered = 0;
  mesh.Send(0, 1, [&] { ++delivered; });
  scheduler.RunUntil(Seconds(120));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(mesh.gave_up(), 1u);
}

// --- Network failure-injection validation (crash/partition) -------------------

TEST(NetworkValidationTest, RejectsBadIndicesWithCrispErrors) {
  Scheduler scheduler;
  Network network(&scheduler, 3, 7);
  {
    const Status s = network.CrashNode(7);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("does not exist"), std::string::npos);
    EXPECT_NE(s.ToString().find("0..2"), std::string::npos);
  }
  EXPECT_FALSE(network.RecoverNode(-1).ok());
  EXPECT_FALSE(network.SetPartitioned(0, 3, true).ok());
  EXPECT_FALSE(network.SetPartitioned(-1, 1, true).ok());
  {
    const Status s = network.SetPartitioned(1, 1, true);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("itself"), std::string::npos);
  }
  EXPECT_TRUE(network.CrashNode(2).ok());
  EXPECT_FALSE(network.IsUp(2));
  EXPECT_TRUE(network.RecoverNode(2).ok());
  EXPECT_TRUE(network.IsUp(2));
  EXPECT_TRUE(network.SetPartitioned(0, 1, true).ok());
  EXPECT_TRUE(network.IsPartitioned(0, 1));
}

}  // namespace
}  // namespace helios::sim
