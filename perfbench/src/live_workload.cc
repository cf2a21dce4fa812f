// live-wan3: three in-process LiveDatacenters on loopback TCP, each adding
// a 50 ms inbound delay (100 ms emulated RTT), with MAO-planned commit
// offsets, a group-fsync FileWal and admission control. One load thread
// offers open-loop Poisson T-YCSB transactions round-robin across the
// datacenters: reads go through Read, then Commit carries the read set.
//
// Arrival times come from the seed before the run starts, and every
// commit is timed from its due time, not from when the load thread got
// round to issuing it, so a stalled generator shows up as latency (and as
// workload.lag_p99_ms) instead of hiding it.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "core/config_validation.h"
#include "harness/experiment.h"
#include "harness/topology.h"
#include "lp/mao.h"
#include "perfbench.h"
#include "transport/live_datacenter.h"
#include "workload/tycsb.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using helios::transport::LiveDatacenter;

constexpr int kDcs = 3;
/// Emulated WAN round trip. On a 4-core Xeon VM, with 40 ms, host
/// interference (a few to 25 ms of scheduling and fsync delay) moved the
/// steady p99 by up to half from run to run; at 100 ms the same delays
/// move it by under a tenth.
constexpr double kRttMs = 100.0;
constexpr uint64_t kKeys = 50000;
/// Steady phase rate, below the knee. On a 4-core Xeon VM goodput
/// saturates near 1300 commits/s (admission control then sheds).
constexpr double kSteadyRate = 500.0;
/// Overload phase rate: about twice the knee.
constexpr double kOverloadRate = 2600.0;
constexpr uint64_t kMaxInflight = 64;
/// The steady load runs in segments of this many seconds, each on a freshly
/// set-up cluster after a short warm-up. A live cluster's timing (the
/// relative phase of the DCs' gossip ticks, the moments its group fsyncs
/// land) is fixed when it starts and differs from start to start, so one
/// cluster per run would report one draw of it; per-segment figures are
/// reported as their median over the segments.
constexpr double kSegmentS = 3.0;
constexpr double kWarmupS = 0.5;
/// unavailable_ms slices the steady phase this finely: a stall then lifts
/// the longest gap of the few slices it falls in, not the median.
constexpr int64_t kGapSliceUs = 250'000;
/// The run is invalid if the load thread issued its 99th-percentile arrival
/// later than this after its due time: in the steady phase, whose latency
/// is reported (20 ms: lateness beyond it would rival the emulated WAN
/// delay in what is reported), and in the overload phase, where the
/// loops saturate the cores and a larger lag is allowed short of a growing
/// backlog.
constexpr double kMaxSteadyLagP99Ms = 20.0;
constexpr double kMaxOverloadLagP99Ms = 50.0;

enum class State : int { kPending, kCommitted, kAborted, kShed, kReadFailed };

/// One offered transaction. The load thread sets `issued`; each field
/// after it is written by one loop-thread callback and published through
/// `reads_left` or `state`.
struct Arrival {
  Clock::time_point due;
  int dc = 0;
  int phase = 0;
  std::vector<helios::Key> reads;
  std::vector<helios::WriteEntry> writes;

  Clock::time_point issued;
  std::vector<helios::ReadEntry> read_set;
  std::vector<double> read_ms;
  std::atomic<int> reads_left{0};
  std::atomic<bool> read_failed{false};
  Clock::time_point decided;
  std::atomic<int> state{static_cast<int>(State::kPending)};
};

struct Phase {
  double rate;
  double seconds;
  /// Idle time before the phase, so the previous one drains first.
  double gap_before;
};

std::unique_ptr<std::vector<Arrival>> Schedule(uint64_t seed,
                                               const std::vector<Phase>& phases,
                                               Clock::time_point start) {
  helios::workload::WorkloadConfig wc;
  wc.num_keys = kKeys;
  helios::workload::TYcsbGenerator gen(wc, seed);
  helios::Rng rng(seed ^ 0xA5A5A5A5ULL);
  std::vector<std::pair<double, int>> times;  // (offset s, phase)
  double phase_start = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    phase_start += phases[p].gap_before;
    double t = phase_start;
    for (;;) {
      t += -std::log(1.0 - rng.NextDouble()) / phases[p].rate;
      if (t >= phase_start + phases[p].seconds) break;
      times.emplace_back(t, static_cast<int>(p));
    }
    phase_start += phases[p].seconds;
  }
  auto out = std::make_unique<std::vector<Arrival>>(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    Arrival& a = (*out)[i];
    a.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(times[i].first));
    a.phase = times[i].second;
    a.dc = static_cast<int>(i % kDcs);
    const helios::workload::TxnPlan plan = gen.NextTxn();
    a.reads = plan.reads;
    for (const auto& k : plan.writes) a.writes.push_back({k, gen.NextValue()});
    a.read_set.resize(a.reads.size());
    a.read_ms.resize(a.reads.size());
  }
  return out;
}

helios::core::HeliosConfig LiveConfig(int dcs) {
  helios::core::HeliosConfig hc;
  hc.num_datacenters = dcs;
  if (dcs > 1) {
    hc.commit_offsets = helios::harness::PlanCommitOffsets(
        helios::harness::UniformTopology(dcs, kRttMs), std::nullopt);
  }
  return hc;
}

struct Cluster {
  std::vector<std::unique_ptr<LiveDatacenter>> dcs;
  /// Stops every datacenter at once. A transport's Shutdown joins reader
  /// threads that return only when the peer closes its end, so stopping
  /// one datacenter at a time could wait on a peer still running.
  void Stop() {
    std::vector<std::thread> stoppers;
    for (auto& dc : dcs) stoppers.emplace_back([&dc] { dc->Stop(); });
    for (auto& t : stoppers) t.join();
  }
};

/// Builds and starts the three datacenters: preload, WAL open, listen,
/// connect, start.
helios::Status StartCluster(const std::string& dir, int attempt,
                            Cluster* out) {
  const helios::core::HeliosConfig hc = LiveConfig(kDcs);
  const helios::Status valid = helios::core::ValidateHeliosConfig(hc);
  if (!valid.ok()) return valid;
  helios::transport::AdmissionConfig admission;
  admission.max_inflight = kMaxInflight;
  for (int dc = 0; dc < kDcs; ++dc) {
    auto node = std::make_unique<LiveDatacenter>(
        dc, hc, static_cast<helios::Duration>(kRttMs / 2 * 1000));
    for (uint64_t i = 0; i < kKeys; ++i) {
      node->LoadInitial(helios::workload::TYcsbGenerator::KeyName(i), "init");
    }
    helios::wal::FileWalOptions wal;
    wal.policy = helios::wal::SyncPolicy::kGroupCommit;
    const std::string path = dir + "/dc" + std::to_string(dc) + "-" +
                             std::to_string(attempt) + ".wal";
    std::filesystem::remove(path);
    helios::Status st = node->EnableWal(path, wal);
    if (!st.ok()) return st;
    node->SetAdmissionControl(admission);
    st = node->Listen(0);
    if (!st.ok()) return st;
    out->dcs.push_back(std::move(node));
  }
  std::vector<uint16_t> ports;
  for (auto& node : out->dcs) ports.push_back(node->port());
  for (auto& node : out->dcs) {
    const helios::Status st = node->ConnectPeers(ports);
    if (!st.ok()) return st;
  }
  for (auto& node : out->dcs) node->Start();
  return helios::Status::Ok();
}

/// User-mode CPU time of the whole process. Kernel time (futex wake-ups,
/// socket calls, fsync) is left out: on a 4-core Xeon VM it swung by a
/// fifth from run to run on the same inputs, while the user time the
/// protocol code spends repeated within about a tenth.
double UserCpuSeconds() {
  struct rusage u {};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec) / 1e6;
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Issues one arrival: its reads, then (from the last read's callback, on
/// the loop thread) the commit.
void Issue(Arrival* a, LiveDatacenter* dc, std::atomic<uint64_t>* finished) {
  a->issued = Clock::now();
  const auto commit = [a, dc, finished]() {
    if (a->read_failed.load()) {
      a->decided = Clock::now();
      a->state.store(static_cast<int>(State::kReadFailed));
      finished->fetch_add(1);
      return;
    }
    dc->Commit(a->read_set, a->writes,
               [a, finished](const helios::CommitOutcome& o) {
                 a->decided = Clock::now();
                 const State s = o.committed ? State::kCommitted
                                 : o.abort_reason == "busy" ? State::kShed
                                                            : State::kAborted;
                 a->state.store(static_cast<int>(s));
                 finished->fetch_add(1);
               });
  };
  if (a->reads.empty()) {
    commit();
    return;
  }
  a->reads_left.store(static_cast<int>(a->reads.size()));
  for (size_t i = 0; i < a->reads.size(); ++i) {
    dc->Read(a->reads[i], [a, i, commit](helios::Result<helios::VersionedValue>
                                             r) {
      a->read_ms[i] = Ms(Clock::now() - a->issued);
      if (r.ok()) {
        a->read_set[i] = {a->reads[i], r.value().ts, r.value().writer};
      } else {
        a->read_failed.store(true);
      }
      if (a->reads_left.fetch_sub(1) == 1) commit();
    });
  }
}

/// Posts a probe to every datacenter's loop; each records how long it
/// waited to run.
struct LoopProbe {
  std::mutex mu;
  std::vector<double> wait_us;
  void Post(Cluster* c) {
    for (auto& dc : c->dcs) {
      const auto posted = Clock::now();
      dc->loop().Post([this, posted]() {
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - posted)
                .count();
        std::lock_guard<std::mutex> lock(mu);
        wait_us.push_back(us);
      });
    }
  }
};

/// p50 of CommitSync on a one-datacenter deployment with the same WAL
/// policy: the baseline without any WAN or peer.
double SoloCommitP50Us(const std::string& dir, uint64_t seed) {
  LiveDatacenter solo(0, LiveConfig(1));
  for (uint64_t i = 0; i < kKeys; ++i) {
    solo.LoadInitial(helios::workload::TYcsbGenerator::KeyName(i), "init");
  }
  const std::string path = dir + "/solo.wal";
  std::filesystem::remove(path);
  if (!solo.EnableWal(path, helios::wal::FileWalOptions{}).ok() ||
      !solo.Listen(0).ok() || !solo.ConnectPeers({solo.port()}).ok()) {
    return -1.0;
  }
  solo.Start();
  helios::workload::WorkloadConfig wc;
  wc.num_keys = kKeys;
  helios::workload::TYcsbGenerator gen(wc, seed);
  std::vector<double> us;
  for (int i = 0; i < 300; ++i) {
    const helios::workload::TxnPlan plan = gen.NextTxn();
    std::vector<helios::WriteEntry> writes;
    for (const auto& k : plan.writes) writes.push_back({k, gen.NextValue()});
    const auto t0 = Clock::now();
    (void)solo.CommitSync({}, std::move(writes));
    us.push_back(SecondsSince(t0) * 1e6);
  }
  solo.Stop();
  return Median(us);
}

/// The load one segment offered: its arrivals and what the load thread saw.
struct Segment {
  std::unique_ptr<std::vector<Arrival>> arrivals;
  /// Decisions finished so far; callbacks hold a pointer to it, so it lives
  /// as long as the segment, past the cluster's stop.
  std::unique_ptr<std::atomic<uint64_t>> finished =
      std::make_unique<std::atomic<uint64_t>>(0);
  Clock::time_point start;          ///< Time origin of the schedule.
  Clock::time_point steady_from;    ///< Steady phase, by due time.
  Clock::time_point steady_until;
  double steady_cpu_s = 0.0;        ///< User CPU over the steady phase.
  std::vector<std::vector<double>> lag_ms =
      std::vector<std::vector<double>>(3);
};

/// Offers `phases` (0 warm-up, 1 steady, optionally 2 overload) to
/// `cluster` from this one thread, then waits up to 3 s for the arrivals
/// to drain. With `probe`, also probes every loop each 10 ms.
Segment OfferLoad(Cluster* cluster, uint64_t seed,
                  const std::vector<Phase>& phases, LoopProbe* probe) {
  Segment seg;
  seg.start = Clock::now() + std::chrono::milliseconds(50);
  seg.arrivals = Schedule(seed, phases, seg.start);
  const auto at = [&seg](double s) {
    return seg.start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(s));
  };
  const double steady_from_s =
      phases[0].gap_before + phases[0].seconds + phases[1].gap_before;
  seg.steady_from = at(steady_from_s);
  seg.steady_until = at(steady_from_s + phases[1].seconds);
  std::atomic<uint64_t>& finished = *seg.finished;
  const auto wait_drained = [&finished](uint64_t upto,
                                        Clock::time_point deadline) {
    while (finished.load() < upto && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  double cpu_from = 0.0;
  int current_phase = -1;
  auto next_probe = seg.start;
  for (size_t i = 0; i < seg.arrivals->size(); ++i) {
    Arrival& a = (*seg.arrivals)[i];
    if (a.phase != current_phase) {
      // Let the previous phase drain before the next one starts.
      wait_drained(i, a.due);
      if (current_phase == 1) seg.steady_cpu_s = UserCpuSeconds() - cpu_from;
      current_phase = a.phase;
      if (current_phase == 1) cpu_from = UserCpuSeconds();
    }
    while (probe != nullptr && next_probe < a.due) {
      std::this_thread::sleep_until(next_probe);
      probe->Post(cluster);
      next_probe += std::chrono::milliseconds(10);
    }
    std::this_thread::sleep_until(a.due);
    Issue(&a, cluster->dcs[static_cast<size_t>(a.dc)].get(), &finished);
    seg.lag_ms[static_cast<size_t>(a.phase)].push_back(Ms(a.issued - a.due));
  }
  wait_drained(seg.arrivals->size(), Clock::now() + std::chrono::seconds(3));
  if (current_phase == 1) seg.steady_cpu_s = UserCpuSeconds() - cpu_from;
  return seg;
}

/// After the drain every replica must hold the same data. Returns an
/// error message, or "" when all DumpStores match within 5 s.
std::string CheckConverged(Cluster* cluster) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    const std::string first = cluster->dcs[0]->DumpStore();
    std::string differs;
    for (int dc = 1; dc < kDcs; ++dc) {
      if (cluster->dcs[static_cast<size_t>(dc)]->DumpStore() != first) {
        differs = "DumpStore of dc" + std::to_string(dc) +
                  " differs from dc0 after drain";
      }
    }
    if (differs.empty() || Clock::now() > deadline) return differs;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

}  // namespace

Outcome RunLiveWan3(const Options& opts) {
  Outcome out;
  const std::string dir = opts.work_dir + "/live-wan3";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const int segments =
      std::max(1, static_cast<int>(opts.seconds * 0.6 / kSegmentS));
  const double overload_s = std::max(1.0, opts.seconds * 0.15);
  std::vector<double> setups;
  std::vector<Segment> segs;
  LoopProbe probe;
  Metrics trace_metrics;
  for (int k = 0; k < segments; ++k) {
    const bool last = k + 1 == segments;
    Cluster cluster;
    const auto t0 = Clock::now();
    const helios::Status st = StartCluster(dir, k, &cluster);
    setups.push_back(SecondsSince(t0));
    if (!st.ok()) {
      cluster.Stop();
      out.Fail("live set-up: " + st.ToString());
      return out;
    }
    std::vector<Phase> phases = {{kSteadyRate, kWarmupS, 0.0},
                                 {kSteadyRate, kSegmentS, 0.0}};
    // The last segment's cluster also takes the overload phase.
    if (last) phases.push_back({kOverloadRate, overload_s, 1.5});
    std::fprintf(stderr, "live-wan3: segment %d offering load\n", k);
    segs.push_back(OfferLoad(&cluster, opts.seed * 1000 + k, phases,
                             opts.trace ? &probe : nullptr));
    const std::string differs = CheckConverged(&cluster);
    if (!differs.empty()) out.Fail(differs);
    if (opts.trace && last) {
      // Counters of the last cluster, which ran steady and overload load.
      helios::core::NodeCounters total;
      uint64_t tcp_sent = 0, admitted = 0, shed = 0;
      for (auto& dc : cluster.dcs) {
        const helios::core::NodeCounters c = dc->CountersSnapshot();
        total.commits += c.commits;
        total.envelopes_sent += c.envelopes_sent;
        total.records_ingested += c.records_ingested;
        total.aborts_on_request += c.aborts_on_request;
        total.aborts_by_remote += c.aborts_by_remote;
        total.aborts_liveness += c.aborts_liveness;
        tcp_sent += dc->transport().messages_sent();
        const auto o = dc->overload_snapshot();
        admitted += o.admitted;
        shed += o.shed;
      }
      const double commits = static_cast<double>(total.commits);
      const double decided =
          commits + static_cast<double>(total.total_aborts());
      const auto set = [&trace_metrics](const char* name, double v,
                                        const char* unit) {
        trace_metrics[name] = Metric{v, unit};
      };
      set("core.envelopes_per_commit",
          Ratio(static_cast<double>(total.envelopes_sent), commits), "count");
      set("rdict.records_ingested_per_commit",
          Ratio(static_cast<double>(total.records_ingested), commits),
          "count");
      set("core.aborts_on_request_ratio",
          Ratio(static_cast<double>(total.aborts_on_request), decided),
          "ratio");
      set("core.aborts_by_remote_ratio",
          Ratio(static_cast<double>(total.aborts_by_remote), decided),
          "ratio");
      set("core.aborts_liveness_ratio",
          Ratio(static_cast<double>(total.aborts_liveness), decided),
          "ratio");
      set("transport.messages_per_commit",
          Ratio(static_cast<double>(tcp_sent), commits), "count");
      set("transport.shed_ratio",
          Ratio(static_cast<double>(shed),
                static_cast<double>(admitted + shed)),
          "ratio");
    }
    cluster.Stop();
  }
  std::fprintf(stderr, "live-wan3: load done\n");

  // Outcomes of every arrival, and per-segment steady figures.
  const auto optimum = helios::lp::SolveMao(
      helios::harness::UniformTopology(kDcs, kRttMs).rtt_ms);
  const double optimum_ms =
      optimum.ok() ? helios::lp::AverageLatency(optimum.value()) : 0.0;
  uint64_t arrived = 0, committed = 0, aborted = 0, shed = 0;
  uint64_t read_failed = 0, pending = 0, overload_commits = 0;
  std::vector<double> steady_ms, read_ms, lag_steady, lag_overload;
  std::vector<double> seg_p99, seg_gap_pct, seg_cpu_us, slice_gaps;
  double tail = 100.0;
  for (const Segment& seg : segs) {
    std::vector<double> ms;
    std::vector<CommitMark> marks;
    for (const Arrival& a : *seg.arrivals) {
      const State s = static_cast<State>(a.state.load());
      ++arrived;
      committed += s == State::kCommitted;
      aborted += s == State::kAborted;
      shed += s == State::kShed;
      read_failed += s == State::kReadFailed;
      pending += s == State::kPending;
      if (a.phase == 2 && s == State::kCommitted) ++overload_commits;
      if (a.phase != 1) continue;
      // Undrained arrivals may still be written by a loop thread.
      if (s != State::kPending) {
        for (double r : a.read_ms) read_ms.push_back(r);
      }
      if (s == State::kCommitted) {
        ms.push_back(Ms(a.decided - a.due));
        marks.push_back(CommitMark{
            a.dc, std::chrono::duration_cast<std::chrono::microseconds>(
                      a.decided - seg.start)
                      .count()});
      }
    }
    steady_ms.insert(steady_ms.end(), ms.begin(), ms.end());
    lag_steady.insert(lag_steady.end(), seg.lag_ms[1].begin(),
                      seg.lag_ms[1].end());
    lag_overload.insert(lag_overload.end(), seg.lag_ms[2].begin(),
                        seg.lag_ms[2].end());
    tail = std::min(tail, HighestSupportedPercentile(ms.size()));
    double mean = 0.0;
    for (double x : ms) mean += x;
    mean /= static_cast<double>(std::max<size_t>(ms.size(), 1));
    seg_p99.push_back(Percentile(ms, 99));
    seg_gap_pct.push_back((mean - optimum_ms) / optimum_ms * 100.0);
    seg_cpu_us.push_back(seg.steady_cpu_s * 1e6 /
                         static_cast<double>(std::max<size_t>(ms.size(), 1)));
    // A fault-free run's longest gap is one extreme value; the median over
    // short slices of the longest gap in each is what repeats.
    const auto us = [&seg](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::microseconds>(t -
                                                                   seg.start)
          .count();
    };
    for (int64_t t = us(seg.steady_from); t + kGapSliceUs <= us(seg.steady_until);
         t += kGapSliceUs) {
      slice_gaps.push_back(
          LongestCommitGapMs(marks, t, t + kGapSliceUs, {0, 1, 2}));
    }
  }
  if (committed + aborted + shed + read_failed + pending != arrived) {
    out.Fail("accounting: arrivals != committed + aborted + shed + "
             "read-failed + undrained");
  }
  const double lag_p99 = Percentile(lag_steady, 99);
  const double overload_lag_p99 = Percentile(lag_overload, 99);
  if (lag_p99 > kMaxSteadyLagP99Ms ||
      overload_lag_p99 > kMaxOverloadLagP99Ms) {
    out.Fail("generator fell behind: lag p99 " + std::to_string(lag_p99) +
             " ms steady, " + std::to_string(overload_lag_p99) +
             " ms overload");
  }
  std::printf("steady: %zu commits of %.0f/s in %d segments of %.1f s "
              "(highest percentile every segment supports: p%g); overload: "
              "%llu commits of %.0f/s for %.1f s; shed %llu, aborted %llu, "
              "undrained %llu; lag p99 %.3f ms steady, %.3f ms overload\n",
              steady_ms.size(), kSteadyRate, segments, kSegmentS, tail,
              static_cast<unsigned long long>(overload_commits), kOverloadRate,
              overload_s, static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(aborted),
              static_cast<unsigned long long>(pending), lag_p99,
              overload_lag_p99);
  if (tail < 99.0) out.Fail("a steady segment has too few commits for p99");
  std::printf("per segment: p99 ms");
  for (double v : seg_p99) std::printf(" %.2f", v);
  std::printf("; user CPU us/commit");
  for (double v : seg_cpu_us) std::printf(" %.1f", v);
  std::printf("\n");

  if (!opts.trace) {
    out.Set("setup_s", Median(setups), "s");
    out.Set("sim_wall_per_commit_us", Median(seg_cpu_us), "us");
    out.Set("peak_rss_mb", PeakRssMb(), "MB");
    out.Set("commit_p50_ms", Percentile(steady_ms, 50), "ms");
    out.Set("commit_p99_ms", Median(seg_p99), "ms");
    out.Set("abort_ratio",
            Ratio(static_cast<double>(aborted + shed + read_failed + pending),
                  static_cast<double>(arrived)),
            "ratio");
    out.Set("mao_gap_pct", Median(seg_gap_pct), "%");
    out.Set("unavailable_ms", Median(slice_gaps), "ms");
    out.Set("peak_goodput_tps",
            static_cast<double>(overload_commits) / overload_s, "1/s");
  } else {
    out.metrics.insert(trace_metrics.begin(), trace_metrics.end());
    {
      std::lock_guard<std::mutex> lock(probe.mu);
      out.Set("transport.loop_wait_us_p50", Percentile(probe.wait_us, 50),
              "us");
      out.Set("transport.loop_wait_us_p99", Percentile(probe.wait_us, 99),
              "us");
    }
    out.Set("workload.read_p50_ms", Percentile(read_ms, 50), "ms");
    out.Set("workload.lag_p99_ms", lag_p99, "ms");
    Shape shape;
    shape.dcs = kDcs;
    shape.num_keys = kKeys;
    shape.seed = opts.seed;
    out.Set("transport.rtt_us", MeasureTcpRttUs(), "us");
    out.Set("transport.solo_commit_p50_us", SoloCommitP50Us(dir, opts.seed),
            "us");
    MeasureWireLayer(shape, &out.metrics);
    std::string error;
    if (!MeasureFileWal(shape, dir, &out.metrics, &error)) out.Fail(error);
    MeasureEngineLayers(shape, &out.metrics);
    out.Set("host.calib_ms", CalibrationMs(), "ms");
  }
  std::filesystem::remove_all(dir);
  out.attempted = arrived;
  out.failed = read_failed + pending;
  return out;
}

}  // namespace perfbench
