// helios_sim: run custom experiments from the command line.
//
// A single run builds one harness::ExperimentSpec from the flags; grid
// runs (--protocols and/or --seeds lists) fan the cross-product out over
// a harness::SweepRunner with --jobs worker threads and can dump the
// aggregated deterministic JSON with --json_out.
//
// Examples:
//   helios_sim                                     # Helios-0, Table 2, 60 clients
//   helios_sim --protocol=helios2 --clients=120
//   helios_sim --protocol=2pc --topology=uniform --dcs=3 --rtt=80
//   helios_sim --protocol=helios0 --skew_ms=100,0,0,0,0 --theta=0.6
//   helios_sim --protocol=mf --measure_s=30 --check_serializability
//   helios_sim --protocols=helios0,helios2,2pc --seeds=1,2,3
//       --jobs=4 --json_out=sweep.json
//
// --trace_out / --metrics_out need a single run (they capture one
// experiment's timeline) and bypass the sweep engine.

#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "harness/cli.h"
#include "harness/experiment.h"
#include "harness/experiment_spec.h"
#include "harness/job_pool.h"
#include "harness/sweep.h"
#include "sim/fault_plan.h"

using namespace helios;
namespace hns = helios::harness;
namespace cli = helios::harness::cli;

namespace {

void PrintDetail(const hns::ExperimentResult& r) {
  TablePrinter table({"DC", "latency ms (sd)", "p50", "p99", "ops/s",
                      "abort %", "committed"});
  for (const auto& dc : r.per_dc) {
    table.AddRow({dc.name,
                  TablePrinter::MeanStd(dc.latency_mean_ms,
                                        dc.latency_stddev_ms),
                  TablePrinter::Num(dc.latency_p50_ms, 1),
                  TablePrinter::Num(dc.latency_p99_ms, 1),
                  TablePrinter::Num(dc.throughput_ops_s, 0),
                  TablePrinter::Num(100.0 * dc.abort_rate, 2),
                  std::to_string(dc.committed)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("protocol:          %s\n", r.protocol.c_str());
  std::printf("avg latency:       %.1f ms (MAO optimum for topology: %.1f ms)\n",
              r.avg_latency_ms, r.optimal_avg_latency_ms);
  std::printf("total throughput:  %.0f ops/s\n", r.total_throughput_ops_s);
  std::printf("avg abort rate:    %.2f %%\n", 100.0 * r.avg_abort_rate);
  std::printf("simulated events:  %llu\n",
              static_cast<unsigned long long>(r.events_processed));
  if (r.serializability.has_value()) {
    std::printf("serializability:   %s\n",
                r.serializability->ok() ? "OK (conflict-serializable)"
                                        : r.serializability->ToString().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.DefineString("protocol", "helios0",
                     "helios0|helios1|helios2|heliosb|mf|rc|2pc");
  flags.DefineString("protocols", "",
                     "comma-separated protocol list; builds a grid "
                     "(overrides --protocol)");
  flags.DefineString("topology", "table2", "table2 | example3 | uniform");
  flags.DefineInt("dcs", 5, "datacenters for --topology=uniform");
  flags.DefineDouble("rtt", 100.0, "pairwise RTT ms for --topology=uniform");
  flags.DefineInt("clients", 60, "total closed-loop clients");
  flags.DefineInt("measure_s", 15, "measurement window, seconds");
  flags.DefineInt("warmup_s", 4, "warm-up, seconds");
  flags.DefineInt("keys", 50000, "key-pool size");
  flags.DefineDouble("theta", 0.2, "Zipfian skew");
  flags.DefineDouble("read_only", 0.0, "read-only transaction fraction");
  flags.DefineString("skew_ms", "", "per-DC clock offsets, comma-separated ms");
  flags.DefineInt("seed", 42, "simulation seed");
  flags.DefineString("seeds", "",
                     "comma-separated seed list; builds a grid "
                     "(overrides --seed)");
  flags.DefineInt("log_interval_ms", 10, "log propagation period, ms");
  flags.DefineBool("check_serializability", false,
                   "verify the committed history after the run");
  flags.DefineInt("shards", 1,
                  "independent Helios deployments per datacenter "
                  "(src/shard; > 1 needs a Helios-family protocol)");
  flags.DefineString("shard_by", "hash",
                     "key partition across shards: hash | range");
  flags.DefineString("fault_plan", "",
                     "JSON fault-plan file applied to every run "
                     "(see docs/FAULTS.md)");
  flags.DefineString("crash", "",
                     "crash/recover one datacenter: <dc>:<t_down_ms>:<t_up_ms> "
                     "(sugar for a fault-plan crash+recover pair; "
                     "see docs/RECOVERY.md). Repeatable via commas: "
                     "1:5000:9000,2:6000:10000");
  flags.DefineString("stall", "",
                     "gray process stall: <dc>:<t_from_ms>:<t_until_ms> "
                     "(sugar for a fault-plan process_stall; repeatable "
                     "via commas; see docs/FAULTS.md)");
  flags.DefineString("slow", "",
                     "gray slow link: <a>:<b>:<factor>:<t_from_ms>:<t_until_ms> "
                     "(sugar for a fault-plan slow_link; repeatable via "
                     "commas)");
  flags.DefineBool("health", false,
                   "arm the phi-accrual failure detector and "
                   "suspicion-driven degraded commit");
  flags.DefineInt("client_timeout_us", 0,
                  "client commit timeout per attempt, microseconds "
                  "(0 = no timeout; crash runs need one so clients homed "
                  "at a crashed datacenter keep making progress)");
  flags.DefineInt("client_retries", 3,
                  "max timeout retries per transaction before it counts "
                  "as aborted");
  flags.DefineDouble("loss", 0.0,
                     "per-message loss probability on every WAN link");
  flags.DefineDouble("dup", 0.0,
                     "per-message duplication probability on every WAN link");
  flags.DefineString("losses", "",
                     "comma-separated loss-probability list; builds a grid "
                     "(overrides --loss)");
  cli::AddCommonFlags(&flags, /*default_jobs=*/1);
  flags.DefineString("trace_out", "",
                     "write a Chrome trace_event JSON of the run here "
                     "(load in chrome://tracing or Perfetto); single run only");
  flags.DefineString("metrics_out", "",
                     "write the metrics snapshot here (.csv for CSV, "
                     "anything else for JSON); single run only");
  flags.DefineInt("trace_capacity", 0,
                  "trace ring-buffer capacity in events (0 = default)");
  cli::ParseOrExit(&flags, argc, argv);

  // The base spec every grid cell starts from.
  hns::ExperimentSpec base;
  base.WithTopology(flags.GetString("topology"))
      .WithClients(static_cast<int>(flags.GetInt("clients")))
      .WithMeasure(Seconds(flags.GetInt("measure_s")))
      .WithWarmup(Seconds(flags.GetInt("warmup_s")))
      .WithNumKeys(static_cast<uint64_t>(flags.GetInt("keys")))
      .WithZipfTheta(flags.GetDouble("theta"))
      .WithReadOnlyFraction(flags.GetDouble("read_only"))
      .WithSeed(static_cast<uint64_t>(flags.GetInt("seed")))
      .WithLogInterval(Millis(flags.GetInt("log_interval_ms")))
      .WithSerializabilityCheck(flags.GetBool("check_serializability"));
  if (flags.GetInt("shards") != 1 || flags.GetString("shard_by") != "hash") {
    base.WithShards(static_cast<int>(flags.GetInt("shards")))
        .WithShardBy(flags.GetString("shard_by"));
  }
  if (flags.GetString("topology") == "uniform") {
    base.WithUniformTopology(static_cast<int>(flags.GetInt("dcs")),
                             flags.GetDouble("rtt"));
  }
  if (!flags.GetString("skew_ms").empty()) {
    auto skew = cli::ParseMillisList(flags.GetString("skew_ms"));
    if (!skew.ok()) {
      return cli::FailWith(skew.status(), cli::kExitUsage);
    }
    base.WithClockOffsets(std::move(skew).value());
  }
  if (!flags.GetString("fault_plan").empty()) {
    auto text = cli::ReadWholeFile(flags.GetString("fault_plan"));
    if (!text.ok()) {
      return cli::FailWith(text.status(), cli::kExitUsage);
    }
    auto plan = sim::FaultPlan::FromJson(text.value());
    if (!plan.ok()) {
      std::fprintf(stderr, "bad --fault_plan: %s\n",
                   plan.status().ToString().c_str());
      return cli::kExitUsage;
    }
    base.WithFaultPlan(std::move(plan).value());
  }
  if (!flags.GetString("crash").empty()) {
    // Each entry is <dc>:<t_down_ms>:<t_up_ms>; the fault plan executes
    // the pair as a true amnesia crash followed by WAL recovery.
    for (const std::string& entry : cli::SplitCsv(flags.GetString("crash"))) {
      int dc = -1;
      long long down_ms = -1;
      long long up_ms = -1;
      if (std::sscanf(entry.c_str(), "%d:%lld:%lld", &dc, &down_ms, &up_ms) !=
              3 ||
          dc < 0 || down_ms < 0 || up_ms <= down_ms) {
        std::fprintf(stderr,
                     "bad --crash entry '%s' (want <dc>:<t_down_ms>:<t_up_ms> "
                     "with t_up > t_down)\n",
                     entry.c_str());
        return 2;
      }
      base.fault_plan.AddCrash(Millis(down_ms), dc);
      base.fault_plan.AddRecover(Millis(up_ms), dc);
    }
  }
  if (!flags.GetString("stall").empty()) {
    for (const std::string& entry : cli::SplitCsv(flags.GetString("stall"))) {
      int dc = -1;
      long long from_ms = -1;
      long long until_ms = -1;
      if (std::sscanf(entry.c_str(), "%d:%lld:%lld", &dc, &from_ms,
                      &until_ms) != 3 ||
          dc < 0 || from_ms < 0 || until_ms <= from_ms) {
        std::fprintf(stderr,
                     "bad --stall entry '%s' (want <dc>:<t_from_ms>:"
                     "<t_until_ms> with t_until > t_from)\n",
                     entry.c_str());
        return 2;
      }
      base.fault_plan.AddProcessStall(Millis(from_ms), Millis(until_ms), dc);
    }
  }
  if (!flags.GetString("slow").empty()) {
    for (const std::string& entry : cli::SplitCsv(flags.GetString("slow"))) {
      int a = -1;
      int b = -1;
      double factor = 0.0;
      long long from_ms = -1;
      long long until_ms = -1;
      if (std::sscanf(entry.c_str(), "%d:%d:%lf:%lld:%lld", &a, &b, &factor,
                      &from_ms, &until_ms) != 5 ||
          a < 0 || b < 0 || a == b || factor < 1.0 || from_ms < 0 ||
          until_ms <= from_ms) {
        std::fprintf(stderr,
                     "bad --slow entry '%s' (want <a>:<b>:<factor>:"
                     "<t_from_ms>:<t_until_ms> with factor >= 1 and "
                     "t_until > t_from)\n",
                     entry.c_str());
        return 2;
      }
      base.fault_plan.AddSlowLink(Millis(from_ms), Millis(until_ms), a, b,
                                  factor);
    }
  }
  if (flags.GetBool("health")) base.WithHealth(true);
  if (flags.GetInt("client_timeout_us") > 0) {
    base.WithClientTimeout(
        static_cast<Duration>(flags.GetInt("client_timeout_us")),
        static_cast<int>(flags.GetInt("client_retries")));
  }
  if (flags.GetDouble("dup") > 0.0) {
    base.WithDuplication(flags.GetDouble("dup"));
  }

  // Grid axes: protocols x seeds (each defaults to a single value).
  const std::string protocols_csv = flags.GetString("protocols").empty()
                                        ? flags.GetString("protocol")
                                        : flags.GetString("protocols");
  auto protocols_or = cli::ParseProtocolList(protocols_csv);
  if (!protocols_or.ok()) {
    return cli::FailWith(protocols_or.status(), cli::kExitUsage);
  }
  const std::vector<hns::Protocol> protocols = std::move(protocols_or).value();

  std::vector<uint64_t> seeds;
  if (flags.GetString("seeds").empty()) {
    seeds.push_back(base.seed);
  } else {
    auto seeds_or = cli::ParseSeedList(flags.GetString("seeds"));
    if (!seeds_or.ok()) {
      return cli::FailWith(seeds_or.status(), cli::kExitUsage);
    }
    seeds = std::move(seeds_or).value();
  }

  std::vector<double> losses;
  if (flags.GetString("losses").empty()) {
    losses.push_back(flags.GetDouble("loss"));
  } else {
    auto losses_or = cli::ParseDoubleList(flags.GetString("losses"));
    if (!losses_or.ok()) {
      return cli::FailWith(losses_or.status(), cli::kExitUsage);
    }
    losses = std::move(losses_or).value();
  }

  std::vector<hns::ExperimentSpec> specs;
  const bool grid =
      protocols.size() > 1 || seeds.size() > 1 || losses.size() > 1;
  for (hns::Protocol p : protocols) {
    for (uint64_t seed : seeds) {
      for (double loss : losses) {
        hns::ExperimentSpec spec = base;
        spec.WithProtocol(p).WithSeed(seed);
        if (loss > 0.0) spec.WithLoss(loss);
        if (grid) {
          std::string label = std::string(hns::ProtocolToken(p)) + " seed " +
                              std::to_string(seed);
          if (losses.size() > 1) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), " loss %g", loss);
            label += buf;
          }
          spec.WithLabel(std::move(label));
        }
        specs.push_back(std::move(spec));
      }
    }
  }
  for (const auto& spec : specs) {
    if (const Status v = spec.Validate(); !v.ok()) {
      std::fprintf(stderr, "invalid spec %s: %s\n", spec.DisplayName().c_str(),
                   v.ToString().c_str());
      return 2;
    }
  }

  const std::string trace_out = flags.GetString("trace_out");
  const std::string metrics_out = flags.GetString("metrics_out");
  if (!trace_out.empty() || !metrics_out.empty()) {
    // Tracing captures one experiment's timeline; it bypasses the sweep.
    if (specs.size() != 1) {
      std::fprintf(stderr,
                   "--trace_out/--metrics_out need a single run, not a "
                   "%zu-cell grid\n",
                   specs.size());
      return 2;
    }
    specs[0].WithTrace(
        true, flags.GetInt("trace_capacity") > 0
                  ? static_cast<size_t>(flags.GetInt("trace_capacity"))
                  : 0);
    auto cfg_or = specs[0].ToConfig();
    if (!cfg_or.ok()) {
      return cli::FailWith(cfg_or.status(), cli::kExitUsage);
    }
    const hns::ExperimentConfig cfg = std::move(cfg_or).value();
    std::fprintf(stderr, "running %s...\n", specs[0].DisplayName().c_str());
    const hns::ExperimentResult r = hns::RunExperiment(cfg);
    PrintDetail(r);
    if (r.serializability.has_value() && !r.serializability->ok()) return 1;
    if (!trace_out.empty() && r.trace != nullptr) {
      const Status s = r.trace->WriteChromeTrace(trace_out);
      if (!s.ok()) {
        std::fprintf(stderr, "failed to write %s: %s\n", trace_out.c_str(),
                     s.ToString().c_str());
        return 1;
      }
      std::printf("trace:             %s (%llu events, %llu dropped)\n",
                  trace_out.c_str(),
                  static_cast<unsigned long long>(r.trace->size()),
                  static_cast<unsigned long long>(r.trace->dropped()));
    }
    if (!metrics_out.empty()) {
      const Status s = r.metrics.WriteFile(metrics_out);
      if (!s.ok()) {
        std::fprintf(stderr, "failed to write %s: %s\n", metrics_out.c_str(),
                     s.ToString().c_str());
        return 1;
      }
      std::printf("metrics:           %s\n", metrics_out.c_str());
    }
    return 0;
  }

  // Sweep path: one job or many, same engine.
  hns::SweepOptions options;
  options.jobs = hns::ResolveJobCount(static_cast<int>(flags.GetInt("jobs")));
  options.progress = [](const hns::SweepProgress& p) {
    std::fprintf(stderr, "[%d/%d] %s (%.1fs elapsed, eta %.0fs)\n", p.done,
                 p.total, p.last_label.c_str(), p.elapsed_seconds,
                 p.eta_seconds);
  };
  hns::SweepRunner runner(options);
  const hns::SweepResult sweep = runner.Run(specs);
  const std::string json_out = flags.GetString("json_out");
  if (!json_out.empty()) {
    if (const Status s = sweep.WriteJsonFile(json_out); !s.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", json_out.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }
  if (const Status s = sweep.status(); !s.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "%s\n", sweep.TimingSummary().c_str());

  if (specs.size() == 1) {
    PrintDetail(sweep.jobs[0].result);
    return 0;
  }
  TablePrinter table({"Experiment", "avg latency (ms)", "ops/s", "abort %"});
  for (const auto& job : sweep.jobs) {
    table.AddRow({job.spec.DisplayName(),
                  TablePrinter::Num(job.result.avg_latency_ms, 1),
                  TablePrinter::Num(job.result.total_throughput_ops_s, 0),
                  TablePrinter::Num(100.0 * job.result.avg_abort_rate, 2)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}
