// helios_perfbench: runs one benchmark workload and prints its metrics.
//
//   helios_perfbench --workload <sim-table2|sim-xshard-faults|live-wan3>
//       --seed <n> --seconds <s> --trace <0|1> [--work_dir <dir>]
//       [--git_sha <sha>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness check passed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

using MetricNames = std::vector<std::pair<std::string, std::string>>;

/// Every end-to-end metric, with its unit, in print order.
const MetricNames& EndToEndMetricNames() {
  static const MetricNames kNames = {
      {"sim_wall_per_commit_us", "us"}, {"setup_s", "s"},
      {"peak_rss_mb", "MB"},            {"commit_p50_ms", "ms"},
      {"commit_p99_ms", "ms"},          {"abort_ratio", "ratio"},
      {"mao_gap_pct", "%"},             {"unavailable_ms", "ms"},
      {"peak_goodput_tps", "1/s"},
  };
  return kNames;
}

/// Every per-layer metric, with its unit, in print order. A workload that
/// does not exercise a layer reports 0 for it.
const MetricNames& PerLayerMetricNames() {
  static const MetricNames kNames = {
      {"host.calib_ms", "ms"},
      {"store.apply_write_ns", "ns"},
      {"store.read_ns", "ns"},
      {"store.read_at_ns", "ns"},
      {"store.gc_tick_ms", "ms"},
      {"store.preload_ms", "ms"},
      {"store.teardown_ms", "ms"},
      {"txn.pool_conflict_ns", "ns"},
      {"txn.pool_add_remove_ns", "ns"},
      {"rdict.records_ingested_per_commit", "count"},
      {"rdict.ingest_ns", "ns"},
      {"rdict.build_message_ns", "ns"},
      {"rdict.gc_us", "us"},
      {"sim.events_per_commit", "count"},
      {"sim.messages_per_commit", "count"},
      {"sim.dispatch_ns", "ns"},
      {"sim.send_ns", "ns"},
      {"wal.memory_append_ns", "ns"},
      {"core.envelopes_per_commit", "count"},
      {"core.queue_wait_ms_p50", "ms"},
      {"core.queue_wait_ms_p99", "ms"},
      {"core.commit_wait_ms_p50", "ms"},
      {"core.commit_wait_ms_p99", "ms"},
      {"core.client_link_ms_p50", "ms"},
      {"core.server_self_ms_mean", "ms"},
      {"core.aborts_on_request_ratio", "ratio"},
      {"core.aborts_by_remote_ratio", "ratio"},
      {"core.aborts_liveness_ratio", "ratio"},
      {"core.recover_ms", "ms"},
      {"core.catchup_records", "count"},
      {"reliable.retransmits_per_commit", "count"},
      {"reliable.acks_per_commit", "count"},
      {"reliable.send_ns", "ns"},
      {"reliable.retransmit_wait_ms", "ms"},
      {"shard.slices_per_xshard_commit", "count"},
      {"shard.slices_waited_ratio", "ratio"},
      {"shard.slice_commit_ratio", "ratio"},
      {"shard.status_flip_ns", "ns"},
      {"wal.every.append_p50_us", "us"},
      {"wal.every.append_p99_us", "us"},
      {"wal.every.fsync_us", "us"},
      {"wal.group.append_p50_us", "us"},
      {"wal.group.append_p99_us", "us"},
      {"wal.group.fsync_us", "us"},
      {"wal.os.append_p50_us", "us"},
      {"wal.os.append_p99_us", "us"},
      {"wal.os.fsync_us", "us"},
      {"transport.loop_wait_us_p50", "us"},
      {"transport.loop_wait_us_p99", "us"},
      {"transport.rtt_us", "us"},
      {"transport.messages_per_commit", "count"},
      {"transport.solo_commit_p50_us", "us"},
      {"transport.shed_ratio", "ratio"},
      {"wire.heartbeat.encode_ns", "ns"},
      {"wire.heartbeat.decode_ns", "ns"},
      {"wire.batch.encode_ns", "ns"},
      {"wire.batch.decode_ns", "ns"},
      {"workload.read_p50_ms", "ms"},
      {"workload.lag_p99_ms", "ms"},
      {"workload.crashed_dc_abort_ratio", "ratio"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kNames;
}

int Usage() {
  std::fprintf(stderr,
               "usage: helios_perfbench --workload <sim-table2|"
               "sim-xshard-faults|live-wan3> --seed <n> --seconds <s> "
               "--trace <0|1> [--work_dir <dir>] [--git_sha <sha>]\n");
  return 2;
}

/// Every declared metric, in declaration order; a declared metric the run
/// did not measure reads 0 (the layer was not exercised), an undeclared
/// one is a benchmark bug.
std::string MetricsJson(Outcome* out, const MetricNames& declared,
                        bool zero_fill) {
  std::set<std::string> names;
  for (const auto& [name, unit] : declared) names.insert(name);
  for (const auto& [name, metric] : out->metrics) {
    if (names.count(name) == 0) out->Fail("undeclared metric " + name);
  }
  std::string json = "{";
  for (const auto& [name, unit] : declared) {
    auto it = out->metrics.find(name);
    if (it == out->metrics.end()) {
      if (!zero_fill) out->Fail("metric " + name + " was not measured");
      out->metrics[name] = Metric{0.0, unit};
      it = out->metrics.find(name);
    }
    double value = it->second.value;
    if (!std::isfinite(value)) {
      out->Fail("metric " + name + " is not finite");
      value = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (json.size() > 1) json += ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
            "\"}";
    std::printf("  %-36s %16.6f %s\n", name.c_str(), value, unit.c_str());
  }
  return json + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  std::string git_sha = "unknown";
  opts.work_dir = ".";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      have_seconds = end != value.c_str() && *end == '\0' && opts.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opts.trace = value == "1";
    } else if (flag == "--work_dir") {
      opts.work_dir = value;
    } else if (flag == "--git_sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }

  std::printf("host: %s\n", HostRecordJson(git_sha).c_str());
  std::printf("workload %s, seed %llu, %d s, trace %d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  std::fflush(stdout);
  Outcome out;
  if (opts.workload == "sim-table2") {
    out = RunSimTable2(opts);
  } else if (opts.workload == "sim-xshard-faults") {
    out = RunSimXshardFaults(opts);
  } else if (opts.workload == "live-wan3") {
    out = RunLiveWan3(opts);
  } else {
    return Usage();
  }

  const std::string metrics =
      opts.trace ? MetricsJson(&out, PerLayerMetricNames(), true)
                 : MetricsJson(&out, EndToEndMetricNames(), false);
  if (out.attempted == 0) out.Fail("no transaction was attempted");
  for (const std::string& f : out.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = out.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  return correct ? 0 : 1;
}
