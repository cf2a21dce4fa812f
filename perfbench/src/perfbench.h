// Shared declarations of the Helios benchmark: the result every workload
// fills, the workload entry points, the layer probes and the host
// record. See perfbench/METRICS.md for what each metric reads.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 16;
  bool trace = false;
  /// Working directory inside the checkout (live WAL files); created and
  /// removed by the workload that uses it.
  std::string work_dir;
};

/// What one benchmark run reports. `attempted` counts transactions offered;
/// `failed` counts those that ended in an error instead of a commit/abort
/// decision (an abort is a decision and shows in abort_ratio instead).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  /// Correctness-gate failures; the run is correct iff this stays empty.
  std::vector<std::string> failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& why) { failures.push_back(why); }
};

Outcome RunSimTable2(const Options& opts);
Outcome RunSimXshardFaults(const Options& opts);
Outcome RunLiveWan3(const Options& opts);

/// Workload shape the layer probes copy their inputs from.
struct Shape {
  int dcs = 5;
  uint64_t num_keys = 50000;
  int ops_per_txn = 5;
  double write_fraction = 0.5;
  double zipf_theta = 0.2;
  uint64_t seed = 1;
  /// The workload runs the reliable mesh and the cross-shard coordinator;
  /// their probes run only then, so the layers read 0 elsewhere.
  bool reliable_and_shards = false;
};

/// Times public calls into store, txn, rdict, sim, reliable, shard and
/// wal (MemoryWal) on inputs of `shape`; fills the *_ns / *_ms entries.
void MeasureEngineLayers(const Shape& shape, Metrics* out);

/// Times wire encode/decode on the heartbeat and batch envelope shapes.
void MeasureWireLayer(const Shape& shape, Metrics* out);

/// Times FileWal appends under each fsync policy in `dir`. Returns false
/// (with `error` set) if the directory cannot be used.
bool MeasureFileWal(const Shape& shape, const std::string& dir, Metrics* out,
                    std::string* error);

/// Median round trip of a small frame between two TcpTransports on
/// loopback, in microseconds; negative on failure.
double MeasureTcpRttUs();

/// Host record as one JSON object (CPU model, nproc, compiler, build type,
/// git sha).
std::string HostRecordJson(const std::string& git_sha);

/// Median wall time of a fixed integer calibration loop, in ms.
double CalibrationMs();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Resident set size of this process now, in MiB.
double CurrentRssMb();

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
