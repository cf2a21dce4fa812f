// Host record and calibration: what a reader needs to tell a host change
// from a regression.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string HostRecordJson(const std::string& git_sha) {
  std::ostringstream os;
  os << "{\"cpu\": \"" << JsonEscape(CpuModel()) << "\", \"nproc\": "
     << std::thread::hardware_concurrency() << ", \"compiler\": \""
     << JsonEscape(__VERSION__) << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"git_sha\": \"" << JsonEscape(git_sha)
     << "\"}";
  return os.str();
}

double CalibrationMs() {
  // A fixed xorshift chain: pure integer work with a loop-carried
  // dependency, so its time tracks the core's clock and nothing else.
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    volatile uint64_t sink = 0;
    uint64_t x = 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(sink);
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    runs.push_back(SecondsSince(t0) * 1000.0);
  }
  return Median(runs);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench
