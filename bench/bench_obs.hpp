// Shared --metrics-out support for the benches.
//
// Every bench accepts `--metrics-out=FILE` (or `--metrics-out FILE`). When
// given, each workload captures the final state of its runtime's metrics
// registry, and the bench writes them on exit as JSON lines — one object
// per captured label:
//
//     {"bench":"BM_PumpCycle","metrics":{...MetricsSnapshot::to_json()...}}
//
// Without the flag, capture() is a single predicate test, so normal timing
// runs are not distorted.
// The first line of the file is a `{"host":{...}}` object recording where
// the numbers came from: core count, clock rate, cpufreq governor, build
// type, compiler, and the INFOPIPE_SEED the process ran under — what most
// often explains why two BENCH_*.json files disagree.
#pragma once

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "core/config.hpp"
#include "rt/runtime.hpp"

namespace obsbench {

inline std::string& out_path() {
  static std::string path;
  return path;
}

inline std::map<std::string, std::string>& captured() {
  static std::map<std::string, std::string> rows;
  return rows;
}

[[nodiscard]] inline bool enabled() { return !out_path().empty(); }

/// Removes `--metrics-out[=FILE]` from argv (before the benchmark library
/// sees it) and remembers FILE. Updates argc in place.
inline void strip_metrics_flag(int& argc, char** argv) {
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    if (std::strncmp(argv[r], "--metrics-out=", 14) == 0) {
      out_path() = argv[r] + 14;
    } else if (std::strcmp(argv[r], "--metrics-out") == 0 && r + 1 < argc) {
      out_path() = argv[++r];
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
}

/// Snapshots the runtime's registry under `label` (last capture per label
/// wins — for code inside a benchmark iteration loop, that is the final
/// iteration). No-op unless --metrics-out was given.
inline void capture(infopipe::rt::Runtime& rtm, const char* label) {
  if (!enabled()) return;
  captured()[label] = rtm.metrics().snapshot().to_json();
}

/// The cpufreq governor of cpu0 ("performance", "powersave", …), or
/// "unknown" where sysfs does not expose one (containers, non-Linux).
inline std::string cpu_governor() {
  std::string g = "unknown";
  if (std::FILE* f = std::fopen(
          "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "r")) {
    char buf[64] = {};
    if (std::fgets(buf, sizeof(buf), f) != nullptr) {
      g = buf;
      while (!g.empty() && (g.back() == '\n' || g.back() == ' ')) g.pop_back();
    }
    std::fclose(f);
  }
  return g;
}

/// The first "cpu MHz" in /proc/cpuinfo, rounded, as a JSON number; "null"
/// where the kernel does not report one (non-x86, non-Linux).
inline std::string cpu_mhz() {
  std::string mhz = "null";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[256];
    double v = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "cpu MHz : %lf", &v) == 1) {
        mhz = std::to_string(static_cast<long>(v + 0.5));
        break;
      }
    }
    std::fclose(f);
  }
  return mhz;
}

/// One JSON object describing the machine and process configuration the
/// numbers were taken under.
inline std::string host_json() {
  std::string j = "{";
  j += "\"num_cpus\":" + std::to_string(std::thread::hardware_concurrency());
  j += ",\"mhz_per_cpu\":" + cpu_mhz();
  j += ",\"governor\":\"" + cpu_governor() + "\"";
#ifdef NDEBUG
  j += ",\"build_type\":\"release\"";
#else
  j += ",\"build_type\":\"debug\"";
#endif
#if defined(__clang__)
  j += ",\"compiler\":\"clang " __VERSION__ "\"";
#elif defined(__GNUC__)
  j += ",\"compiler\":\"gcc " __VERSION__ "\"";
#else
  j += ",\"compiler\":\"" __VERSION__ "\"";
#endif
  j += ",\"config\":{\"seed\":" + std::to_string(infopipe::config().seed);
  j += "}}";
  return j;
}

/// Writes the host object, then all captured snapshots, as JSON lines.
/// Call once at the end of main.
inline void write_metrics() {
  if (!enabled()) return;
  std::FILE* f = std::fopen(out_path().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write metrics to %s\n", out_path().c_str());
    return;
  }
  std::fprintf(f, "{\"host\":%s}\n", host_json().c_str());
  for (const auto& [label, json] : captured()) {
    std::fprintf(f, "{\"bench\":\"%s\",\"metrics\":%s}\n", label.c_str(),
                 json.c_str());
  }
  std::fclose(f);
}

}  // namespace obsbench

/// Drop-in replacement for BENCHMARK_MAIN() that understands --metrics-out.
/// (A macro so it expands where <benchmark/benchmark.h> is included.)
#define OBSBENCH_MAIN()                                                      \
  int main(int argc, char** argv) {                                          \
    obsbench::strip_metrics_flag(argc, argv);                                \
    ::benchmark::Initialize(&argc, argv);                                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;      \
    ::benchmark::RunSpecifiedBenchmarks();                                   \
    ::benchmark::Shutdown();                                                 \
    obsbench::write_metrics();                                               \
    return 0;                                                                \
  }                                                                          \
  static_assert(true, "require a trailing semicolon")
