// bench_e2e — the end-to-end benchmark of the Infopipes platform.
//
//   bench_e2e --workload W [--seed N] [--seconds S] [--trace [0|1]]
//             [--smoke] [--out DIR] [--commit SHA]
//
// Runs one workload (coroutine_chain, shard_cut, tcp_video, session_churn)
// in this process: an open loop at the workload's fixed offered rate for
// CPU cost, memory and latency, short-lived instances for set-up cost,
// then closed-loop repetitions for capacity.
// Prints every metric by name with its unit, writes DIR/<workload>.json
// (with the host record) and, traced, DIR/<workload>.trace.jsonl, and ends
// stdout with one JSON line {"correct","attempted","failed","metrics"}.
// Exits 1 when any correctness check failed, 2 on a usage error.
// bench/e2e/run.sh builds this in Release and runs it; README.md explains
// every number.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "workload.hpp"

namespace {

using e2e::Args;

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "coroutine_chain|shard_cut|tcp_video|session_churn [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out DIR] "
               "[--commit SHA]\n",
               why);
  return 2;
}

/// Accepts "--key value" and "--key=value"; a bare "--trace" means 1.
bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    const auto eq = key.find('=');
    const bool bare = i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0;
    if (eq != std::string::npos) {
      val = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key == "--trace" && bare) {
      val = "1";
    } else if (key != "--smoke") {
      if (bare) return false;
      val = argv[++i];
    }
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = val == "1";
      } else if (key == "--smoke") {
        a.smoke = true;
      } else if (key == "--out") {
        a.out_dir = val;
      } else if (key == "--commit") {
        a.commit = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

std::string json_result(const e2e::Result& r) {
  std::string j = "{\"correct\":";
  j += r.correct() ? "true" : "false";
  j += ",\"attempted\":" + std::to_string(r.attempted);
  j += ",\"failed\":" + std::to_string(r.failed);
  j += ",\"metrics\":{";
  bool first = true;
  for (const e2e::Metric& m : r.metrics()) {
    char num[64];
    std::snprintf(num, sizeof num, "%.12g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) j += ",";
    first = false;
    j += "\"" + m.name + "\":{\"value\":" + num + ",\"unit\":\"" + m.unit +
         "\"}";
  }
  j += "}}";
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage("bad arguments");
  std::unique_ptr<e2e::Workload> w;
  if (a.workload == "coroutine_chain") {
    w = e2e::make_coroutine_chain(a);
  } else if (a.workload == "shard_cut") {
    w = e2e::make_shard_cut(a);
  } else if (a.workload == "tcp_video") {
    w = e2e::make_tcp_video(a);
  } else if (a.workload == "session_churn") {
    w = e2e::make_session_churn(a);
  } else {
    return usage(("unknown workload " + a.workload).c_str());
  }
  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  const auto cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus > 2) e2e::pin_to_cpu(cpus - 1);

  std::printf("== %s seed %" PRIu64 " %s%s==\n", a.workload.c_str(), a.seed,
              a.trace ? "traced " : "", a.smoke ? "smoke " : "");
  const e2e::Result r = e2e::run_workload(a, *w);
  for (const e2e::Metric& m : r.metrics()) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const e2e::Metric& m : r.notes()) {
    std::printf("  %-32s %14.4f %s (printed only)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-32s %14.4f frac\n", "fail_frac",
              r.attempted == 0 ? 1.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted));
  std::printf("  attempted %" PRIu64 ", failed %" PRIu64 "\n", r.attempted,
              r.failed);
  for (const std::string& e : r.errors()) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }

  const std::string line = json_result(r);
  const std::string path =
      a.out_dir + "/" + a.workload + (a.trace ? ".traced" : "") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"host\":%s,\"workload\":\"%s\",\"seed\":%" PRIu64
                 ",\"trace\":%s,\"result\":%s}\n",
                 e2e::host_json(a).c_str(), a.workload.c_str(), a.seed,
                 a.trace ? "true" : "false", line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  return r.correct() ? 0 : 1;
}
