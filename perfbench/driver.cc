// perfbench_driver: run one workload and print one JSON report line.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//       --work-dir=DIR --catalog=DIR --reference=DIR
//       [--record-digests=FILE] [--knee-sweep=Q1,Q2,...]
//
// The report carries the environment stamp (build type and flags,
// compiler, CPU, nproc, seed), the operation counts, every metric the
// run measured, and details for the human report. A build that is not
// optimized, or that carries a sanitizer, is refused: exit 3, no report.
// Other exit codes: 0 ok, 1 the workload could not run, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {
namespace {

constexpr const char kUsage[] =
    "usage: perfbench_driver --workload=table1-generate|fig-eval|"
    "serve-closed|serve-openloop --seed=N --seconds=S --trace=0|1 "
    "--work-dir=DIR --catalog=DIR --reference=DIR [--record-digests=FILE] "
    "[--knee-sweep=Q1,Q2,...]\n";

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Why this build may not be measured, or empty when it may.
std::string BuildRefusal() {
#ifdef PERFBENCH_SANITIZED
  return "sanitizer build";
#endif
#ifndef __OPTIMIZE__
  return "unoptimized build";
#endif
  return "";
}

std::string EnvJson(const Options& opts) {
  using semap::obs::JsonEscape;
  return std::string("{\"build_type\":\"") + JsonEscape(PERFBENCH_BUILD_TYPE) +
         "\",\"cxx_flags\":\"" + JsonEscape(PERFBENCH_CXX_FLAGS) +
         "\",\"compiler\":\"" + JsonEscape(PERFBENCH_COMPILER) +
         "\",\"cpu\":\"" + JsonEscape(CpuModel()) + "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"seed\":" + std::to_string(opts.seed) + "}";
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      opts->workload = value;
    } else if (key == "seed") {
      opts->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      opts->seconds = std::atof(value.c_str());
    } else if (key == "trace") {
      if (value != "0" && value != "1") return false;
      opts->trace = value == "1";
    } else if (key == "work-dir") {
      opts->work_dir = value;
    } else if (key == "catalog") {
      opts->catalog_dir = value;
    } else if (key == "reference") {
      opts->reference_dir = value;
    } else if (key == "record-digests") {
      opts->record_digests = value;
    } else if (key == "knee-sweep") {
      const char* cursor = value.c_str();
      while (*cursor != '\0') {
        char* end = nullptr;
        const double qps = std::strtod(cursor, &end);
        if (end == cursor || qps <= 0) return false;
        opts->knee_sweep.push_back(qps);
        cursor = *end == ',' ? end + 1 : end;
      }
    } else {
      return false;
    }
  }
  return !opts->workload.empty() && opts->seconds > 0 &&
         !opts->work_dir.empty() && !opts->reference_dir.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (const std::string refusal = BuildRefusal(); !refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure this build: %s\n",
                 refusal.c_str());
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);

  Report report;
  bool ran = false;
  if (opts.workload == "table1-generate") {
    ran = RunTable1Generate(opts, report);
  } else if (opts.workload == "fig-eval") {
    ran = RunFigEval(opts, report);
  } else if (opts.workload == "serve-closed") {
    ran = RunServeClosed(opts, report);
  } else if (opts.workload == "serve-openloop") {
    ran = RunServeOpenLoop(opts, report);
  } else {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (!ran) return 1;
  std::string out = report.ToJson();
  out.insert(1, "\"env\":" + EnvJson(opts) + ",");
  std::printf("%s\n", out.c_str());
  return 0;
}
