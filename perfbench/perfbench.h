// perfbench: the repository benchmark driver. One binary runs one
// workload (table1-generate, fig-eval, serve-closed or serve-openloop)
// against the
// library's public entry points, checks every output, and prints one JSON
// report line that perfbench/run.py turns into the benchmark result.
//
// Layers are timed from outside: the driver opens its own spans around
// each public call (data::BuildAllDomains, validate::LoadScenario,
// rew::GenerateMappings, baseline::GenerateRicMappings, eval::ScoreCase,
// one semap.rpc.v1 round trip to serve::Server) and, on traced runs,
// passes an exec::RunContext whose tracer and metrics collect the phase
// spans and counters those calls already emit.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// CRC-32 of `text` as 8 hex digits: the digest the reference files hold.
std::string Digest(const std::string& text);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for journals and the span dump.
  std::string work_dir;
  /// Scenario catalog the serving workloads serve.
  std::string catalog_dir;
  /// Directory holding digests.txt and fig67_expected.txt.
  std::string reference_dir;
  /// Write the observed digests to this file instead of checking them.
  std::string record_digests;
  /// serve-openloop: override the two fixed rates with a sweep of offered
  /// rates (comma-separated qps); reports goodput per rate.
  std::vector<double> knee_sweep;
};

/// Everything one run measured. Metric values are plain numbers with a
/// unit; `detail` holds pre-rendered JSON members for the human report.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void Detail(const std::string& key, const std::string& json_value) {
    detail_[key] = json_value;
  }
  /// Count one operation; `ok` false marks it failed with `why`.
  void Op(bool ok, const std::string& why = {});
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  std::string ToJson() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> detail_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few, for the report
};

/// In-memory store of the spans of every traced operation. Each
/// operation records into its own obs::Tracer (tracers are
/// single-threaded); Add files its spans under the operation's id and
/// accumulates per-name self and total time. WriteNdjson dumps them once,
/// at exit.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  /// Nanoseconds since this log was created; the offset to pass to Add
  /// for a tracer created now.
  int64_t NowNs() const;

  /// File `tracer`'s spans under operation `op_id`. `group` (a domain, a
  /// request class) keys the per-group totals.
  void Add(int64_t op_id, const std::string& group,
           const semap::obs::Tracer& tracer, int64_t offset_ns);

  /// Summed self time (duration minus child spans) of spans named `name`.
  double SelfMs(const std::string& name) const;
  /// Summed duration of spans named `name` in `group`.
  double TotalMs(const std::string& name, const std::string& group) const;

  bool WriteNdjson(const std::string& path) const;

 private:
  struct Row {
    int64_t op_id;
    int id;
    int parent;
    std::string name;
    std::string group;
    int64_t start_ns;
    int64_t end_ns;
  };
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Row> rows_;
  std::map<std::string, int64_t> self_ns_;
  std::map<std::pair<std::string, std::string>, int64_t> total_ns_;
};

/// The committed reference digests (digests.txt): each checked output's
/// digest must equal the one recorded at seed. In record mode the
/// observed digests are collected instead and merged into the record file.
class DigestBook {
 public:
  explicit DigestBook(const Options& opts);
  bool loaded() const { return !expected_.empty() || recording(); }
  bool recording() const { return !record_path_.empty(); }
  /// True when `text`'s digest matches the reference for `key` (always
  /// true in record mode); `why` explains a mismatch.
  bool Check(const std::string& key, const std::string& text,
             std::string* why);
  bool Save() const;

 private:
  std::string record_path_;
  std::map<std::string, std::string> expected_;
  mutable std::mutex mu_;
  std::map<std::string, std::string> observed_;
};

// The workloads; each fills `report` and returns false only when the run
// could not be carried out at all (set-up failed).
bool RunTable1Generate(const Options& opts, Report& report);
bool RunFigEval(const Options& opts, Report& report);
bool RunServeClosed(const Options& opts, Report& report);
bool RunServeOpenLoop(const Options& opts, Report& report);

// Per-layer metrics. A traced run of any workload reports every layer
// group; a group whose layers the workload does not run is reported from
// no samples, through the same code that reports it where it runs, and
// reads 0.

/// layer.setup.*: medians of the set-ups' BuildAllDomains, LoadScenario
/// and server-start times (an empty list reads 0).
void SetSetupLayers(Report& report, const std::vector<double>& build_ms,
                    const std::vector<double>& load_ms,
                    const std::vector<double>& start_ms);
/// Discovery and rewriting layers (closed_loop.cc).
void SetNoGenerationLayers(Report& report);
/// Baseline and eval layers, per Fig. 6/7 domain (closed_loop.cc).
void SetNoEvalLayers(const Options& opts, Report& report);
/// Serve, store and client layers (serve_loop.cc).
void SetNoServeLayers(Report& report);

/// Resident-set high-water mark of this process in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
