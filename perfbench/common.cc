#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "perfbench.h"
#include "util/crc32.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::string Digest(const std::string& text) {
  return semap::Crc32Hex(semap::Crc32(text));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SetSetupLayers(Report& report, const std::vector<double>& build_ms,
                    const std::vector<double>& load_ms,
                    const std::vector<double>& start_ms) {
  report.Set("layer.setup.build_domains_ms", Median(build_ms), "ms");
  report.Set("layer.setup.load_scenario_ms", Median(load_ms), "ms");
  report.Set("layer.setup.server_start_ms", Median(start_ms), "ms");
}

void Report::Op(bool ok, const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(why);
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string Report::ToJson() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ",";
    out += '"';
    out += semap::obs::JsonEscape(failures_[i]);
    out += '"';
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"value\":" + Number(metric.value) +
           ",\"unit\":\"" + metric.unit + "\"}";
  }
  out += "},\"detail\":{";
  first = true;
  for (const auto& [key, value] : detail_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + key + "\":" + value;
  }
  out += "}}";
  return out;
}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

void SpanLog::Add(int64_t op_id, const std::string& group,
                  const semap::obs::Tracer& tracer, int64_t offset_ns) {
  const std::vector<semap::obs::SpanRecord>& spans = tracer.spans();
  // Self time = own duration minus the durations of direct children; the
  // library is single-threaded per call, so children never overlap.
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const semap::obs::SpanRecord& s : spans) {
    if (s.parent >= 0 && s.duration_ns > 0) child_ns[s.parent] += s.duration_ns;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const semap::obs::SpanRecord& s : spans) {
    const int64_t duration = std::max<int64_t>(s.duration_ns, 0);
    self_ns_[s.name] += duration - child_ns[s.id];
    total_ns_[{s.name, group}] += duration;
    rows_.push_back(Row{op_id, s.id, s.parent, s.name, group,
                        offset_ns + s.start_ns,
                        offset_ns + s.start_ns + duration});
  }
}

double SpanLog::SelfMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = self_ns_.find(name);
  return it == self_ns_.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
}

double SpanLog::TotalMs(const std::string& name,
                        const std::string& group) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = total_ns_.find({name, group});
  return it == total_ns_.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
}

bool SpanLog::WriteNdjson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const Row& r : rows_) {
    out << "{\"op\":" << r.op_id << ",\"span\":" << r.id
        << ",\"parent\":" << r.parent << ",\"name\":\""
        << semap::obs::JsonEscape(r.name) << "\",\"group\":\""
        << semap::obs::JsonEscape(r.group) << "\",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

DigestBook::DigestBook(const Options& opts)
    : record_path_(opts.record_digests) {
  std::ifstream in(opts.reference_dir + "/digests.txt");
  std::string key, digest;
  while (in >> key >> digest) {
    if (!key.empty() && key[0] == '#') {
      std::getline(in, key);
      continue;
    }
    expected_[key] = digest;
  }
}

bool DigestBook::Check(const std::string& key, const std::string& text,
                       std::string* why) {
  const std::string digest = Digest(text);
  if (recording()) {
    std::lock_guard<std::mutex> lock(mu_);
    observed_[key] = digest;
    return true;
  }
  auto it = expected_.find(key);
  if (it == expected_.end()) {
    *why = key + ": no reference digest";
    return false;
  }
  if (it->second != digest) {
    *why = key + ": digest " + digest + " != reference " + it->second;
    return false;
  }
  return true;
}

bool DigestBook::Save() const {
  // Merge: keep the reference entries this run did not observe.
  std::map<std::string, std::string> merged = expected_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, digest] : observed_) merged[key] = digest;
  }
  std::ofstream out(record_path_, std::ios::trunc);
  out << "# key crc32 -- recorded at seed by perfbench_driver "
         "--record-digests\n";
  for (const auto& [key, digest] : merged) out << key << " " << digest << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
