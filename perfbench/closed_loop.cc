// The two closed-loop workloads over the seven Table-1 domains.
//
// table1-generate: semantic generation (rew::GenerateMappings) of all 34
// cases per sweep, in a seeded shuffled order. Only discovery and
// rewriting run, so it is the control workload for changes to the RIC
// baseline, the eval matcher, serving or the store.
//
// fig-eval: the Fig. 6/7 methodology, one case at a time: semantic
// generation, RIC generation (baseline::GenerateRicMappings), then
// eval::ScoreCase for both methods. The calls are made here rather than
// through eval::EvaluateSemantic/EvaluateRic so each layer gets its own
// span.
//
// Both loops run whole sweeps until the run time is used up. A traced run
// alternates untraced and traced sweeps: the untraced ones price the
// tracing overhead, the traced ones give the per-layer numbers.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>

#include "baseline/ric_mapper.h"
#include "datasets/domains.h"
#include "eval/experiment.h"
#include "exec/run_context.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "rewriting/semantic_mapper.h"

namespace perfbench {
namespace {

using semap::eval::Domain;

// Set-ups per run; the reported setup_s is their median.
constexpr int kSetupRepeats = 9;

struct CaseRef {
  size_t domain;
  size_t index;
  std::string id;  // "<domain>/<case>"
};

std::vector<CaseRef> AllCases(const std::vector<Domain>& domains) {
  std::vector<CaseRef> out;
  for (size_t d = 0; d < domains.size(); ++d) {
    for (size_t c = 0; c < domains[d].cases.size(); ++c) {
      out.push_back({d, c, domains[d].name + "/" + domains[d].cases[c].name});
    }
  }
  return out;
}

/// The sorted set of every rendered variant of every generated mapping:
/// what the table1 digests cover.
std::string RenderedSet(
    const std::vector<semap::rew::GeneratedMapping>& mappings) {
  std::vector<std::string> lines;
  for (const semap::rew::GeneratedMapping& m : mappings) {
    for (const semap::logic::Tgd& v : m.variants) lines.push_back(v.ToString());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// One traced or untraced execution context for a single case. Untraced,
/// the RunContext is empty and every span below is inert.
struct CaseTrace {
  CaseTrace(bool traced, semap::obs::Metrics* metrics, const SpanLog& log)
      : offset_ns(traced ? log.NowNs() : 0) {
    if (traced) {
      ctx.tracer = &tracer;
      ctx.metrics = metrics;
    }
  }
  semap::obs::Span Span(const char* name) const {
    return semap::obs::StartSpan(ctx.tracer, name);
  }
  semap::obs::Tracer tracer;
  semap::exec::RunContext ctx;
  int64_t offset_ns;
};

/// Everything a closed loop produced.
struct LoopStats {
  std::vector<double> op_ms;         // untraced cases
  std::vector<double> traced_op_ms;  // traced cases
  int sweeps = 0;
  int traced_sweeps = 0;
  double seconds = 0;
};

/// Run whole shuffled sweeps of `cases` until `opts.seconds` are used.
/// `run_case` executes one case, checks it, and returns the time of its
/// calls into the library (checks excluded); `end_sweep` runs after each
/// sweep (the fig-eval per-domain check).
LoopStats ClosedLoop(const Options& opts, std::vector<CaseRef> cases,
                     const std::function<double(const CaseRef&, bool traced,
                                                int64_t op_id)>& run_case,
                     const std::function<void()>& end_sweep) {
  LoopStats stats;
  std::mt19937_64 rng(opts.seed);
  int64_t op_id = 0;
  const Clock::time_point start = Clock::now();
  while (MsSince(start) < opts.seconds * 1000.0 ||
         (opts.trace && stats.traced_sweeps == 0)) {
    const bool traced = opts.trace && stats.sweeps % 2 == 1;
    std::shuffle(cases.begin(), cases.end(), rng);
    for (const CaseRef& c : cases) {
      (traced ? stats.traced_op_ms : stats.op_ms)
          .push_back(run_case(c, traced, op_id++));
    }
    end_sweep();
    ++stats.sweeps;
    if (traced) ++stats.traced_sweeps;
  }
  stats.seconds = MsSince(start) / 1000.0;
  return stats;
}

/// Build the domains kSetupRepeats times, running `warm_up` after each
/// build; returns the last build and the build times. setup_s is the
/// median build + warm-up.
bool SetUp(Report& report, std::vector<Domain>* domains,
           std::vector<double>* build_ms,
           const std::function<void(const std::vector<Domain>&)>& warm_up) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t = Clock::now();
    auto built = semap::data::BuildAllDomains();
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: BuildAllDomains failed: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    build_ms->push_back(MsSince(t));
    warm_up(*built);
    setup_s.push_back(MsSince(t) / 1000.0);
    *domains = std::move(*built);
  }
  report.Set("setup_s", Median(setup_s), "s");
  return true;
}

void SetOpMetrics(Report& report, const LoopStats& stats, const char* prefix,
                  double tail_q, const char* tail_name) {
  const double per_s = static_cast<double>(stats.op_ms.size() +
                                           stats.traced_op_ms.size()) /
                       stats.seconds;
  const double p50 = Median(stats.op_ms);
  const double tail = Quantile(stats.op_ms, tail_q);
  report.Set("throughput_per_s", per_s, "1/s");
  report.Set("op_ms.p50", p50, "ms");
  report.Set("op_ms.p90", Quantile(stats.op_ms, 0.90), "ms");
  report.Set("op_ms.p99", Quantile(stats.op_ms, 0.99), "ms");
  report.Set(std::string(prefix) + "_cases_per_s", per_s, "1/s");
  report.Set(std::string(prefix) + "_case_ms.p50", p50, "ms");
  report.Set(std::string(prefix) + "_case_ms." + tail_name, tail, "ms");
  report.Detail("samples", std::to_string(stats.op_ms.size()));
  report.Detail("sweeps", std::to_string(stats.sweeps));
}

/// Per-layer numbers shared by both workloads: the discovery/rewriting
/// phase self times and counters, per traced sweep. With no traced
/// sweeps (a workload that does not generate) they read 0.
void SetGenerationLayers(Report& report, const LoopStats& stats,
                         const SpanLog& spans,
                         const semap::obs::Metrics& metrics) {
  const double sweeps = std::max(stats.traced_sweeps, 1);
  const std::pair<const char*, const char*> phases[] = {
      {"layer.discovery.stree_inference_ms", "stree_inference"},
      {"layer.discovery.tree_search_ms", "tree_search"},
      {"layer.discovery.csg_pairing_ms", "csg_pairing"},
      {"layer.discovery.filtering_ms", "filtering"},
      {"layer.rewriting_ms", "rewriting"},
      {"layer.unattributed_ms", "generate_mappings"},
  };
  for (const auto& [metric, span] : phases) {
    report.Set(metric, spans.SelfMs(span) / sweeps, "ms");
  }
  const std::pair<const char*, const char*> counters[] = {
      {"tree_search.trees_enumerated", "count"},
      {"tree_search.shortest_path_runs", "count"},
      {"rewriting.rewritings_enumerated", "count"},
      {"rewriting.memo_hits", "count"},
      {"rewriting.signature_skips", "count"},
      {"rewriting.rules_indexed_hits", "count"},
      {"rewriting.arena_bytes", "B"},
  };
  for (const auto& [name, unit] : counters) {
    report.Set(name, static_cast<double>(metrics.Value(name)) / sweeps, unit);
  }
  auto ratio = [&](const char* num, const char* den) {
    const double d = static_cast<double>(metrics.Value(den));
    return d > 0 ? static_cast<double>(metrics.Value(num)) / d : 0.0;
  };
  report.Set("ratio.candidates_returned_per_assembled",
             ratio("discovery.candidates_returned",
                   "discovery.candidates_assembled"),
             "ratio");
  report.Set("ratio.rewritings_kept_per_enumerated",
             ratio("rewriting.rewritings_kept",
                   "rewriting.rewritings_enumerated"),
             "ratio");
  if (!stats.op_ms.empty() && !stats.traced_op_ms.empty()) {
    report.Set("layer.obs.tracing_overhead_pct",
               (Mean(stats.traced_op_ms) / Mean(stats.op_ms) - 1.0) * 100.0,
               "%");
  }
}

/// The overall semantic precision and recall of a Fig. 6/7 sweep.
void SetQuality(Report& report, double precision, double recall) {
  report.Set("quality.precision", precision, "ratio");
  report.Set("quality.recall", recall, "ratio");
}

/// Per-domain eval and baseline layers, per traced sweep, and the RIC
/// baseline's counters. With no traced sweeps they read 0.
void SetEvalLayers(Report& report, const std::vector<std::string>& domains,
                   const LoopStats& stats, const SpanLog& spans,
                   const semap::obs::Metrics& metrics) {
  const double sweeps = std::max(stats.traced_sweeps, 1);
  const std::pair<const char*, const char*> layers[] = {
      {"layer.eval.semantic_gen_ms.", "generate_mappings"},
      {"layer.baseline.ric_ms.", "ric_mappings"},
      {"layer.eval.match_semantic_ms.", "score_semantic"},
      {"layer.eval.match_ric_ms.", "score_ric"},
  };
  for (const auto& [prefix, span] : layers) {
    for (const std::string& d : domains) {
      report.Set(prefix + d, spans.TotalMs(span, d) / sweeps, "ms");
    }
  }
  report.Set("baseline.logical_relations",
             metrics.Value("baseline.logical_relations") / sweeps, "count");
  report.Set("baseline.pairs_examined",
             metrics.Value("baseline.pairs_examined") / sweeps, "count");
  const double pairs =
      static_cast<double>(metrics.Value("baseline.pairs_examined"));
  report.Set("ratio.ric_mappings_per_pair_examined",
             pairs > 0 ? metrics.Value("baseline.mappings_emitted") / pairs
                       : 0.0,
             "ratio");
}

void FinishTrace(const Options& opts, const SpanLog& spans, Report& report) {
  const std::string path = opts.work_dir + "/spans-" + opts.workload + ".ndjson";
  if (spans.WriteNdjson(path)) report.Detail("span_dump", "\"" + path + "\"");
}

}  // namespace

bool RunTable1Generate(const Options& opts, Report& report) {
  DigestBook digests(opts);
  if (!digests.loaded()) {
    std::fprintf(stderr, "perfbench: no reference digests in %s\n",
                 opts.reference_dir.c_str());
    return false;
  }
  auto generate = [](const Domain& d, const CaseRef& c,
                     const semap::exec::RunContext& ctx) {
    semap::rew::MapRequest req;
    req.source = &d.source;
    req.target = &d.target;
    req.correspondences = &d.cases[c.index].correspondences;
    return semap::rew::GenerateMappings(req, ctx);
  };

  std::vector<Domain> domains;
  std::vector<double> build_ms;
  if (!SetUp(report, &domains, &build_ms,
             [&](const std::vector<Domain>& built) {
        for (const CaseRef& c : AllCases(built)) {
          (void)generate(built[c.domain], c, {});
        }
      })) {
    return false;
  }

  SpanLog spans;
  semap::obs::Metrics metrics;
  LoopStats stats = ClosedLoop(
      opts, AllCases(domains),
      [&](const CaseRef& c, bool traced, int64_t op_id) {
        const Domain& d = domains[c.domain];
        const Clock::time_point t = Clock::now();
        CaseTrace trace(traced, &metrics, spans);
        semap::obs::Span root = trace.Span("generate_mappings");
        root.AddAttr("case", c.id);
        auto mappings = generate(d, c, trace.ctx);
        root.End();
        if (traced) spans.Add(op_id, d.name, trace.tracer, trace.offset_ns);
        const double ms = MsSince(t);
        std::string why;
        bool ok = mappings.ok();
        if (!ok) {
          why = c.id + ": " + mappings.status().ToString();
        } else {
          ok = digests.Check("table1/" + c.id, RenderedSet(*mappings), &why);
        }
        report.Op(ok, why);
        return ms;
      },
      [] {});

  SetOpMetrics(report, stats, "gen", 0.99, "p99");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  if (opts.trace) {
    SetSetupLayers(report, build_ms, {}, {});
    SetGenerationLayers(report, stats, spans, metrics);
    SetNoEvalLayers(opts, report);
    SetNoServeLayers(report);
    FinishTrace(opts, spans, report);
  }
  if (digests.recording() && !digests.Save()) return false;
  return true;
}

namespace {

/// Fig. 6/7 per-domain expectations (fig67_expected.txt, copied from
/// EXPERIMENTS.md): semantic precision/recall, RIC precision/recall.
struct Expected {
  std::string values[4];
};

std::map<std::string, Expected> LoadExpected(const std::string& dir) {
  std::map<std::string, Expected> out;
  std::ifstream in(dir + "/fig67_expected.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string domain;
    Expected e;
    if (fields >> domain >> e.values[0] >> e.values[1] >> e.values[2] >>
        e.values[3]) {
      out[domain] = e;
    }
  }
  return out;
}

std::string Fixed3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Per-domain precision/recall sums of one sweep, per method.
struct DomainScores {
  double sum[4] = {0, 0, 0, 0};  // sem P, sem R, ric P, ric R
  int cases = 0;
  int failed = 0;  // cases whose calls themselves failed
};

}  // namespace

bool RunFigEval(const Options& opts, Report& report) {
  const std::map<std::string, Expected> expected =
      LoadExpected(opts.reference_dir);
  if (expected.empty()) {
    std::fprintf(stderr, "perfbench: no fig67_expected.txt in %s\n",
                 opts.reference_dir.c_str());
    return false;
  }

  // One case, with a bench-side span around each public call.
  auto run_case = [](const Domain& d, const CaseRef& c, const CaseTrace& trace,
                     semap::eval::CaseResult* sem,
                     semap::eval::CaseResult* ric) {
    const semap::eval::TestCase& tc = d.cases[c.index];
    semap::obs::Span root = trace.Span("eval_case");
    root.AddAttr("case", c.id);
    semap::obs::Span span = trace.Span("generate_mappings");
    semap::rew::MapRequest req;
    req.source = &d.source;
    req.target = &d.target;
    req.correspondences = &tc.correspondences;
    auto semantic = semap::rew::GenerateMappings(req, trace.ctx);
    span.End();
    span = trace.Span("ric_mappings");
    auto ric_mappings = semap::baseline::GenerateRicMappings(
        d.source.schema(), d.target.schema(), tc.correspondences, {},
        trace.ctx);
    span.End();
    if (!semantic.ok() || !ric_mappings.ok()) return false;
    std::vector<std::vector<semap::logic::Tgd>> generated;
    for (const semap::rew::GeneratedMapping& m : *semantic) {
      generated.push_back(m.variants);
    }
    span = trace.Span("score_semantic");
    *sem = semap::eval::ScoreCase(tc.name, generated, tc.benchmark, d.source,
                                  d.target);
    span.End();
    generated.clear();
    for (const semap::baseline::RicMapping& m : *ric_mappings) {
      generated.push_back({m.tgd});
    }
    span = trace.Span("score_ric");
    *ric = semap::eval::ScoreCase(tc.name, generated, tc.benchmark, d.source,
                                  d.target);
    return true;
  };

  std::vector<Domain> domains;
  std::vector<double> build_ms;
  if (!SetUp(report, &domains, &build_ms,
             [&](const std::vector<Domain>& built) {
        // Warm-up: the first case of every domain.
        SpanLog unused;
        CaseTrace trace(false, nullptr, unused);
        for (size_t d = 0; d < built.size(); ++d) {
          semap::eval::CaseResult sem, ric;
          (void)run_case(built[d], {d, 0, built[d].name}, trace, &sem, &ric);
        }
      })) {
    return false;
  }

  SpanLog spans;
  semap::obs::Metrics metrics;
  std::vector<DomainScores> sweep(domains.size());
  double overall[2] = {0, 0};  // semantic precision, recall of last sweep
  LoopStats stats = ClosedLoop(
      opts, AllCases(domains),
      [&](const CaseRef& c, bool traced, int64_t op_id) {
        const Domain& d = domains[c.domain];
        const Clock::time_point t = Clock::now();
        CaseTrace trace(traced, &metrics, spans);
        semap::eval::CaseResult sem, ric;
        const bool ok = run_case(d, c, trace, &sem, &ric);
        if (traced) spans.Add(op_id, d.name, trace.tracer, trace.offset_ns);
        const double ms = MsSince(t);
        DomainScores& s = sweep[c.domain];
        ++s.cases;
        if (!ok) ++s.failed;
        s.sum[0] += sem.precision;
        s.sum[1] += sem.recall;
        s.sum[2] += ric.precision;
        s.sum[3] += ric.recall;
        return ms;
      },
      [&] {
        // A domain whose averages differ from Fig. 6/7 fails all of its
        // cases in this sweep.
        overall[0] = overall[1] = 0;
        for (size_t i = 0; i < domains.size(); ++i) {
          DomainScores& s = sweep[i];
          const std::string& name = domains[i].name;
          std::string why;
          auto it = expected.find(name);
          if (it == expected.end()) why = name + ": no expected row";
          for (int m = 0; m < 4 && why.empty(); ++m) {
            const std::string got = Fixed3(s.sum[m] / s.cases);
            if (got != it->second.values[m]) {
              why = name + ": column " + std::to_string(m) + " is " + got +
                    ", Fig. 6/7 says " + it->second.values[m];
            }
          }
          if (s.failed > 0) why = name + ": a generation call failed";
          for (int k = 0; k < s.cases; ++k) report.Op(why.empty(), why);
          overall[0] += s.sum[0] / s.cases / domains.size();
          overall[1] += s.sum[1] / s.cases / domains.size();
          s = DomainScores{};
        }
      });

  SetOpMetrics(report, stats, "eval", 0.90, "p90");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  SetQuality(report, overall[0], overall[1]);
  auto it = expected.find("overall");
  if (it != expected.end() && (Fixed3(overall[0]) != it->second.values[0] ||
                               Fixed3(overall[1]) != it->second.values[1])) {
    report.Op(false, "overall semantic precision/recall " + Fixed3(overall[0]) +
                         "/" + Fixed3(overall[1]) + " differ from Fig. 6/7");
  }
  if (opts.trace) {
    SetSetupLayers(report, build_ms, {}, {});
    SetGenerationLayers(report, stats, spans, metrics);
    std::vector<std::string> names;
    for (const Domain& d : domains) names.push_back(d.name);
    SetEvalLayers(report, names, stats, spans, metrics);
    SetNoServeLayers(report);
    FinishTrace(opts, spans, report);
  }
  return true;
}

void SetNoGenerationLayers(Report& report) {
  SetGenerationLayers(report, {}, {}, {});
}

void SetNoEvalLayers(const Options& opts, Report& report) {
  std::vector<std::string> domains;
  for (const auto& [name, row] : LoadExpected(opts.reference_dir)) {
    if (name != "overall") domains.push_back(name);
  }
  SetEvalLayers(report, domains, {}, {}, {});
  SetQuality(report, 0, 0);
}

}  // namespace perfbench
