// Supervised-execution tests: the worker pool must reproduce the serial
// pipeline's output exactly (any --jobs=N, resumed or not), recover
// transient semantic losses by retrying, trip the circuit breaker to the
// RIC tier under sustained failure, and survive a simulated mid-run kill
// through the checkpoint journal.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datasets/domains.h"
#include "datasets/examples.h"
#include "exec/checkpoint.h"
#include "exec/supervisor.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "util/json.h"

namespace semap {
namespace {

eval::Domain Bookstore() {
  auto domain = data::BuildBookstoreExample();
  EXPECT_TRUE(domain.ok()) << domain.status();
  return std::move(*domain);
}

/// The University domain's cases concatenated: correspondences into two
/// target tables (Member, Project2), the smallest built-in scenario that
/// exercises multi-unit scheduling.
eval::Domain University(std::vector<disc::Correspondence>* correspondences) {
  auto domain = data::BuildUniversity();
  EXPECT_TRUE(domain.ok()) << domain.status();
  correspondences->clear();
  for (const eval::TestCase& c : domain->cases) {
    correspondences->insert(correspondences->end(), c.correspondences.begin(),
                            c.correspondences.end());
  }
  return std::move(*domain);
}

/// Order-preserving fingerprint of a mapping set: tier + tgd text.
std::vector<std::string> MappingKeys(const exec::ResilientResult& result) {
  std::vector<std::string> keys;
  keys.reserve(result.mappings.size());
  for (const exec::ResilientMapping& m : result.mappings) {
    keys.push_back(std::string(exec::TierName(m.tier)) + " " +
                   m.tgd.ToString());
  }
  return keys;
}

/// Zero-delay backoff so retry tests do not sleep.
BackoffPolicy InstantBackoff() {
  BackoffPolicy policy;
  policy.initial_ms = 0;
  policy.max_ms = 0;
  return policy;
}

std::string TempJournalPath(const char* name) {
  return testing::TempDir() + "/" + name + ".checkpoint.jsonl";
}

TEST(SupervisorTest, JobsOneMatchesSerialPipeline) {
  eval::Domain domain = Bookstore();
  auto serial = exec::RunResilientPipeline(domain.source, domain.target,
                                           domain.cases[0].correspondences);
  ASSERT_TRUE(serial.ok()) << serial.status();

  exec::SupervisorOptions options;
  options.jobs = 1;
  auto supervised = exec::RunSupervisedPipeline(
      domain.source, domain.target, domain.cases[0].correspondences, options);
  ASSERT_TRUE(supervised.ok()) << supervised.status();

  EXPECT_EQ(MappingKeys(supervised->run), MappingKeys(*serial));
  ASSERT_EQ(supervised->run.report.tables.size(),
            serial->report.tables.size());
  for (size_t i = 0; i < serial->report.tables.size(); ++i) {
    EXPECT_EQ(supervised->run.report.tables[i].target_table,
              serial->report.tables[i].target_table);
    EXPECT_EQ(supervised->run.report.tables[i].tier,
              serial->report.tables[i].tier);
    EXPECT_EQ(supervised->run.report.tables[i].notes,
              serial->report.tables[i].notes);
  }
  ASSERT_EQ(supervised->units.size(), 1u);
  EXPECT_EQ(supervised->units[0].attempts, 1u);
  EXPECT_EQ(supervised->retries, 0u);
  EXPECT_FALSE(supervised->breaker_tripped);
}

TEST(SupervisorTest, ParallelJobsMatchSerialAcrossAllExamples) {
  using Builder = Result<eval::Domain> (*)();
  const Builder builders[] = {
      data::BuildBookstoreExample, data::BuildEmployeeIsaExample,
      data::BuildPartOfExample, data::BuildProjectExample,
      data::BuildSalesReifiedExample};
  for (Builder build : builders) {
    auto domain = build();
    ASSERT_TRUE(domain.ok()) << domain.status();
    for (const eval::TestCase& test_case : domain->cases) {
      auto serial = exec::RunResilientPipeline(domain->source, domain->target,
                                               test_case.correspondences);
      ASSERT_TRUE(serial.ok())
          << domain->name << "/" << test_case.name << ": " << serial.status();
      for (size_t jobs : {1u, 4u}) {
        exec::SupervisorOptions options;
        options.jobs = jobs;
        auto supervised =
            exec::RunSupervisedPipeline(domain->source, domain->target,
                                        test_case.correspondences, options);
        ASSERT_TRUE(supervised.ok())
            << domain->name << "/" << test_case.name << " jobs=" << jobs
            << ": " << supervised.status();
        EXPECT_EQ(MappingKeys(supervised->run), MappingKeys(*serial))
            << domain->name << "/" << test_case.name << " jobs=" << jobs;
        EXPECT_EQ(supervised->run.report.ToString(),
                  serial->report.ToString())
            << domain->name << "/" << test_case.name << " jobs=" << jobs;
      }
    }
  }
}

TEST(SupervisorTest, ParallelMultiTableRunMatchesSerial) {
  std::vector<disc::Correspondence> correspondences;
  eval::Domain domain = University(&correspondences);
  auto serial = exec::RunResilientPipeline(domain.source, domain.target,
                                           correspondences);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_EQ(serial->report.tables.size(), 2u);

  exec::SupervisorOptions options;
  options.jobs = 4;
  auto supervised = exec::RunSupervisedPipeline(domain.source, domain.target,
                                                correspondences, options);
  ASSERT_TRUE(supervised.ok()) << supervised.status();
  EXPECT_EQ(MappingKeys(supervised->run), MappingKeys(*serial));
  EXPECT_EQ(supervised->run.report.ToString(), serial->report.ToString());
  EXPECT_EQ(supervised->units.size(), 2u);
}

TEST(SupervisorTest, ObservabilityIsDeterministicAcrossJobCounts) {
  // The trace and metrics exports carry wall-clock durations, so they can
  // never be byte-identical between runs — instead the *structural*
  // content must match: the same multiset of span names and exactly equal
  // counters (histogram observation counts included). The explain export
  // is timestamp-free by design and must match to the byte; that half of
  // the guarantee lives in provenance_test.cc.
  using Builder = Result<eval::Domain> (*)();
  const Builder builders[] = {
      data::BuildBookstoreExample, data::BuildEmployeeIsaExample,
      data::BuildPartOfExample, data::BuildProjectExample,
      data::BuildSalesReifiedExample};
  for (Builder build : builders) {
    auto domain = build();
    ASSERT_TRUE(domain.ok()) << domain.status();
    for (const eval::TestCase& test_case : domain->cases) {
      std::multiset<std::string> baseline_spans;
      std::map<std::string, int64_t> baseline_counters;
      std::map<std::string, int64_t> baseline_histogram_counts;
      for (size_t jobs : {1u, 4u}) {
        obs::Tracer tracer;
        obs::Metrics metrics;
        exec::RunContext ctx;
        ctx.tracer = &tracer;
        ctx.metrics = &metrics;
        exec::SupervisorOptions options;
        options.jobs = jobs;
        auto supervised =
            exec::RunSupervisedPipeline(domain->source, domain->target,
                                        test_case.correspondences, options,
                                        ctx);
        ASSERT_TRUE(supervised.ok())
            << domain->name << "/" << test_case.name << " jobs=" << jobs
            << ": " << supervised.status();
        std::multiset<std::string> spans;
        for (const obs::SpanRecord& span : tracer.spans()) {
          spans.insert(span.name);
        }
        std::map<std::string, int64_t> counters(metrics.counters().begin(),
                                                metrics.counters().end());
        std::map<std::string, int64_t> histogram_counts;
        for (const auto& [name, histogram] : metrics.histograms()) {
          histogram_counts[name] = histogram.count;
        }
        if (jobs == 1u) {
          baseline_spans = std::move(spans);
          baseline_counters = std::move(counters);
          baseline_histogram_counts = std::move(histogram_counts);
        } else {
          EXPECT_EQ(spans, baseline_spans)
              << domain->name << "/" << test_case.name << " jobs=" << jobs;
          EXPECT_EQ(counters, baseline_counters)
              << domain->name << "/" << test_case.name << " jobs=" << jobs;
          EXPECT_EQ(histogram_counts, baseline_histogram_counts)
              << domain->name << "/" << test_case.name << " jobs=" << jobs;
        }
      }
    }
  }
}

TEST(SupervisorTest, EventStreamCoversTheRunAndStaysOrdered) {
  eval::Domain domain = Bookstore();
  std::string path = testing::TempDir() + "/supervisor_events.ndjson";
  {
    obs::EventEmitter events(path);
    ASSERT_TRUE(events.ok());
    exec::RunContext ctx;
    ctx.events = &events;
    exec::SupervisorOptions options;
    options.jobs = 4;
    auto supervised = exec::RunSupervisedPipeline(
        domain.source, domain.target, domain.cases[0].correspondences,
        options, ctx);
    ASSERT_TRUE(supervised.ok()) << supervised.status();
    EXPECT_TRUE(events.ok());
    EXPECT_GT(events.count(), 0);
  }
  std::ifstream in(path);
  std::string line;
  int64_t last_seq = -1;
  std::multiset<std::string> types;
  while (std::getline(in, line)) {
    auto event = json::Parse(line);
    ASSERT_TRUE(event.ok()) << line;
    EXPECT_GT(event->GetInt("seq"), last_seq);
    last_seq = event->GetInt("seq");
    types.insert(event->GetString("event"));
  }
  for (const char* expected :
       {"unit_start", "cascade_start", "tier_end", "cascade_end",
        "unit_done"}) {
    EXPECT_EQ(types.count(expected), 1u) << expected;
  }
}

TEST(SupervisorTest, TransientFaultIsRetriedAndRecovers) {
  eval::Domain domain = Bookstore();
  exec::SupervisorOptions options;
  // The injected fault afflicts only the first attempt of the unit; the
  // retry runs fault-free and must recover full semantic quality.
  options.pipeline.fault_after = 0;
  options.fault_attempts = 1;
  options.unit_attempts = 2;
  options.backoff = InstantBackoff();
  auto run = exec::RunSupervisedPipeline(
      domain.source, domain.target, domain.cases[0].correspondences, options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->run.report.tables.size(), 1u);
  EXPECT_EQ(run->run.report.tables[0].tier,
            exec::DegradationTier::kSemanticFull);
  EXPECT_FALSE(run->run.mappings.empty());
  ASSERT_EQ(run->units.size(), 1u);
  EXPECT_EQ(run->units[0].attempts, 2u);
  ASSERT_EQ(run->units[0].retry_delays_ms.size(), 1u);
  EXPECT_EQ(run->retries, 1u);

  // The recovered run matches an ungoverned serial run exactly.
  auto serial = exec::RunResilientPipeline(domain.source, domain.target,
                                           domain.cases[0].correspondences);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(MappingKeys(run->run), MappingKeys(*serial));
}

TEST(SupervisorTest, PersistentFaultExhaustsRetriesAndLandsOnRic) {
  eval::Domain domain = Bookstore();
  exec::SupervisorOptions options;
  // fault_attempts = 0: the fault never clears, every attempt loses the
  // semantic tiers. The unit must burn all attempts, then keep the RIC
  // lifeline answer rather than fail.
  options.pipeline.fault_after = 0;
  options.unit_attempts = 3;
  options.backoff = InstantBackoff();
  options.breaker_threshold = 0;  // isolate retry behavior from the breaker
  auto run = exec::RunSupervisedPipeline(
      domain.source, domain.target, domain.cases[0].correspondences, options);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_EQ(run->run.report.tables.size(), 1u);
  EXPECT_EQ(run->run.report.tables[0].tier,
            exec::DegradationTier::kRicBaseline);
  EXPECT_FALSE(run->run.mappings.empty());
  ASSERT_EQ(run->units.size(), 1u);
  EXPECT_EQ(run->units[0].attempts, 3u);
  EXPECT_EQ(run->retries, 2u);
  EXPECT_TRUE(run->run.report.AnyAtBaselineOrWorse());
}

TEST(SupervisorTest, BreakerTripsRunDownToRicTier) {
  std::vector<disc::Correspondence> correspondences;
  eval::Domain domain = University(&correspondences);
  exec::SupervisorOptions options;
  options.pipeline.fault_after = 0;  // persistent: every unit loses semantic
  options.unit_attempts = 1;
  options.breaker_threshold = 1;  // first loss trips the breaker
  options.jobs = 1;               // deterministic dispatch order
  auto run = exec::RunSupervisedPipeline(domain.source, domain.target,
                                         correspondences, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->breaker_tripped);
  ASSERT_EQ(run->run.report.tables.size(), 2u);
  for (const exec::TableOutcome& outcome : run->run.report.tables) {
    EXPECT_EQ(outcome.tier, exec::DegradationTier::kRicBaseline)
        << outcome.target_table;
  }
  // The unit dispatched after the trip skipped the semantic tiers and
  // says so; post-trip units are no longer "failures", so no retries.
  bool saw_breaker_note = false;
  for (const exec::TableOutcome& outcome : run->run.report.tables) {
    for (const std::string& note : outcome.notes) {
      if (note.find("circuit breaker open") != std::string::npos) {
        saw_breaker_note = true;
      }
    }
  }
  EXPECT_TRUE(saw_breaker_note);
}

TEST(SupervisorTest, CancelMidRunWithParallelJobsStopsCleanlyAndResumes) {
  std::vector<disc::Correspondence> correspondences;
  eval::Domain domain = University(&correspondences);
  const std::string journal = TempJournalPath("cancel_mid_jobs4");
  std::remove(journal.c_str());

  auto full = exec::RunSupervisedPipeline(domain.source, domain.target,
                                          correspondences, {});
  ASSERT_TRUE(full.ok()) << full.status();

  // The flag rises from another thread while the pool is dispatching —
  // the race the serve drain path runs on every SIGTERM. The cancel may
  // land before any unit, between units, or after the run finished; all
  // three must leave a journal the resume below completes from.
  std::atomic<bool> cancel{false};
  std::thread trigger([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cancel.store(true);
  });
  exec::SupervisorOptions options;
  options.checkpoint_path = journal;
  options.jobs = 4;
  options.cancel = &cancel;
  auto run = exec::RunSupervisedPipeline(domain.source, domain.target,
                                         correspondences, options);
  trigger.join();
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_LE(run->units.size(), 2u);
  if (!run->interrupted) {
    EXPECT_EQ(run->units.size(), 2u);  // the cancel landed too late
  }
  EXPECT_TRUE(run->journal_warning.empty()) << run->journal_warning;

  exec::SupervisorOptions resume_opts;
  resume_opts.checkpoint_path = journal;
  resume_opts.resume = true;
  auto resumed = exec::RunSupervisedPipeline(domain.source, domain.target,
                                             correspondences, resume_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_FALSE(resumed->interrupted);
  ASSERT_EQ(resumed->units.size(), 2u);
  EXPECT_EQ(MappingKeys(resumed->run), MappingKeys(full->run));
  EXPECT_EQ(resumed->run.report.ToString(), full->run.report.ToString());
  std::remove(journal.c_str());
}

TEST(SupervisorTest, HaltAndResumeReachTheSameMappingSet) {
  std::vector<disc::Correspondence> correspondences;
  eval::Domain domain = University(&correspondences);
  const std::string journal = TempJournalPath("halt_resume");
  std::remove(journal.c_str());

  // Reference: one uninterrupted run.
  auto full = exec::RunSupervisedPipeline(domain.source, domain.target,
                                          correspondences, {});
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full->units.size(), 2u);

  // Simulated kill after the first completed unit.
  exec::SupervisorOptions halted_opts;
  halted_opts.checkpoint_path = journal;
  halted_opts.halt_after_units = 1;
  auto halted = exec::RunSupervisedPipeline(domain.source, domain.target,
                                            correspondences, halted_opts);
  ASSERT_TRUE(halted.ok()) << halted.status();
  EXPECT_TRUE(halted->halted);
  EXPECT_EQ(halted->units.size(), 1u);
  EXPECT_EQ(halted->run.report.tables.size(), 1u);

  // Resume: only the unfinished table re-executes; the final mapping set
  // and report are identical to the uninterrupted run.
  exec::SupervisorOptions resume_opts;
  resume_opts.checkpoint_path = journal;
  resume_opts.resume = true;
  auto resumed = exec::RunSupervisedPipeline(domain.source, domain.target,
                                             correspondences, resume_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->journal_warning.empty()) << resumed->journal_warning;
  EXPECT_FALSE(resumed->halted);
  ASSERT_EQ(resumed->units.size(), 2u);
  size_t from_checkpoint = 0;
  for (const exec::UnitReport& unit : resumed->units) {
    if (unit.from_checkpoint) ++from_checkpoint;
  }
  EXPECT_EQ(from_checkpoint, 1u);
  EXPECT_EQ(MappingKeys(resumed->run), MappingKeys(full->run));
  EXPECT_EQ(resumed->run.report.ToString(), full->run.report.ToString());
  std::remove(journal.c_str());
}

TEST(SupervisorTest, ResumeAgainstDifferentInputsIsRefused) {
  eval::Domain domain = Bookstore();
  const std::string journal = TempJournalPath("fingerprint_mismatch");
  std::remove(journal.c_str());
  exec::SupervisorOptions checkpoint_opts;
  checkpoint_opts.checkpoint_path = journal;
  auto first = exec::RunSupervisedPipeline(
      domain.source, domain.target, domain.cases[0].correspondences,
      checkpoint_opts);
  ASSERT_TRUE(first.ok()) << first.status();

  // Same journal, different correspondence set: the fingerprint must
  // refuse the resume instead of merging stale mappings.
  std::vector<disc::Correspondence> fewer = {
      domain.cases[0].correspondences[0]};
  exec::SupervisorOptions resume_opts;
  resume_opts.checkpoint_path = journal;
  resume_opts.resume = true;
  auto resumed = exec::RunSupervisedPipeline(domain.source, domain.target,
                                             fewer, resume_opts);
  EXPECT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  std::remove(journal.c_str());
}

TEST(SupervisorTest, UnitDeadlineNeverCrashesTheRun) {
  std::vector<disc::Correspondence> correspondences;
  eval::Domain domain = University(&correspondences);
  exec::SupervisorOptions options;
  options.jobs = 2;
  options.unit_deadline_ms = 1;  // watchdog cancels almost immediately
  options.unit_attempts = 1;
  auto run = exec::RunSupervisedPipeline(domain.source, domain.target,
                                         correspondences, options);
  // The cancellation may land anywhere (or nowhere, on a fast machine):
  // whatever happens, the run must come back clean with an explained
  // tier per table and well-formed mappings.
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->run.report.tables.size(), 2u);
  for (const exec::ResilientMapping& m : run->run.mappings) {
    EXPECT_FALSE(m.tgd.source.body.empty());
    EXPECT_FALSE(m.tgd.target.body.empty());
  }
}

TEST(CheckpointTest, UnitLineRoundTrips) {
  eval::Domain domain = Bookstore();
  auto run = exec::RunSupervisedPipeline(
      domain.source, domain.target, domain.cases[0].correspondences, {});
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_FALSE(run->run.mappings.empty());

  exec::CheckpointedUnit unit;
  unit.outcome = run->run.report.tables[0];
  unit.outcome.notes = {"semantic-full (attempt 1): note with \"quotes\""};
  unit.mappings = run->run.mappings;

  const std::string line = exec::SerializeCheckpointUnit(unit);
  auto parsed = exec::ParseCheckpointUnit(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\nline: " << line;
  EXPECT_EQ(parsed->outcome.target_table, unit.outcome.target_table);
  EXPECT_EQ(parsed->outcome.tier, unit.outcome.tier);
  EXPECT_EQ(parsed->outcome.notes, unit.outcome.notes);
  ASSERT_EQ(parsed->mappings.size(), unit.mappings.size());
  for (size_t i = 0; i < unit.mappings.size(); ++i) {
    EXPECT_EQ(parsed->mappings[i].tier, unit.mappings[i].tier);
    EXPECT_EQ(parsed->mappings[i].target_table,
              unit.mappings[i].target_table);
    EXPECT_EQ(parsed->mappings[i].tgd.ToString(),
              unit.mappings[i].tgd.ToString());
    EXPECT_EQ(parsed->mappings[i].source_algebra,
              unit.mappings[i].source_algebra);
    EXPECT_EQ(parsed->mappings[i].target_algebra,
              unit.mappings[i].target_algebra);
    ASSERT_EQ(parsed->mappings[i].covered.size(),
              unit.mappings[i].covered.size());
    for (size_t j = 0; j < unit.mappings[i].covered.size(); ++j) {
      EXPECT_EQ(parsed->mappings[i].covered[j].ToString(),
                unit.mappings[i].covered[j].ToString());
    }
  }
}

TEST(CheckpointTest, FingerprintSeparatesScenarios) {
  eval::Domain bookstore = Bookstore();
  std::vector<disc::Correspondence> university_corrs;
  eval::Domain university = University(&university_corrs);
  const uint64_t a = exec::ScenarioFingerprint(
      bookstore.source, bookstore.target, bookstore.cases[0].correspondences);
  const uint64_t b = exec::ScenarioFingerprint(
      university.source, university.target, university_corrs);
  EXPECT_NE(a, b);
  // Stable across calls on identical inputs.
  EXPECT_EQ(a, exec::ScenarioFingerprint(bookstore.source, bookstore.target,
                                         bookstore.cases[0].correspondences));
}

TEST(SupervisorTest, ResumeWithExplainReproducesTheExplainOutput) {
  std::vector<disc::Correspondence> correspondences;
  eval::Domain domain = University(&correspondences);
  const std::string journal = TempJournalPath("resume_explain");
  std::remove(journal.c_str());

  // Reference: the uninterrupted run's semap.explain.v1 bytes.
  obs::ProvenanceRecorder full_recorder;
  exec::RunContext full_ctx;
  full_ctx.provenance = &full_recorder;
  auto full = exec::RunSupervisedPipeline(domain.source, domain.target,
                                          correspondences, {}, full_ctx);
  ASSERT_TRUE(full.ok()) << full.status();
  const std::string reference = full_recorder.ToJson();
  ASSERT_NE(reference.find("derivations"), std::string::npos);

  // Kill after one unit (its provenance is journaled with it) …
  obs::ProvenanceRecorder halted_recorder;
  exec::RunContext halted_ctx;
  halted_ctx.provenance = &halted_recorder;
  exec::SupervisorOptions halted_opts;
  halted_opts.checkpoint_path = journal;
  halted_opts.halt_after_units = 1;
  auto halted = exec::RunSupervisedPipeline(
      domain.source, domain.target, correspondences, halted_opts, halted_ctx);
  ASSERT_TRUE(halted.ok()) << halted.status();
  ASSERT_TRUE(halted->halted);

  // … and the resumed run's explain output must be byte-identical to
  // the uninterrupted run's: checkpointed tables restore their journaled
  // provenance instead of degrading to origin-"checkpoint" stubs.
  obs::ProvenanceRecorder resumed_recorder;
  exec::RunContext resumed_ctx;
  resumed_ctx.provenance = &resumed_recorder;
  exec::SupervisorOptions resume_opts;
  resume_opts.checkpoint_path = journal;
  resume_opts.resume = true;
  auto resumed = exec::RunSupervisedPipeline(
      domain.source, domain.target, correspondences, resume_opts, resumed_ctx);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(resumed->journal_warning.empty()) << resumed->journal_warning;
  EXPECT_EQ(resumed_recorder.ToJson(), reference);
  std::remove(journal.c_str());
}

TEST(SupervisorTest, ResumeWithExplainWorksWhenTheHaltedRunHadNoRecorder) {
  // The crash shape the CLI actually produces: a run checkpoints with no
  // --explain (so no recorder of its own), dies, and a LATER rerun asks
  // for --explain. The journal must have carried provenance anyway.
  std::vector<disc::Correspondence> correspondences;
  eval::Domain domain = University(&correspondences);
  const std::string journal = TempJournalPath("resume_explain_no_recorder");
  std::remove(journal.c_str());

  obs::ProvenanceRecorder full_recorder;
  exec::RunContext full_ctx;
  full_ctx.provenance = &full_recorder;
  auto full = exec::RunSupervisedPipeline(domain.source, domain.target,
                                          correspondences, {}, full_ctx);
  ASSERT_TRUE(full.ok()) << full.status();
  const std::string reference = full_recorder.ToJson();

  exec::SupervisorOptions halted_opts;
  halted_opts.checkpoint_path = journal;
  halted_opts.halt_after_units = 1;
  auto halted = exec::RunSupervisedPipeline(domain.source, domain.target,
                                            correspondences, halted_opts, {});
  ASSERT_TRUE(halted.ok()) << halted.status();
  ASSERT_TRUE(halted->halted);

  obs::ProvenanceRecorder resumed_recorder;
  exec::RunContext resumed_ctx;
  resumed_ctx.provenance = &resumed_recorder;
  exec::SupervisorOptions resume_opts;
  resume_opts.checkpoint_path = journal;
  resume_opts.resume = true;
  auto resumed = exec::RunSupervisedPipeline(
      domain.source, domain.target, correspondences, resume_opts, resumed_ctx);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed_recorder.ToJson(), reference);
  std::remove(journal.c_str());
}

TEST(SupervisorTest, CancelFlagFlippedMidUnitUnwindsItAtTheNextCharge) {
  std::vector<disc::Correspondence> correspondences;
  eval::Domain domain = University(&correspondences);
  const std::string path = testing::TempDir() + "/cancel_mid_unit.ndjson";
  auto read_events = [&path] {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };

  // The first unit's first attempt loses its semantic tiers to an
  // injected fault and backs off for 300 ms before retrying. The flag
  // rises during that back-off, i.e. while the unit is running; the
  // retry's first charge must trip the whole governor chain, so the unit
  // is discarded as interrupted and the second unit never starts.
  std::atomic<bool> cancel{false};
  {
    obs::EventEmitter events(path);
    ASSERT_TRUE(events.ok());
    exec::RunContext ctx;
    ctx.events = &events;
    exec::SupervisorOptions options;
    options.jobs = 1;
    options.cancel = &cancel;
    options.pipeline.fault_after = 0;
    options.fault_attempts = 1;
    options.unit_attempts = 2;
    options.backoff.initial_ms = 300;
    options.backoff.max_ms = 300;
    std::thread trigger([&] {
      for (int i = 0; i < 10000; ++i) {
        if (read_events().find("\"unit_retry\"") != std::string::npos) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      cancel.store(true);
    });
    auto run = exec::RunSupervisedPipeline(domain.source, domain.target,
                                           correspondences, options, ctx);
    trigger.join();
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_TRUE(run->interrupted);
    EXPECT_TRUE(run->units.empty());
    EXPECT_TRUE(run->run.mappings.empty());
  }
  std::multiset<std::string> types;
  std::istringstream lines(read_events());
  std::string line;
  while (std::getline(lines, line)) {
    auto event = json::Parse(line);
    ASSERT_TRUE(event.ok()) << line;
    types.insert(event->GetString("event"));
  }
  EXPECT_EQ(types.count("unit_start"), 1u);
  EXPECT_EQ(types.count("unit_retry"), 1u);
  EXPECT_EQ(types.count("unit_interrupted"), 1u);
  EXPECT_EQ(types.count("unit_done"), 1u);
  std::remove(path.c_str());
}

TEST(SupervisorTest, CancelFlagInterruptsBeforeDispatchingUnits) {
  std::vector<disc::Correspondence> correspondences;
  eval::Domain domain = University(&correspondences);
  const std::string journal = TempJournalPath("cancel_flag");
  std::remove(journal.c_str());

  // The flag is set before the run starts — a SIGINT that landed during
  // setup. No unit may be dispatched; the run returns interrupted, with
  // a valid (header-only) checkpoint journal.
  std::atomic<bool> cancel{true};
  exec::SupervisorOptions options;
  options.checkpoint_path = journal;
  options.cancel = &cancel;
  auto run = exec::RunSupervisedPipeline(domain.source, domain.target,
                                         correspondences, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->interrupted);
  EXPECT_TRUE(run->units.empty());
  EXPECT_TRUE(run->run.mappings.empty());
  EXPECT_TRUE(run->journal_warning.empty()) << run->journal_warning;

  // The rerun resumes against that journal and produces the full result.
  exec::SupervisorOptions resume_opts;
  resume_opts.checkpoint_path = journal;
  resume_opts.resume = true;
  auto resumed = exec::RunSupervisedPipeline(domain.source, domain.target,
                                             correspondences, resume_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_FALSE(resumed->interrupted);
  ASSERT_EQ(resumed->units.size(), 2u);

  auto full = exec::RunSupervisedPipeline(domain.source, domain.target,
                                          correspondences, {});
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(MappingKeys(resumed->run), MappingKeys(full->run));
  EXPECT_EQ(resumed->run.report.ToString(), full->run.report.ToString());
  std::remove(journal.c_str());
}

TEST(CheckpointTest, TruncatedButValidJsonLineFailsItsCrc) {
  eval::Domain domain = Bookstore();
  auto run = exec::RunSupervisedPipeline(
      domain.source, domain.target, domain.cases[0].correspondences, {});
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_FALSE(run->run.report.tables.empty());

  exec::CheckpointedUnit unit;
  unit.outcome = run->run.report.tables[0];
  unit.outcome.notes = {"first note", "second note"};
  unit.mappings = run->run.mappings;
  const std::string line = exec::SerializeCheckpointUnit(unit);

  // The legacy format's nasty torn-tail shape: a truncation that still
  // parses as JSON. Simulate it by serializing a shorter unit and
  // grafting the full line's crc suffix onto it — valid JSON, stale
  // checksum. The crc member, not the JSON parser, must reject it.
  exec::CheckpointedUnit shorter_unit = unit;
  shorter_unit.outcome.notes = {"first note"};
  const std::string shorter = exec::SerializeCheckpointUnit(shorter_unit);
  constexpr size_t kCrcSuffixLen = 18;  // ,"crc":"xxxxxxxx"}
  ASSERT_GT(line.size(), kCrcSuffixLen);
  const std::string tampered =
      shorter.substr(0, shorter.size() - kCrcSuffixLen) +
      line.substr(line.size() - kCrcSuffixLen);
  auto parsed = exec::ParseCheckpointUnit(tampered);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  EXPECT_NE(parsed.status().message().find("crc32"), std::string::npos)
      << parsed.status();

  // Untampered lines parse; so does a legacy line with no crc member.
  EXPECT_TRUE(exec::ParseCheckpointUnit(line).ok());
  EXPECT_TRUE(exec::ParseCheckpointUnit(shorter).ok());
  const std::string legacy = line.substr(0, line.size() - kCrcSuffixLen) + "}";
  EXPECT_TRUE(exec::ParseCheckpointUnit(legacy).ok());
}

TEST(CheckpointTest, LegacyJsonLinesCheckpointIsMigratedOnResume) {
  eval::Domain domain = Bookstore();
  const std::string journal = TempJournalPath("legacy_migration");
  std::remove(journal.c_str());

  auto full = exec::RunSupervisedPipeline(
      domain.source, domain.target, domain.cases[0].correspondences, {});
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_FALSE(full->run.report.tables.empty());
  exec::CheckpointedUnit unit;
  unit.outcome = full->run.report.tables[0];
  unit.mappings = full->run.mappings;

  // Write the pre-journal JSON-lines format by hand: header line, then
  // one unit per line.
  const uint64_t fingerprint = exec::ScenarioFingerprint(
      domain.source, domain.target, domain.cases[0].correspondences);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  {
    std::ofstream out(journal);
    out << "{\"schema\":\"semap.checkpoint.v1\",\"fingerprint\":\"" << hex
        << "\"}\n";
    out << exec::SerializeCheckpointUnit(unit) << "\n";
  }

  exec::SupervisorOptions resume_opts;
  resume_opts.checkpoint_path = journal;
  resume_opts.resume = true;
  auto resumed = exec::RunSupervisedPipeline(
      domain.source, domain.target, domain.cases[0].correspondences,
      resume_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_NE(resumed->journal_warning.find("migrated"), std::string::npos)
      << resumed->journal_warning;
  ASSERT_EQ(resumed->units.size(), 1u);
  EXPECT_TRUE(resumed->units[0].from_checkpoint);
  EXPECT_EQ(MappingKeys(resumed->run), MappingKeys(full->run));
  EXPECT_EQ(resumed->run.report.ToString(), full->run.report.ToString());

  // The file was rewritten in place as a semap.journal.v1 store; the
  // next resume reads the journaled format with no migration warning.
  {
    std::ifstream in(journal);
    std::string first_line;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, first_line)));
    EXPECT_EQ(first_line.rfind("semap.journal.v1", 0), 0u) << first_line;
  }
  auto again = exec::RunSupervisedPipeline(
      domain.source, domain.target, domain.cases[0].correspondences,
      resume_opts);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->journal_warning.empty()) << again->journal_warning;
  EXPECT_EQ(MappingKeys(again->run), MappingKeys(full->run));
  std::remove(journal.c_str());
}

TEST(CheckpointTest, TornTrailingLineIsDroppedWithWarning) {
  eval::Domain domain = Bookstore();
  const std::string journal = TempJournalPath("torn_tail");
  std::remove(journal.c_str());
  exec::SupervisorOptions checkpoint_opts;
  checkpoint_opts.checkpoint_path = journal;
  auto first = exec::RunSupervisedPipeline(
      domain.source, domain.target, domain.cases[0].correspondences,
      checkpoint_opts);
  ASSERT_TRUE(first.ok()) << first.status();

  // Simulate a torn append: garbage after the valid lines.
  {
    FILE* f = std::fopen(journal.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"record\":\"unit\",\"table\":\"tr", f);
    std::fclose(f);
  }
  exec::SupervisorOptions resume_opts;
  resume_opts.checkpoint_path = journal;
  resume_opts.resume = true;
  auto resumed = exec::RunSupervisedPipeline(
      domain.source, domain.target, domain.cases[0].correspondences,
      resume_opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_FALSE(resumed->journal_warning.empty());
  // The intact prefix still serves its table.
  ASSERT_EQ(resumed->units.size(), 1u);
  EXPECT_TRUE(resumed->units[0].from_checkpoint);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace semap
