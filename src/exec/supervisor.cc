#include "exec/supervisor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "exec/explain_capture.h"

namespace semap::exec {

namespace {

using Clock = std::chrono::steady_clock;

/// Seed a unit event with the run's request correlation id (if any), so
/// pipeline activity in a shared event stream is attributable to the
/// semap.rpc.v1 request that caused it.
obs::WideEvent TracedEvent(const RunContext& ctx) {
  obs::WideEvent event;
  if (!ctx.trace_id.empty()) event.Str("trace_id", ctx.trace_id);
  return event;
}

/// One dispatched table: the unit of isolation, retry and checkpointing.
struct Unit {
  std::string table;
  const std::vector<disc::Correspondence>* group = nullptr;
  const std::vector<std::string>* quarantine_notes = nullptr;
};

/// Everything a finished unit hands back to the supervising thread. The
/// observability objects are private to the unit while it runs (none of
/// them is thread-safe) and merged into the run's context at assembly,
/// in sorted table order, so concurrent completion order never leaks
/// into the output.
struct UnitDone {
  TableWork work;
  size_t attempts = 0;
  std::vector<int64_t> retry_delays_ms;
  int64_t queue_wait_ns = 0;
  std::unique_ptr<DiagnosticSink> sink;
  std::unique_ptr<obs::Tracer> tracer;
  int64_t tracer_offset_ns = 0;
  std::unique_ptr<obs::Metrics> metrics;
  std::unique_ptr<obs::ProvenanceRecorder> provenance;
  /// The kept attempt's governor chain tripped after a shutdown request:
  /// its result may be cut short by the interrupt, not by a real budget.
  bool cut_by_shutdown = false;
};

/// Watchdog thread for per-unit deadlines. Workers lease a watch on
/// their unit governor for the duration of each attempt; the watchdog
/// Cancels any governor whose deadline passes, which unwinds that
/// cascade at its next charge (cancellation is cooperative — it
/// interrupts governed loops, not arbitrary code) without touching the
/// sibling units.
class Watchdog {
 public:
  Watchdog() : thread_([this] { Loop(); }) {}

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

  void Watch(ResourceGovernor* governor, Clock::time_point deadline) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      watched_[governor] = deadline;
    }
    cv_.notify_one();
  }

  void Unwatch(ResourceGovernor* governor) {
    std::lock_guard<std::mutex> lock(mu_);
    watched_.erase(governor);
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (watched_.empty()) {
        cv_.wait(lock);
        continue;
      }
      const Clock::time_point now = Clock::now();
      Clock::time_point next = Clock::time_point::max();
      for (auto it = watched_.begin(); it != watched_.end();) {
        if (it->second <= now) {
          it->first->Cancel(Status::DeadlineExceeded(
              "unit deadline exceeded (watchdog cancellation)"));
          it = watched_.erase(it);
        } else {
          next = std::min(next, it->second);
          ++it;
        }
      }
      if (watched_.empty()) continue;
      cv_.wait_until(lock, next);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<ResourceGovernor*, Clock::time_point> watched_;
  bool stop_ = false;
  std::thread thread_;
};

/// RAII watch lease: registered for the span of one attempt, always
/// unregistered before the governor leaves scope.
class WatchLease {
 public:
  WatchLease(Watchdog* watchdog, ResourceGovernor* governor,
             Clock::time_point deadline)
      : watchdog_(watchdog), governor_(governor) {
    if (watchdog_ != nullptr) watchdog_->Watch(governor_, deadline);
  }
  ~WatchLease() {
    if (watchdog_ != nullptr) watchdog_->Unwatch(governor_);
  }
  WatchLease(const WatchLease&) = delete;
  WatchLease& operator=(const WatchLease&) = delete;

 private:
  Watchdog* watchdog_;
  ResourceGovernor* governor_;
};

/// State shared by the workers, all of it guarded by `mu` except the
/// breaker flag (read on the hot path of every attempt).
struct Shared {
  std::mutex mu;
  size_t next = 0;
  bool halted = false;
  bool interrupted = false;
  size_t fresh_completed = 0;
  size_t consecutive_semantic_losses = 0;
  std::atomic<bool> breaker_tripped{false};
  std::map<std::string, UnitDone> done;
  CheckpointJournal* journal = nullptr;
  std::string journal_warning;
  /// Shutdown plumbing: the caller's cancel flag and the governor every
  /// unit governor parents to, so one Cancel unwinds all running
  /// cascades cooperatively.
  const std::atomic<bool>* cancel = nullptr;
  ResourceGovernor* interrupt_root = nullptr;
};

bool CancelRequested(const Shared* shared) {
  return shared->cancel != nullptr &&
         shared->cancel->load(std::memory_order_relaxed);
}

/// Run one unit to completion: up to unit_attempts attempts, each under
/// a fresh governor slice (watchdog-leased when a unit deadline is
/// configured) and a fresh scratch sink, retrying transient semantic
/// losses under the backoff schedule. Only the kept (final) attempt's
/// diagnostics survive, so a retried unit does not report the same lift
/// problems twice.
UnitDone RunUnit(const sem::AnnotatedSchema& source,
                 const sem::AnnotatedSchema& target, const Unit& unit,
                 const SupervisorOptions& options,
                 const TableCascadeOptions& base_opts, const RunContext& ctx,
                 Shared* shared, Watchdog* watchdog) {
  UnitDone done;
  if (ctx.sink != nullptr) done.sink = std::make_unique<DiagnosticSink>();
  if (ctx.tracer != nullptr) {
    done.tracer = std::make_unique<obs::Tracer>();
    done.tracer_offset_ns = ctx.tracer->NowNs();
  }
  if (ctx.metrics != nullptr) done.metrics = std::make_unique<obs::Metrics>();

  const size_t max_attempts = std::max<size_t>(1, options.unit_attempts);
  const Backoff backoff(options.backoff);
  bool breaker_open = false;
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    ++done.attempts;
    breaker_open = shared->breaker_tripped.load(std::memory_order_relaxed);

    TableCascadeOptions attempt_opts = base_opts;
    attempt_opts.semantic_enabled = !breaker_open;
    // Transient-fault simulation: the injected fault afflicts only the
    // first fault_attempts attempts, so a retry genuinely recovers.
    if (options.fault_attempts > 0 && attempt >= options.fault_attempts) {
      attempt_opts.fault_after.reset();
    }

    // The unit's own governor slice, parent of every tier governor the
    // cascade creates below it: one Cancel here unwinds them all. The
    // slice itself parents to the run's interrupt root, so a shutdown
    // request unwinds every unit with a single Cancel there.
    ResourceGovernor unit_governor;
    if (shared->interrupt_root != nullptr) {
      unit_governor.set_parent(shared->interrupt_root);
    }
    std::optional<WatchLease> lease;
    if (options.unit_deadline_ms >= 0) {
      unit_governor.set_deadline_ms(options.unit_deadline_ms);
      lease.emplace(watchdog, &unit_governor,
                    Clock::now() +
                        std::chrono::milliseconds(options.unit_deadline_ms));
    }

    DiagnosticSink attempt_sink;
    // Like the sink, provenance is per-attempt: only the kept (final)
    // attempt's records survive, matching the TableWork the unit reports.
    // The events stream is shared and append-only — every attempt shows.
    // A checkpointing run records provenance even when this run did not
    // ask for --explain: the journaled unit must carry it so a LATER
    // resume that does ask can still reproduce the full explain output.
    std::unique_ptr<obs::ProvenanceRecorder> attempt_provenance;
    if (ctx.provenance != nullptr || shared->journal != nullptr) {
      attempt_provenance = std::make_unique<obs::ProvenanceRecorder>();
    }
    RunContext unit_ctx;
    unit_ctx.governor = &unit_governor;
    unit_ctx.sink = done.sink != nullptr ? &attempt_sink : nullptr;
    unit_ctx.tracer = done.tracer.get();
    unit_ctx.metrics = done.metrics.get();
    unit_ctx.provenance = attempt_provenance.get();
    unit_ctx.events = ctx.events;

    TableWork work = RunTableCascade(source, target, unit.table, *unit.group,
                                     attempt_opts, unit_ctx);
    lease.reset();

    const bool retry = work.transient_failure && attempt + 1 < max_attempts &&
                       !shared->breaker_tripped.load(std::memory_order_relaxed) &&
                       !CancelRequested(shared);
    if (!retry) {
      done.cut_by_shutdown = shared->interrupt_root != nullptr &&
                             unit_governor.exhausted() &&
                             shared->interrupt_root->exhausted();
      done.work = std::move(work);
      done.provenance = std::move(attempt_provenance);
      if (done.sink != nullptr) {
        for (const Diagnostic& d : attempt_sink.diagnostics()) {
          done.sink->Add(d);
        }
      }
      break;
    }
    const int64_t delay_ms = backoff.DelayMs(attempt);
    done.retry_delays_ms.push_back(delay_ms);
    if (ctx.events != nullptr) {
      ctx.events->Emit("unit_retry",
                       TracedEvent(ctx)
                           .Str("table", unit.table)
                           .Int("attempt", static_cast<int64_t>(attempt + 1))
                           .Int("delay_ms", delay_ms));
    }
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
  }

  // Mirror the serial pipeline: fail-soft quarantine drops lead the
  // table's notes; supervisor annotations trail them. Fault-free runs
  // take one attempt with the breaker closed and add nothing, keeping
  // --jobs=N note-for-note identical to the serial path.
  TableOutcome& outcome = done.work.outcome;
  if (unit.quarantine_notes != nullptr) {
    outcome.notes.insert(outcome.notes.begin(), unit.quarantine_notes->begin(),
                         unit.quarantine_notes->end());
  }
  if (done.attempts > 1) {
    outcome.notes.push_back("supervisor: " + std::to_string(done.attempts) +
                            " attempt(s)");
  }
  if (breaker_open) {
    outcome.notes.push_back(
        "supervisor: circuit breaker open, semantic tiers skipped");
  }
  return done;
}

/// Worker loop: claim the next unclaimed unit, run it, publish the
/// result, update the breaker, journal the completion. Runs on each pool
/// thread, or inline on the calling thread when jobs <= 1.
void WorkerLoop(const sem::AnnotatedSchema& source,
                const sem::AnnotatedSchema& target,
                const std::vector<Unit>& units,
                const SupervisorOptions& options,
                const TableCascadeOptions& base_opts, const RunContext& ctx,
                Shared* shared, Watchdog* watchdog) {
  for (;;) {
    size_t index = 0;
    Clock::time_point claimed_at;
    {
      std::lock_guard<std::mutex> lock(shared->mu);
      if (CancelRequested(shared)) {
        // Shutdown observed with work still queued: record the interrupt
        // so the caller can distinguish "done" from "stopped".
        if (shared->next < units.size()) shared->interrupted = true;
        return;
      }
      if (shared->halted || shared->next >= units.size()) return;
      index = shared->next++;
      claimed_at = Clock::now();
    }
    const Unit& unit = units[index];
    int64_t unit_start_ns = 0;
    if (ctx.events != nullptr) {
      unit_start_ns = ctx.events->NowNs();
      ctx.events->Emit("unit_start",
                       TracedEvent(ctx).Str("table", unit.table));
    }
    UnitDone done =
        RunUnit(source, target, unit, options, base_opts, ctx, shared, watchdog);
    done.queue_wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - claimed_at)
                             .count();
    if (ctx.events != nullptr) {
      ctx.events->Emit(
          "unit_done",
          TracedEvent(ctx)
              .Str("table", unit.table)
              .Str("tier", TierName(done.work.outcome.tier))
              .Int("attempts", static_cast<int64_t>(done.attempts))
              .Int("mappings",
                   static_cast<int64_t>(done.work.outcome.mappings))
              .Int("duration_ns", ctx.events->NowNs() - unit_start_ns));
    }

    std::lock_guard<std::mutex> lock(shared->mu);
    // A unit that lost its semantic tiers while a shutdown was pending
    // was (very likely) unwound by the interrupt root, not by a real
    // exhaustion; one whose governor chain tripped on the interrupt may
    // hold a partial result. Discard both — neither journaled, nor
    // merged, nor counted against the breaker — so the resumed run
    // recomputes the table instead of caching a cancellation artifact.
    if (CancelRequested(shared) &&
        (done.work.transient_failure || done.cut_by_shutdown)) {
      shared->interrupted = true;
      if (ctx.events != nullptr) {
        ctx.events->Emit("unit_interrupted",
                         TracedEvent(ctx).Str("table", unit.table));
      }
      return;
    }
    // Circuit breaker: `transient_failure` marks a unit whose semantic
    // tiers were lost to exhaustion (it is never set once the breaker is
    // open, since those units run without semantic tiers). A semantic
    // success closes the window; a clean RIC answer neither counts nor
    // resets.
    if (options.breaker_threshold > 0 &&
        !shared->breaker_tripped.load(std::memory_order_relaxed)) {
      if (done.work.transient_failure) {
        if (++shared->consecutive_semantic_losses >=
            options.breaker_threshold) {
          shared->breaker_tripped.store(true, std::memory_order_relaxed);
          if (ctx.events != nullptr) {
            ctx.events->Emit(
                "breaker_trip",
                obs::WideEvent().Int(
                    "consecutive_losses",
                    static_cast<int64_t>(
                        shared->consecutive_semantic_losses)));
          }
        }
      } else if (done.work.outcome.tier == DegradationTier::kSemanticFull ||
                 done.work.outcome.tier ==
                     DegradationTier::kSemanticRestricted) {
        shared->consecutive_semantic_losses = 0;
      }
    }
    if (shared->journal != nullptr) {
      CheckpointedUnit checkpoint;
      checkpoint.outcome = done.work.outcome;
      checkpoint.mappings = done.work.mappings;
      // Journal the unit's pre-merge provenance alongside its mappings:
      // a resumed --explain then restores the search history instead of
      // reconstructing origin-"checkpoint" stubs.
      if (done.provenance != nullptr) {
        const auto& tables = done.provenance->tables();
        if (auto prov = tables.find(unit.table); prov != tables.end()) {
          checkpoint.provenance = prov->second;
          checkpoint.has_provenance = true;
        }
      }
      Status append = shared->journal->Append(checkpoint);
      if (!append.ok() && shared->journal_warning.empty()) {
        shared->journal_warning =
            "checkpoint append failed: " + append.ToString();
      }
      if (ctx.events != nullptr) {
        ctx.events->Emit("checkpoint_append",
                         obs::WideEvent()
                             .Str("table", unit.table)
                             .Bool("ok", append.ok()));
      }
    }
    shared->done.emplace(unit.table, std::move(done));
    ++shared->fresh_completed;
    if (options.halt_after_units > 0 &&
        shared->fresh_completed >= options.halt_after_units) {
      shared->halted = true;  // simulated kill: stop dispatching
    }
  }
}

}  // namespace

Result<SupervisorResult> RunSupervisedPipeline(
    const sem::AnnotatedSchema& source, const sem::AnnotatedSchema& target,
    const std::vector<disc::Correspondence>& correspondences,
    const SupervisorOptions& options, const RunContext& run_ctx) {
  if (correspondences.empty()) {
    return Status::InvalidArgument("no correspondences given");
  }
  RunContext ctx = run_ctx;
  if (ctx.sink == nullptr) ctx.sink = options.pipeline.sink;
  // Units get their own governor slices; a caller-provided governor is
  // not part of this entry point's contract (same as the serial path).
  ctx.governor = nullptr;

  auto prepared = PrepareResilientRun(source, target, correspondences, ctx);
  if (!prepared.ok()) return prepared.status();

  SupervisorResult result;

  // Checkpoint journal: open (or resume) before any unit runs, so even a
  // run killed on its first table leaves a well-formed journal behind.
  std::unique_ptr<CheckpointJournal> journal;
  std::map<std::string, CheckpointedUnit> checkpointed;
  if (!options.checkpoint_path.empty()) {
    const uint64_t fingerprint =
        ScenarioFingerprint(source, target, correspondences);
    if (options.resume) {
      std::vector<CheckpointedUnit> completed;
      std::string warning;
      auto resumed = CheckpointJournal::Resume(options.checkpoint_path,
                                               fingerprint, &completed,
                                               &warning, options.io_env);
      if (!resumed.ok()) return resumed.status();
      journal = std::make_unique<CheckpointJournal>(
          std::move(resumed).ValueOrDie());
      result.journal_warning = std::move(warning);
      for (CheckpointedUnit& unit : completed) {
        // Trust only tables this run actually cascades; the fingerprint
        // already guarantees the scenario matches.
        if (prepared->groups.count(unit.outcome.target_table) > 0) {
          std::string table = unit.outcome.target_table;
          checkpointed.emplace(std::move(table), std::move(unit));
        }
      }
    } else {
      auto created = CheckpointJournal::Create(options.checkpoint_path,
                                               fingerprint, options.io_env);
      if (!created.ok()) return created.status();
      journal = std::make_unique<CheckpointJournal>(
          std::move(created).ValueOrDie());
    }
  }

  // The work queue: every cascading table not already served by the
  // journal, in sorted (map) order.
  std::vector<Unit> units;
  units.reserve(prepared->groups.size());
  for (const auto& [table, group] : prepared->groups) {
    if (checkpointed.count(table) > 0) continue;
    Unit unit;
    unit.table = table;
    unit.group = &group;
    if (auto it = prepared->quarantine_notes.find(table);
        it != prepared->quarantine_notes.end()) {
      unit.quarantine_notes = &it->second;
    }
    units.push_back(std::move(unit));
  }

  TableCascadeOptions base_opts;
  base_opts.semantic = options.pipeline.semantic;
  base_opts.ric = options.pipeline.ric;
  base_opts.max_steps = options.pipeline.max_steps;
  base_opts.retries_per_tier = options.pipeline.retries_per_tier;
  if (options.pipeline.fault_after >= 0) {
    base_opts.fault_after = options.pipeline.fault_after;
  } else {
    base_opts.fault_after = ResourceGovernor::FaultAfterFromEnv();
  }
  if (options.pipeline.deadline_ms >= 0) {
    base_opts.deadline =
        Clock::now() + std::chrono::milliseconds(options.pipeline.deadline_ms);
  }

  // Shutdown plumbing: every unit governor parents to this root, which
  // reads the caller's cancel flag on every charge, so a shutdown request
  // unwinds every running cascade at its next charge.
  ResourceGovernor interrupt_root;
  interrupt_root.set_cancel_flag(options.cancel);

  Shared shared;
  shared.journal = journal.get();
  shared.cancel = options.cancel;
  shared.interrupt_root = options.cancel != nullptr ? &interrupt_root : nullptr;

  {
    // Scoped so the watchdog (when present) is joined before assembly.
    std::unique_ptr<Watchdog> watchdog;
    if (options.unit_deadline_ms >= 0 && !units.empty()) {
      watchdog = std::make_unique<Watchdog>();
    }
    const size_t jobs = std::max<size_t>(1, options.jobs);
    const size_t pool = std::min(jobs, units.size());
    if (pool <= 1) {
      WorkerLoop(source, target, units, options, base_opts, ctx, &shared,
                 watchdog.get());
    } else {
      std::vector<std::thread> workers;
      workers.reserve(pool);
      for (size_t i = 0; i < pool; ++i) {
        workers.emplace_back([&] {
          WorkerLoop(source, target, units, options, base_opts, ctx, &shared,
                     watchdog.get());
        });
      }
      for (std::thread& worker : workers) worker.join();
    }
  }

  // --- Assembly: single-threaded, in sorted table order -------------
  // Exactly the serial pipeline's merge, which is what makes --jobs=N
  // (and resumed runs) reproduce its mapping set and report.
  result.run.report.quarantined_correspondences =
      prepared->quarantined_correspondences;
  result.run.report.tables = std::move(prepared->quarantined_tables);
  if (ctx.provenance != nullptr) {
    for (const TableOutcome& outcome : result.run.report.tables) {
      ctx.provenance->RecordOutcome(outcome.target_table,
                                    TierName(outcome.tier), outcome.notes);
    }
  }
  ctx.Count("pipeline.tables", static_cast<int64_t>(prepared->groups.size()));
  ctx.Count("pipeline.quarantined_correspondences",
            static_cast<int64_t>(prepared->quarantined_correspondences));

  MappingMerger merger(ctx);
  for (const auto& [table, group] : prepared->groups) {
    if (auto cp = checkpointed.find(table); cp != checkpointed.end()) {
      // Served from the journal: its outcome (quarantine notes included)
      // and raw mappings were recorded at completion; only the merge
      // reruns, which is deterministic.
      ctx.Count("supervisor.units_resumed");
      if (ctx.events != nullptr) {
        ctx.events->Emit("checkpoint_resume",
                         obs::WideEvent()
                             .Str("table", table)
                             .Str("tier", TierName(cp->second.outcome.tier))
                             .Int("mappings",
                                  static_cast<int64_t>(
                                      cp->second.mappings.size())));
      }
      UnitReport report;
      report.table = table;
      report.from_checkpoint = true;
      if (ctx.provenance != nullptr && cp->second.has_provenance) {
        // The journal carries the unit's pre-merge provenance: adopt it
        // exactly as MergeFrom would a live recorder's, then let the
        // deterministic merge replay re-stamp emitted/tier below — the
        // resumed --explain output is byte-identical to an
        // uninterrupted run's.
        ctx.provenance->AdoptTable(cp->second.provenance);
        ctx.provenance->RecordOutcome(table,
                                      TierName(cp->second.outcome.tier),
                                      cp->second.outcome.notes);
      } else if (ctx.provenance != nullptr) {
        // Journals written before provenance was checkpointed keep the
        // unit's result, not its search history: reconstruct one
        // derivation per cached mapping (origin "checkpoint") so the
        // one-derivation-per-emitted-TGD invariant survives a resume;
        // the rejection log of the original run is gone.
        for (const ResilientMapping& mapping : cp->second.mappings) {
          obs::DerivationRecord derivation;
          derivation.tgd = mapping.tgd.ToString();
          derivation.origin = "checkpoint";
          for (const disc::Correspondence& corr : mapping.covered) {
            derivation.covered.push_back(corr.ToString());
          }
          derivation.skolems = SkolemDecisionsOf(mapping.tgd);
          derivation.source_algebra = mapping.source_algebra;
          derivation.target_algebra = mapping.target_algebra;
          ctx.provenance->BeginTable(table);
          ctx.provenance->RecordDerivation(std::move(derivation));
          ctx.provenance->EndTable();
        }
        ctx.provenance->RecordOutcome(table,
                                      TierName(cp->second.outcome.tier),
                                      cp->second.outcome.notes);
      }
      for (ResilientMapping& mapping : cp->second.mappings) {
        merger.Emit(std::move(mapping));
      }
      if (cp->second.outcome.tier != DegradationTier::kSemanticFull) {
        ctx.Count("pipeline.degraded_tables");
      }
      result.run.report.tables.push_back(std::move(cp->second.outcome));
      result.units.push_back(std::move(report));
      continue;
    }
    auto it = shared.done.find(table);
    if (it == shared.done.end()) continue;  // halted before this table ran
    UnitDone& done = it->second;
    if (ctx.sink != nullptr && done.sink != nullptr) {
      for (const Diagnostic& d : done.sink->diagnostics()) ctx.sink->Add(d);
    }
    if (ctx.tracer != nullptr && done.tracer != nullptr) {
      ctx.tracer->Absorb(*done.tracer, "unit/" + table, done.tracer_offset_ns);
    }
    if (ctx.metrics != nullptr && done.metrics != nullptr) {
      ctx.metrics->MergeFrom(*done.metrics);
      ctx.metrics->RecordDurationNs("supervisor.queue_wait",
                                    done.queue_wait_ns);
    }
    if (ctx.provenance != nullptr && done.provenance != nullptr) {
      ctx.provenance->MergeFrom(*done.provenance);
      ctx.provenance->RecordOutcome(table, TierName(done.work.outcome.tier),
                                    done.work.outcome.notes);
    }
    ctx.Count("supervisor.unit_attempts", static_cast<int64_t>(done.attempts));
    result.retries += done.attempts - 1;
    for (ResilientMapping& mapping : done.work.mappings) {
      merger.Emit(std::move(mapping));
    }
    if (done.work.outcome.tier != DegradationTier::kSemanticFull) {
      ctx.Count("pipeline.degraded_tables");
    }
    result.run.report.tables.push_back(std::move(done.work.outcome));
    UnitReport report;
    report.table = table;
    report.attempts = done.attempts;
    report.retry_delays_ms = std::move(done.retry_delays_ms);
    report.queue_wait_ns = done.queue_wait_ns;
    result.units.push_back(std::move(report));
  }
  result.run.mappings = std::move(merger.mappings());
  ctx.Count("pipeline.mappings_emitted",
            static_cast<int64_t>(result.run.mappings.size()));
  if (result.retries > 0) {
    ctx.Count("supervisor.retries", static_cast<int64_t>(result.retries));
  }
  result.breaker_tripped =
      shared.breaker_tripped.load(std::memory_order_relaxed);
  if (result.breaker_tripped) ctx.Count("supervisor.breaker_trips");
  result.halted = shared.halted;
  result.interrupted = shared.interrupted;
  if (result.interrupted) ctx.Count("supervisor.interrupted");
  if (result.journal_warning.empty()) {
    result.journal_warning = std::move(shared.journal_warning);
  }
  return result;
}

}  // namespace semap::exec
