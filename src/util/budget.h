// ResourceGovernor: cooperative resource governance for the discovery
// stack.
//
// The semantic search is combinatorial (minimal-tree enumeration, CSG
// pairing, inverse-rule rewriting); a pathological schema can make any of
// those loops explode. A governor carries a wall-clock deadline, a
// monotonic step budget and a memory-estimate budget, and every long
// loop charges it at its checkpoint. Once any budget is exhausted the
// governor turns sticky-non-OK and the loops unwind, returning the
// partial — but structurally well-formed — results they accumulated so
// far, annotated via NoteTruncation with what was cut off.
//
// A null governor pointer means "ungoverned"; all call sites treat it as
// an unlimited budget so the default pipeline behaves exactly as before.
//
// Thread safety: Charge / ChargeMemory / Cancel / exhausted / status may
// race freely across threads — the counters are atomics and the terminal
// status is write-once (published through an atomic flag), so the first
// trip wins and every later observer reads the same status. This is what
// lets the supervisor's watchdog Cancel() a worker's governor from
// outside, and lets several workers share one parent budget.
// NoteTruncation is mutex-guarded; truncations() returns a reference and
// must only be read once the governed work has quiesced (after the
// workers running under this governor have finished), which is how every
// call site already uses it.
//
// Parent chaining: set_parent(p) makes every Charge/ChargeMemory forward
// to `p` as well, so a per-unit governor can both enforce its own slice
// (unit deadline) and draw down a shared run-wide budget. A parent trip
// propagates into the child on its next charge.
//
// Cancel flag: set_cancel_flag(f) trips the governor as soon as any charge
// or exhausted() reads `*f` true — one relaxed load, no watcher thread.
// Combined with parent chaining, one flag on a run's root governor unwinds
// every governed loop below it at its next charge.
//
// Deterministic fault injection: InjectFailureAfter(n) forces
// kResourceExhausted on the (n+1)-th charged step regardless of clocks,
// and the SEMAP_FAULT_AFTER environment variable (read by
// FaultAfterFromEnv) lets tests and operators inject the same failure
// into an unmodified binary.
#ifndef SEMAP_UTIL_BUDGET_H_
#define SEMAP_UTIL_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace semap {

class ResourceGovernor {
 public:
  /// Unlimited governor: never trips until a budget or injection is set.
  ResourceGovernor() = default;

  /// Deadline `ms` milliseconds from now. Negative values mean
  /// "already expired" (useful for deterministic tests).
  void set_deadline_ms(int64_t ms) {
    deadline_ = Clock::now() + std::chrono::milliseconds(ms);
  }
  /// Total step budget; every Charge(n) consumes n of it.
  void set_max_steps(int64_t steps) { max_steps_ = steps; }
  /// Budget for the memory *estimate* accumulated via ChargeMemory.
  void set_max_memory_bytes(int64_t bytes) { max_memory_bytes_ = bytes; }
  /// Also draw every charge down from `parent` (not owned; must outlive
  /// this governor). A tripped parent trips this governor on its next
  /// charge with the parent's status.
  void set_parent(ResourceGovernor* parent) { parent_ = parent; }
  /// Trip with "run interrupted (shutdown requested)" once `*flag` reads
  /// true (not owned; must outlive this governor).
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_flag_ = flag; }

  /// Force kResourceExhausted once `n` steps have been charged.
  void InjectFailureAfter(int64_t n) { fault_after_ = n; }

  /// Parsed value of SEMAP_FAULT_AFTER, if set and numeric.
  static std::optional<int64_t> FaultAfterFromEnv();

  /// Charge `steps` units of work. Returns OK while budgets hold;
  /// afterwards returns (and keeps returning) the terminal status.
  Status Charge(int64_t steps = 1);

  /// Add `bytes` to the memory estimate and re-check the budget.
  Status ChargeMemory(int64_t bytes);

  /// Trip the governor from outside with `status` (must be non-OK): the
  /// supervisor's watchdog uses this to force a stuck unit to unwind at
  /// its next charge. Safe from any thread; the first trip (from any
  /// source) wins.
  void Cancel(Status status);

  /// True once any budget tripped or the cancel flag reads true; the
  /// governor stays exhausted.
  bool exhausted() const {
    return tripped_.load(std::memory_order_acquire) || CancelRequested();
  }

  /// OK, or the terminal status that first tripped. The returned
  /// reference stays valid and immutable once exhausted() is true.
  const Status& status() const {
    static const Status kOk = Status::OK();
    return exhausted() ? terminal_ : kOk;
  }

  /// Record what a cancelled loop left undone (e.g. "MinimalTrees:
  /// stopped after 3/17 roots").
  void NoteTruncation(std::string note) {
    std::lock_guard<std::mutex> lock(mutex_);
    truncations_.push_back(std::move(note));
  }
  /// Only valid once work charging this governor has quiesced.
  const std::vector<std::string>& truncations() const { return truncations_; }

  int64_t steps_used() const {
    return steps_used_.load(std::memory_order_relaxed);
  }
  int64_t memory_used() const {
    return memory_used_.load(std::memory_order_relaxed);
  }

  /// One-line usage summary for reports and logs.
  std::string ToString() const;

 private:
  using Clock = std::chrono::steady_clock;

  Status Trip(Status status) const;
  /// Reads the cancel flag; on true, trips (a const reader may be the
  /// first to observe it, hence the mutable trip state).
  bool CancelRequested() const;

  // Budgets are configured before the governed work starts and constant
  // afterwards, so they need no synchronization of their own.
  std::optional<Clock::time_point> deadline_;
  std::optional<int64_t> max_steps_;
  std::optional<int64_t> max_memory_bytes_;
  std::optional<int64_t> fault_after_;
  ResourceGovernor* parent_ = nullptr;
  const std::atomic<bool>* cancel_flag_ = nullptr;

  std::atomic<int64_t> steps_used_{0};
  std::atomic<int64_t> memory_used_{0};
  std::atomic<uint64_t> deadline_check_counter_{0};
  // terminal_ is written exactly once, under mutex_, before tripped_ is
  // released; readers that observe tripped_ may read terminal_ freely.
  mutable std::atomic<bool> tripped_{false};
  mutable Status terminal_;
  mutable std::mutex mutex_;
  std::vector<std::string> truncations_;
};

/// True when work may proceed: no governor, or budget left after
/// charging `steps`. The canonical loop checkpoint.
inline bool GovernorCharge(ResourceGovernor* governor, int64_t steps = 1) {
  return governor == nullptr || governor->Charge(steps).ok();
}

/// True when the governor exists and has tripped (for truncation notes).
inline bool GovernorExhausted(const ResourceGovernor* governor) {
  return governor != nullptr && governor->exhausted();
}

}  // namespace semap

#endif  // SEMAP_UTIL_BUDGET_H_
