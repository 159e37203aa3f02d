// RewriteSession: per-run state shared by every RewriteQuery of one
// schema side — the indexed, memoized face of the inverse-rule set.
//
// A session owns:
//  * the logic::Interner (TermFactory) through which every rule head and
//    table atom is hash-consed once, so the search engine compares terms
//    by pointer instead of by string;
//  * an index of the inverse rules by (head predicate, arity), preserving
//    the original rule order (the enumeration order of rewritings — and
//    hence the emitted output — depends on it);
//  * the subgoal-viability memo: for a fully-unresolved goal atom, whether
//    it unifies with a fresh renaming of a given rule's head. The verdict
//    depends only on the two structures, so it holds across candidates;
//  * the logic::EquivCache used by the post-enumeration filters
//    (normalize / dedup / maximality memoization and signature pruning).
//
// Sessions are single-threaded by design: the supervised worker pool runs
// one pipeline unit (and therefore one session) per task. The interner
// itself is thread-safe, so interned handles may be shared further.
#ifndef SEMAP_REWRITING_SESSION_H_
#define SEMAP_REWRITING_SESSION_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "logic/interner.h"
#include "logic/memo.h"
#include "semantics/inverse_rules.h"

namespace semap::rew {

/// Test escapes: each flag forces one fast path back onto the slow,
/// always-correct path so tests can pin that the fast path never changes
/// an answer. All default on.
struct SessionTuning {
  bool use_memo = true;        // subgoal viability + EquivCache memo tables
  bool use_signatures = true;  // EquivCache predicate-signature pruning
  bool use_dup_skip = true;    // canonical-form skip of duplicate rewritings
};

class RewriteSession {
 public:
  using Tuning = SessionTuning;

  /// One inverse rule, interned. `head` / `table_atom` are canonical
  /// handles into the session interner; `table_pred_id` is the session's
  /// dense id of the table predicate (used for instance matching and the
  /// canonical duplicate keys without touching strings).
  struct Rule {
    const sem::InverseRule* rule = nullptr;
    logic::AtomRef head = nullptr;
    logic::AtomRef table_atom = nullptr;
    int table_pred_id = -1;
  };

  /// `rules` must outlive the session. When `factory` is non-null the
  /// session interns through it instead of an owned interner — pass the
  /// run's shared TermFactory so both schema sides and the mapper-level
  /// caches share one canonical store; the factory must outlive the
  /// session.
  explicit RewriteSession(const std::vector<sem::InverseRule>& rules,
                          Tuning tuning = Tuning(),
                          logic::TermFactory* factory = nullptr);
  RewriteSession(const RewriteSession&) = delete;
  RewriteSession& operator=(const RewriteSession&) = delete;

  /// Rules whose head matches (predicate, arity), in original rule order.
  /// Returns a stable empty vector when none match.
  const std::vector<const Rule*>& Candidates(std::string_view predicate,
                                             size_t arity) const;

  /// Dense id of a predicate name, assigned on first use. The id space is
  /// shared by rules and queries, so equal names always compare equal by
  /// id. `-1` is never returned (use a -1 sentinel for "absent").
  int PredId(std::string_view predicate);

  /// Subgoal-viability memo: can `goal` (fully unresolved) unify with a
  /// fresh renaming of `rule`'s head? Returns true and fills `*viable` on
  /// a hit. Keys are interned handles, so lookups never walk structure.
  bool LookupViability(logic::AtomRef goal, const Rule* rule,
                       bool* viable) const;
  void StoreViability(logic::AtomRef goal, const Rule* rule, bool viable);

  /// Normalize memo, keyed by the engine's canonical duplicate key of the
  /// raw rewriting (renaming-invariant; built from session-stable
  /// predicate ids and interned-constant handles). Equal keys mean the raw
  /// rewritings are variable-renamings of each other, so their normalized
  /// forms are too — and the memoized form is only ever consulted in
  /// renaming-invariant verdicts (equivalence / containment). Returns
  /// nullptr on a miss.
  logic::CqRef LookupNormalized(const std::vector<int64_t>& key) const;
  void StoreNormalized(const std::vector<int64_t>& key, logic::CqRef norm);

  logic::Interner& interner() { return *interner_; }
  logic::EquivCache& equiv() { return equiv_; }
  const Tuning& tuning() const { return tuning_; }
  size_t rule_count() const { return rules_.size(); }

  /// Total bytes hash-consed through the session interner (feeds the
  /// `rewriting.arena_bytes` counter).
  size_t arena_bytes() const { return interner_->arena_bytes(); }

 private:
  // Heterogeneous (string_view) lookup: the hot path calls PredId and
  // Candidates with views into interned atoms; hashing must not allocate.
  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const std::pair<std::string, size_t>& k) const {
      return std::hash<std::string_view>{}(k.first) * 31 + k.second;
    }
    size_t operator()(const std::pair<std::string_view, size_t>& k) const {
      return std::hash<std::string_view>{}(k.first) * 31 + k.second;
    }
  };
  struct KeyEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const std::pair<A, size_t>& a,
                    const std::pair<B, size_t>& b) const {
      return std::string_view(a.first) == std::string_view(b.first) &&
             a.second == b.second;
    }
  };
  struct ViabilityHash {
    size_t operator()(
        const std::pair<logic::AtomRef, const Rule*>& k) const {
      return std::hash<const void*>{}(k.first) * 1000003u ^
             std::hash<const void*>{}(k.second);
    }
  };
  struct NormKeyHash {
    size_t operator()(const std::vector<int64_t>& v) const {
      size_t h = v.size();
      for (int64_t x : v) {
        h = h * 1099511628211ULL ^ static_cast<uint64_t>(x);
      }
      return h;
    }
  };

  Tuning tuning_;
  std::unique_ptr<logic::Interner> owned_interner_;
  logic::Interner* interner_;
  logic::EquivCache equiv_;
  std::vector<Rule> rules_;
  std::unordered_map<std::pair<std::string, size_t>,
                     std::vector<const Rule*>, KeyHash, KeyEq>
      by_head_;
  std::unordered_map<std::string, int, SvHash, SvEq> pred_ids_;
  std::unordered_map<std::pair<logic::AtomRef, const Rule*>, bool,
                     ViabilityHash>
      viability_;
  std::unordered_map<std::vector<int64_t>, logic::CqRef, NormKeyHash>
      normalized_;
};

}  // namespace semap::rew

#endif  // SEMAP_REWRITING_SESSION_H_
