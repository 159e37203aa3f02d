// EquivCache: memoized, signature-pruned equivalence / containment over
// conjunctive queries, built on the interned logic core.
//
// The rewriting engine asks the same questions about the same (up to
// variable renaming and body order) queries thousands of times per run —
// thousands of enumerated rewritings collapse to a few dozen survivors.
// EquivCache makes the repeat questions cheap, without ever changing an
// answer:
//
//  * signature pruning — a homomorphism from q1 into q2 maps every body
//    atom of q1 onto a same-predicate atom of q2, so when q1 mentions a
//    predicate q2 lacks, containment fails without a search. For
//    *minimized* queries (cores) more is true: equivalent cores are
//    isomorphic, so equivalence requires equal body sizes and equal
//    predicate multisets. Signatures are renaming-invariant and computed
//    once per interned handle;
//  * memoization — verdicts are cached in per-run tables keyed by pairs
//    of interned pointers, so a comparison repeated across candidates is
//    a hash lookup.
//
// Both are sound: they only ever skip work whose outcome is forced (the
// core-isomorphism pruning is applied only when the caller vouches that
// both sides are minimized). The cache is single-threaded by design (one
// per rewriting session / run).
#ifndef SEMAP_LOGIC_MEMO_H_
#define SEMAP_LOGIC_MEMO_H_

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "logic/interner.h"

namespace semap::logic {

/// Counters exposed so the rewriting layer can surface `rewriting.*`
/// metrics; monotonic over the cache's lifetime.
struct EquivCacheStats {
  int64_t memo_hits = 0;        // pointer-equality or cached-verdict hits
  int64_t signature_skips = 0;  // decided by signature alone
  int64_t hom_searches = 0;     // full homomorphism searches still run
  int64_t hom_step_capped = 0;  // of those, answered by the step bound
};

class EquivCache {
 public:
  explicit EquivCache(Interner* interner) : interner_(interner) {}
  EquivCache(const EquivCache&) = delete;
  EquivCache& operator=(const EquivCache&) = delete;

  /// Canonical handle for a query value (interned as-is).
  CqRef Intern(const ConjunctiveQuery& q) { return interner_->Intern(q); }

  /// Canonical-form handle: queries equal up to variable renaming and
  /// body order share the returned pointer. Memoized per interned input.
  CqRef Canonical(CqRef q);

  /// Same verdicts as logic::Equivalent / logic::Contains, cheaper on
  /// repeats. Set `minimized` only when BOTH queries are cores (outputs
  /// of logic::Minimize, possibly renamed): that unlocks the
  /// core-isomorphism signature pruning, which is unsound for
  /// non-minimized inputs. `use_signatures` / `use_memo` are test escapes
  /// that force the slow path (soundness pinning); both default on.
  bool EquivalentRefs(CqRef a, CqRef b, bool minimized);
  bool ContainsRefs(CqRef q_super, CqRef q_sub);

  /// Value-level conveniences: intern, then compare by handle. Safe for
  /// arbitrary (non-minimized) inputs.
  bool Equivalent(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
    return EquivalentRefs(Intern(a), Intern(b), /*minimized=*/false);
  }
  bool Contains(const ConjunctiveQuery& q_super,
                const ConjunctiveQuery& q_sub) {
    return ContainsRefs(Intern(q_super), Intern(q_sub));
  }

  /// Bloom mask of `q`'s body predicates (renaming-invariant). Exposed for
  /// set-equality prechecks above the CQ level (e.g. tgd equivalence):
  /// equal predicate sets imply equal masks, so a mask mismatch soundly
  /// proves the sets — and hence the queries — inequivalent.
  uint64_t PredicateMask(CqRef q) { return SignatureOf(q).predicate_mask; }

  const EquivCacheStats& stats() const { return stats_; }
  /// For collaborating fast paths (tgd-level pruning) that decide with the
  /// cache's signatures and want their skips counted with the cache's.
  EquivCacheStats& mutable_stats() { return stats_; }

  bool use_signatures = true;
  bool use_memo = true;

 private:
  struct Signature {
    uint64_t predicate_mask = 0;   // bloom of body predicates
    uint64_t multiset_hash = 0;    // order-independent body predicate hash
    uint32_t body_size = 0;
    uint32_t head_size = 0;
  };

  const Signature& SignatureOf(CqRef q);
  bool ContainsImpl(CqRef super, CqRef sub);

  struct PairHash {
    size_t operator()(const std::pair<CqRef, CqRef>& p) const {
      return std::hash<const void*>{}(p.first) * 1000003u ^
             std::hash<const void*>{}(p.second);
    }
  };

  Interner* interner_;
  EquivCacheStats stats_;
  std::unordered_map<CqRef, CqRef> canonical_;
  std::unordered_map<CqRef, Signature> signatures_;
  std::unordered_map<std::pair<CqRef, CqRef>, bool, PairHash> contains_;
};

}  // namespace semap::logic

#endif  // SEMAP_LOGIC_MEMO_H_
