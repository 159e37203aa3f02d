// Maximally-contained rewriting of a CM-level conjunctive query into
// queries over the relational tables, using the inverse rules
// (Section 3.4). Every body atom of the CM query is resolved against the
// head of some inverse rule; the accumulated table atoms, under the
// composed unifier, form one rewriting. Rewritings whose answer variables
// remain bound to Skolem terms are unusable and dropped.
//
// Post-filters, per the paper's Example 3.4:
//  * a rewriting must mention every table linked by the covered
//    correspondences (q'1 is eliminated);
//  * a rewriting strictly contained in another surviving rewriting is
//    eliminated (q'2 ⊆ q'3 eliminates q'2).
//
// The engine runs on the interned logic core (logic/interner.h): rule
// heads are indexed by predicate, unification binds interned handles on a
// trail, duplicate rewritings are skipped by canonical form, and the
// post-filters memoize their homomorphism verdicts per session
// (logic/memo.h). Counters: rewriting.resolution_steps,
// rewritings_enumerated, rewritings_kept, rules_indexed_hits, memo_hits,
// signature_skips, arena_bytes.
#ifndef SEMAP_REWRITING_REWRITER_H_
#define SEMAP_REWRITING_REWRITER_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "exec/run_context.h"
#include "logic/containment.h"
#include "semantics/inverse_rules.h"
#include "rewriting/session.h"
#include "util/budget.h"
#include "util/result.h"

namespace semap::rew {

struct RewriteOptions {
  /// Cap on enumerated rewritings (before filtering).
  size_t max_rewritings = 32;
  /// Tables that must appear in a surviving rewriting (the tables whose
  /// columns participate in the covered correspondences).
  std::set<std::string> required_tables;
  /// Eliminate rewritings strictly contained in another.
  bool keep_only_maximal = true;
  /// Normal form used for the dedup/containment comparisons (typically the
  /// chase under the schema's RICs and functional dependencies followed by
  /// minimization, so that e.g. reading an attribute from a second
  /// key-joined row of the same table compares equal to reading it from
  /// the first). Identity when unset. The *returned* rewritings are the
  /// original, un-normalized queries.
  ///
  /// One session memoizes normal forms per query: every Rewrite through a
  /// given session must pass the same normalize function. The function's
  /// output must be minimized (a core), as the chase-then-minimize
  /// normalizer's is — the dedup filter's core-isomorphism pruning
  /// (logic/memo.h) relies on it.
  std::function<logic::ConjunctiveQuery(const logic::ConjunctiveQuery&)>
      normalize;
  /// Deprecated: pass an exec::RunContext instead. Honored (when the
  /// context carries no governor) so pre-RunContext call sites keep
  /// working; charged per resolution step. When it trips, the rewritings
  /// enumerated so far are filtered and returned as usual.
  ResourceGovernor* governor = nullptr;
};

/// \brief One rewriting request: the canonical entry point's argument.
/// `session` carries the inverse rules (indexed and interned) plus the
/// per-run memo tables; reusing one session across the requests of a run
/// is what makes the memoization pay.
struct Request {
  const logic::ConjunctiveQuery* query = nullptr;
  RewriteSession* session = nullptr;
  RewriteOptions options;
};

/// \brief Rewrite `req.query` into table-level queries — the canonical
/// entry point. The result may be empty when the tables cannot produce the
/// query. The context's metrics record the `rewriting.*` counters; the
/// governor (context's, else options.governor) bounds the search.
Result<std::vector<logic::ConjunctiveQuery>> Rewrite(
    const Request& req, const exec::RunContext& ctx);

/// Deprecated: build a Request (with a RewriteSession over `rules`) and
/// call Rewrite. These shims construct a throwaway session per call, so
/// cross-call memoization is lost; they remain for pre-session call sites.
Result<std::vector<logic::ConjunctiveQuery>> RewriteQuery(
    const logic::ConjunctiveQuery& cm_query,
    const std::vector<sem::InverseRule>& rules, const RewriteOptions& options,
    const exec::RunContext& ctx);
Result<std::vector<logic::ConjunctiveQuery>> RewriteQuery(
    const logic::ConjunctiveQuery& cm_query,
    const std::vector<sem::InverseRule>& rules, const RewriteOptions& options);

}  // namespace semap::rew

namespace semap {
/// Canonical namespace name: `rewriting::Rewrite(request, ctx)`.
namespace rewriting = rew;
}  // namespace semap

#endif  // SEMAP_REWRITING_REWRITER_H_
