// Source-to-target tuple-generating dependencies (GLAV mappings).
//
//   ∀x̄ ( φ_S(x̄) → ∃ȳ ψ_T(x̄, ȳ) )
//
// represented as a pair of conjunctive queries over the *frontier*
// variables x̄: `source` has body φ_S and head x̄; `target` has body ψ_T and
// the same head x̄ (its remaining variables are the existential ȳ). Both
// the semantic technique and the RIC-based baseline emit mappings in this
// form, exactly as the paper does.
#ifndef SEMAP_LOGIC_TGD_H_
#define SEMAP_LOGIC_TGD_H_

#include <string>
#include <vector>

#include "logic/containment.h"
#include "logic/cq.h"
#include "logic/interner.h"

namespace semap::logic {

class EquivCache;

struct Tgd {
  ConjunctiveQuery source;
  ConjunctiveQuery target;

  /// Frontier (exported) variables: the shared head.
  const std::vector<Term>& frontier() const { return source.head; }

  std::string ToString() const;
};

/// \brief Logical equivalence of mappings: the source sides are equivalent
/// CQs and the target sides are equivalent CQs, under the same frontier.
/// `stats` (optional) accumulates the homomorphism searches run.
bool EquivalentTgds(const Tgd& a, const Tgd& b, HomStats* stats = nullptr);

/// Same verdict through an EquivCache (logic/memo.h): `a_src`/`a_tgt` and
/// `b_src`/`b_tgt` must be `cache.Intern(...)` handles of the matching
/// sides of `a` and `b`, so a dedup loop interns each tgd's sides once and
/// reuses the handles across every comparison. The per-side equivalence
/// checks are memoized and signature-pruned, and inequivalent pairs are
/// rejected up front by comparing body predicate *sets* (bloom masks) —
/// equivalence forces equal sets on each side, and frontier permutations
/// never change a predicate. Sets, not multisets: AlignTgd's head
/// substitution can merge variables and leave redundant atoms, so the
/// sides are not cores and multiset equality is not implied.
bool EquivalentTgds(const Tgd& a, CqRef a_src, CqRef a_tgt, const Tgd& b,
                    CqRef b_src, CqRef b_tgt, EquivCache& cache);

/// \brief Build a tgd from two queries whose heads are positionally
/// aligned (position i of both heads carries correspondence i): renames
/// the source head onto frontier variables w0.., maps the target head onto
/// them, and prefixes the remaining (existential) variables with "s_" /
/// "t_" so the sides cannot collide.
Tgd AlignTgd(const ConjunctiveQuery& source, const ConjunctiveQuery& target);

}  // namespace semap::logic

#endif  // SEMAP_LOGIC_TGD_H_
