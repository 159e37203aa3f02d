// Conjunctive-query homomorphism, containment, equivalence, minimization.
//
// Containment is decided by the classical homomorphism theorem
// (Chandra–Merlin): q2 ⊆ q1 iff there is a homomorphism from q1 into q2
// mapping head to head. Every entry point below runs the same planned
// backtracking search (docs/LOGIC_CORE.md): target atoms are bucketed by
// predicate and arity, pattern atoms are ordered connectivity-first, and
// a fixed step bound stops pathological searches with the conservative
// answer "no homomorphism".
#ifndef SEMAP_LOGIC_CONTAINMENT_H_
#define SEMAP_LOGIC_CONTAINMENT_H_

#include <cstdint>
#include <optional>

#include "logic/cq.h"

namespace semap::logic {

/// Candidate atoms one search may try before it gives up and answers "no
/// homomorphism" — the fail-open direction for every caller (a missed
/// containment only keeps a redundant atom or a duplicate mapping).
inline constexpr int64_t kMaxHomSteps = 200000;

/// \brief Work done by homomorphism searches. Callers that surface
/// metrics pass one in and accumulate across calls: `steps` counts the
/// candidate atoms tried, `step_capped` the searches whose answer came
/// from the kMaxHomSteps bound rather than from the search.
struct HomStats {
  int64_t steps = 0;
  int64_t step_capped = 0;
};

/// \brief Find a homomorphism h from `from` into `to`: h maps variables of
/// `from` to terms of `to`, constants and function symbols to themselves,
/// every body atom of `from` onto some body atom of `to`, and the head of
/// `from` onto the head of `to`. The substitution binds every variable of
/// `from`.
std::optional<Substitution> FindHomomorphism(const ConjunctiveQuery& from,
                                             const ConjunctiveQuery& to,
                                             HomStats* stats = nullptr);

/// \brief q_sub ⊆ q_super: every answer of q_sub is an answer of q_super.
bool Contains(const ConjunctiveQuery& q_super, const ConjunctiveQuery& q_sub,
              HomStats* stats = nullptr);

/// \brief Mutual containment.
bool Equivalent(const ConjunctiveQuery& a, const ConjunctiveQuery& b,
                HomStats* stats = nullptr);

/// \brief Remove redundant body atoms: the core of the query, unique up to
/// isomorphism. Takes the argument by value: pass an rvalue to minimize in
/// place.
ConjunctiveQuery Minimize(ConjunctiveQuery query, HomStats* stats = nullptr);

}  // namespace semap::logic

#endif  // SEMAP_LOGIC_CONTAINMENT_H_
