#include "logic/tgd.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "logic/containment.h"
#include "logic/memo.h"
#include "util/string_util.h"

namespace semap::logic {

std::string Tgd::ToString() const {
  std::vector<std::string> src_atoms;
  for (const Atom& a : source.body) src_atoms.push_back(a.ToString());
  std::vector<std::string> tgt_atoms;
  for (const Atom& a : target.body) tgt_atoms.push_back(a.ToString());
  std::vector<std::string> frontier_names;
  for (const Term& t : source.head) frontier_names.push_back(t.ToString());
  std::string out = "forall " + Join(frontier_names, ", ") + " . ";
  out += Join(src_atoms, " & ");
  out += " -> ";
  std::vector<std::string> exists = target.ExistentialVariables();
  if (!exists.empty()) {
    out += "exists " + Join(exists, ", ") + " . ";
  }
  out += Join(tgt_atoms, " & ");
  return out;
}

namespace {

// The alignment substitutions keyed by variable name; images are inserted
// verbatim, exactly like logic::ApplySubstitution.
using NameSub = std::unordered_map<std::string, Term>;

// The existential-prefix rule, applied recursively: variables whose name
// does not already start with "w" (the frontier) get the side prefix.
Term PrefixVars(const Term& t, const char* prefix) {
  switch (t.kind) {
    case TermKind::kVariable:
      if (!t.name.empty() && t.name[0] == 'w') return t;
      return Term::Var(std::string(prefix) + t.name);
    case TermKind::kConstant:
      return t;
    case TermKind::kFunction: {
      Term out = t;
      for (Term& a : out.args) a = PrefixVars(a, prefix);
      return out;
    }
  }
  return t;
}

// Plain substitution (no prefixing), mirroring ApplySubstitution.
Term SubstOnly(const Term& t, const NameSub& sub) {
  switch (t.kind) {
    case TermKind::kVariable: {
      auto it = sub.find(t.name);
      return it == sub.end() ? t : it->second;
    }
    case TermKind::kConstant:
      return t;
    case TermKind::kFunction: {
      Term out = t;
      for (Term& a : out.args) a = SubstOnly(a, sub);
      return out;
    }
  }
  return t;
}

// Substitution followed by the existential-prefix rule in one walk — the
// prefix applies to untouched variables and to variables inside
// substitution images alike, which is what the two sequential passes of
// the unfused form produced.
Term AlignTerm(const Term& t, const NameSub& sub, const char* prefix) {
  switch (t.kind) {
    case TermKind::kVariable: {
      auto it = sub.find(t.name);
      return PrefixVars(it == sub.end() ? t : it->second, prefix);
    }
    case TermKind::kConstant:
      return t;
    case TermKind::kFunction: {
      Term out = t;
      for (Term& a : out.args) a = AlignTerm(a, sub, prefix);
      return out;
    }
  }
  return t;
}

ConjunctiveQuery AlignQuery(const ConjunctiveQuery& q, const NameSub& sub,
                            const char* prefix) {
  ConjunctiveQuery out;
  out.head_predicate = q.head_predicate;
  out.head.reserve(q.head.size());
  for (const Term& t : q.head) out.head.push_back(AlignTerm(t, sub, prefix));
  out.body.reserve(q.body.size());
  for (const Atom& a : q.body) {
    Atom atom;
    atom.predicate = a.predicate;
    atom.terms.reserve(a.terms.size());
    for (const Term& t : a.terms) {
      atom.terms.push_back(AlignTerm(t, sub, prefix));
    }
    out.body.push_back(std::move(atom));
  }
  return out;
}

}  // namespace

Tgd AlignTgd(const ConjunctiveQuery& source_in,
             const ConjunctiveQuery& target_in) {
  // One fused walk per side: head variables align to w0.. (first
  // occurrence wins), the target head maps onto the aligned source head,
  // and every other variable gets its side prefix on the way past.
  NameSub sigma;
  for (size_t i = 0; i < source_in.head.size(); ++i) {
    sigma.emplace(source_in.head[i].name,
                  Term::Var("w" + std::to_string(i)));
  }
  NameSub tau;
  for (size_t i = 0; i < target_in.head.size() && i < source_in.head.size();
       ++i) {
    tau.emplace(target_in.head[i].name, SubstOnly(source_in.head[i], sigma));
  }
  return Tgd{AlignQuery(source_in, sigma, "s_"),
             AlignQuery(target_in, tau, "t_")};
}

bool EquivalentTgds(const Tgd& a, const Tgd& b, HomStats* stats) {
  if (a.source.head.size() != b.source.head.size() ||
      a.target.head.size() != b.target.head.size() ||
      b.source.head.size() != b.target.head.size()) {
    return false;
  }
  // The frontier orders of independently produced mappings may differ; try
  // every alignment of b's frontier against a's (frontiers are tiny).
  const size_t n = b.source.head.size();
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  do {
    Tgd permuted = b;
    for (size_t i = 0; i < n; ++i) {
      permuted.source.head[i] = b.source.head[perm[i]];
      permuted.target.head[i] = b.target.head[perm[i]];
    }
    if (Equivalent(a.source, permuted.source, stats) &&
        Equivalent(a.target, permuted.target, stats)) {
      return true;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return false;
}

bool EquivalentTgds(const Tgd& a, CqRef a_src, CqRef a_tgt, const Tgd& b,
                    CqRef b_src, CqRef b_tgt, EquivCache& cache) {
  if (a.source.head.size() != b.source.head.size() ||
      a.target.head.size() != b.target.head.size() ||
      b.source.head.size() != b.target.head.size()) {
    return false;
  }
  // Predicate-set precheck (see header): a mask mismatch on either side
  // rules out every frontier permutation at once.
  if (cache.use_signatures &&
      (cache.PredicateMask(a_src) != cache.PredicateMask(b_src) ||
       cache.PredicateMask(a_tgt) != cache.PredicateMask(b_tgt))) {
    ++cache.mutable_stats().signature_skips;
    return false;
  }
  // The identity alignment, straight off the handles — no copies, no
  // re-interning. Singleton frontiers stop here.
  if (cache.EquivalentRefs(a_src, b_src, /*minimized=*/false) &&
      cache.EquivalentRefs(a_tgt, b_tgt, /*minimized=*/false)) {
    return true;
  }
  const size_t n = b.source.head.size();
  if (n < 2) return false;
  // Non-identity alignments: a permutation only moves heads, so the
  // bodies are copied once, outside the loop.
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  Tgd permuted = b;
  while (std::next_permutation(perm.begin(), perm.end())) {
    for (size_t i = 0; i < n; ++i) {
      permuted.source.head[i] = b.source.head[perm[i]];
      permuted.target.head[i] = b.target.head[perm[i]];
    }
    if (cache.EquivalentRefs(a_src, cache.Intern(permuted.source),
                             /*minimized=*/false) &&
        cache.EquivalentRefs(a_tgt, cache.Intern(permuted.target),
                             /*minimized=*/false)) {
      return true;
    }
  }
  return false;
}

}  // namespace semap::logic
